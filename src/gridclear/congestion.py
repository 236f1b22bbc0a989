"""Risk-based dispatch and locational prices on a radial feeder.

Buses are chained 0..N-1 with one generator each and a uniform line limit.
Bus 0 hosts the cheapest unit; absent congestion it serves the whole feeder
and every bus clears at its ask.  When the total requirement cannot reach
bus 0's line, the feeder splits: upstream buses self-serve plus export at
the limit, and the first bus whose tail requirement fits under the limit
balances everything downstream and sets the price from there on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleDispatchError
from .merit_order import Fleet

_TOL = 1e-9


@dataclass(frozen=True)
class RadialGrid:
    """Feeder topology: bus i connects to bus i+1, all lines share one limit."""

    n_buses: int
    line_limit: float                      # MW, uniform
    admittances: np.ndarray | None = None  # per-unit, used by the DC solver only

    def __post_init__(self):
        if self.n_buses < 1:
            raise ValueError("a grid needs at least one bus")
        if not np.isfinite(self.line_limit):
            raise ValueError(f"line_limit must be finite, got {self.line_limit}")
        if self.line_limit <= 0.0:
            raise ValueError("line limit must be positive")
        b = self.admittances
        if b is None:
            b = np.ones(max(self.n_buses - 1, 0))
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n_buses - 1,):
            raise ValueError(f"need {self.n_buses - 1} line admittances, got {b.shape}")
        if not np.all(np.isfinite(b)):
            raise ValueError("line admittances must be finite")
        if np.any(b <= 0.0):
            raise ValueError("line admittances must be positive")
        object.__setattr__(self, "admittances", b)


class FeederCase(enum.Enum):
    UNCONGESTED = "uncongested"   # bus 0 serves the whole feeder
    CONGESTED = "congested"       # bus 0's line binds, prices split along the feeder


@dataclass(frozen=True)
class CongestedDispatch:
    power: np.ndarray               # MW per bus
    lmps: np.ndarray                # $/MWh per bus
    local_requirement: np.ndarray   # required power ledger per bus, clamped at 0
    suffix_requirement: np.ndarray  # tail requirement ledger per bus, clamped at 0
    case: FeederCase
    balancing_bus: int | None       # first bus whose tail fits under the limit

    @property
    def total_power(self) -> float:
        return float(self.power.sum())


def validate_feeder_assumptions(grid: RadialGrid, fleet: Fleet, per_bus_cvars,
                                suffix_cvars) -> list[str]:
    """Diagnostics for the feeder-serving assumptions.

    Empty iff every unit has zero minimum and every bus's generator covers the
    tail requirement from that bus onward (its suffix CVaR).
    """
    per_bus = np.asarray(per_bus_cvars, dtype=float)
    suffix = np.asarray(suffix_cvars, dtype=float)
    n = grid.n_buses
    violations = []
    if len(fleet) != n or per_bus.shape != (n,) or suffix.shape != (n,):
        violations.append(f"need one generator and one requirement pair per bus ({n})")
        return violations
    for i, g in enumerate(fleet.generators):
        if g.p_min != 0.0:
            violations.append(f"bus {i}: generator minimum must be 0, got {g.p_min}")
        if suffix[i] > g.p_max + _TOL:
            violations.append(f"bus {i}: tail requirement {suffix[i]:.6g} MW exceeds "
                              f"generator capacity {g.p_max:.6g}")
    return violations


def _find_balancing_bus(suffix: np.ndarray, p_bar: float) -> int:
    # first bus whose downstream tail fits under the limit while its own does
    # not; ties at the limit resolve to the uncongested side
    n = suffix.size
    for j in range(1, n):
        tail_next = suffix[j + 1] if j + 1 < n else 0.0
        if suffix[j] > p_bar and tail_next <= p_bar:
            return j
    raise InfeasibleDispatchError(
        "congested feeder without a balancing bus; tail requirements inconsistent")


def dispatch_radial(grid: RadialGrid, fleet: Fleet, per_bus_cvars,
                    suffix_cvars) -> CongestedDispatch:
    """Dispatch the feeder against per-bus and tail (suffix) requirements.

    The requirement ledger starts at bus 0 with (own CVaR, total CVaR) and is
    rolled forward: a bus produces min(own requirement + line limit, remaining
    tail); if that clears the tail the rest of the feeder idles, otherwise the
    next bus inherits its own CVaR less the import headroom.  Negative ledger
    entries are kept internally (they encode spare import capacity, which is
    what keeps the next line inside its limit) and clamped only in the
    reported ledgers.
    """
    violations = validate_feeder_assumptions(grid, fleet, per_bus_cvars, suffix_cvars)
    if violations:
        raise InfeasibleDispatchError("; ".join(violations))

    per_bus = np.asarray(per_bus_cvars, dtype=float)
    suffix = np.asarray(suffix_cvars, dtype=float)
    n = grid.n_buses
    p_bar = grid.line_limit
    asks = fleet.ask_prices
    p_maxs = fleet.p_maxs

    congested = suffix[0] > per_bus[0] + p_bar
    lmps = np.full(n, asks[0])
    balancing = None
    if congested:
        balancing = _find_balancing_bus(suffix, p_bar)
        lmps[:balancing] = asks[:balancing]
        lmps[balancing:] = asks[balancing]

    power = np.zeros(n)
    local_ledger = np.zeros(n)
    tail_ledger = np.zeros(n)
    p_hat = per_bus[0]
    p_hat_tail = suffix[0]
    for i in range(n):
        local_ledger[i] = max(p_hat, 0.0)
        tail_ledger[i] = max(p_hat_tail, 0.0)
        pg = min(p_hat + p_bar, p_hat_tail)
        pg = max(pg, 0.0)
        if pg > p_maxs[i] + _TOL:
            raise InfeasibleDispatchError(
                f"bus {i}: required output {pg:.6g} MW exceeds capacity {p_maxs[i]:.6g}")
        power[i] = pg
        if i + 1 < n:
            if pg >= p_hat_tail - 1e-12:
                p_hat, p_hat_tail = 0.0, 0.0
            else:
                p_hat = per_bus[i + 1] - p_bar
                p_hat_tail = p_hat_tail - pg

    case = FeederCase.CONGESTED if congested else FeederCase.UNCONGESTED
    return CongestedDispatch(power, lmps, local_ledger, tail_ledger, case, balancing)


def committed_upper_bound(per_bus_cvars, joint_cvar: float) -> tuple[float, float]:
    """Worst-case planned power bound and its slack over the joint requirement.

    The bound is the sum of per-bus CVaRs; the gap to the joint CVaR is
    non-negative whenever both come from the same scenario set (tail
    expectations are subadditive), and the dispatched total never exceeds
    the bound.
    """
    bound = float(np.sum(np.asarray(per_bus_cvars, dtype=float)))
    return bound, bound - float(joint_cvar)
