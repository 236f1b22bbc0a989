"""Risk-based dispatch and locational prices on a radial feeder.

Buses are chained 0..N-1 with one generator each and a uniform line limit.
Bus 0 hosts the cheapest unit; absent congestion it serves the whole feeder
and every bus clears at its ask.  When the total requirement cannot reach
bus 0's line, the feeder splits: upstream buses self-serve plus export at
the limit, and the first bus whose tail requirement fits under the limit
balances everything downstream and sets the price from there on.  So the
balancing bus is the one record of congestion: bus 0's line binds exactly
on the rows that have one, and it fixes every bus's price.

``dispatch_radial_batch`` is the one feeder kernel: it clears m requirement
rows at once, running the recursion as a loop over the buses with each step
applied to every row, and finds each row's balancing bus and infeasibility
with masks.  Those per-row tests (finite entries, the feeder assumptions,
the balancing bus) are built the same way, one vector operation over all
rows per bus, because numpy reduces a short trailing bus axis row by row.
Per row it returns the power and the balancing bus; the bus prices are
built from the balancing bus when they are read, and the requirements it
carries from bus to bus stay internal.  ``dispatch_radial`` is a one-row
call of it.  Feasibility has one answer, the kernel's: an infeasible row
raises InfeasibleDispatchError, whose message names the failed check (for
the feeder assumptions, each bus's minimum and tail clauses in bus order).
A grid clears many levels through the kernel's unraising form,
``_radial_rows`` (each commitment in one call, the re-dispatch in row
blocks, which reads the power alone), and reads each level's first failing
row from its masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleDispatchError
from .merit_order import Fleet

_TOL = 1e-9


@dataclass(frozen=True)
class RadialGrid:
    """Feeder topology: bus i connects to bus i+1, all lines share one limit.

    A radial feeder's line flows are fixed by the bus injections, so the
    lines carry no admittance: it would change no dispatch and no price.
    """

    n_buses: int
    line_limit: float  # MW, uniform

    def __post_init__(self):
        if isinstance(self.n_buses, bool) or not isinstance(self.n_buses, (int, np.integer)):
            raise ValueError(f"n_buses {self.n_buses!r} must be an integer")
        if self.n_buses < 1:
            raise ValueError("a grid needs at least one bus")
        if not np.isfinite(self.line_limit):
            raise ValueError(f"line_limit must be finite, got {self.line_limit}")
        if self.line_limit <= 0.0:
            raise ValueError("line limit must be positive")


@dataclass(frozen=True)
class CongestedDispatch:
    power: np.ndarray               # MW per bus
    lmps: np.ndarray                # $/MWh per bus
    balancing_bus: int | None       # first bus whose tail fits, None uncongested

    @property
    def total_power(self) -> float:
        return float(self.power.sum())


@dataclass(frozen=True)
class RadialDispatchBatch:
    """Feeder dispatch of m requirement rows; row r answers row r of the input."""

    power: np.ndarray               # (m, n) MW per bus
    balancing_bus: np.ndarray       # (m,) first bus whose tail fits, -1 uncongested
    asks: np.ndarray                # (n,) $/MWh, the units' ask prices

    @property
    def lmps(self) -> np.ndarray:
        """(m, n) $/MWh per bus, built on each read: bus i clears at its own
        ask upstream of the balancing bus and at the balancing bus's ask from
        there on (bus 0's ask everywhere uncongested)."""
        price_bus = np.maximum(self.balancing_bus, 0)
        lmps = np.empty(self.power.shape)
        for i in range(lmps.shape[1]):
            lmps[:, i] = self.asks[np.minimum(price_bus, i)]
        return lmps


def _max(a, b):
    # max(a, b) as Python evaluates it: a unless b is larger, so ties keep the
    # sign of a's zero and a NaN in b is ignored (np.maximum does neither)
    return np.where(b > a, b, a)


def _min(a, b):
    # min(a, b) as Python evaluates it
    return np.where(b < a, b, a)


def _radial_rows(grid: RadialGrid, fleet: Fleet, per_bus, suffix):
    """``dispatch_radial_batch`` without the raise: the batch, the mask of
    its infeasible rows (whose entries mean nothing) and a function giving
    the error of row r.  A grid reads each level's first failing row from it.
    """
    per_bus = np.asarray(per_bus, dtype=float)
    suffix = np.asarray(suffix, dtype=float)
    n = grid.n_buses
    if (len(fleet) != n or per_bus.ndim != 2 or per_bus.shape[1:] != (n,)
            or suffix.shape != per_bus.shape):
        raise InfeasibleDispatchError(
            f"need one generator and one requirement pair per bus ({n})")
    m = per_bus.shape[0]
    given = (per_bus, suffix)
    # numpy reduces a short trailing axis row by row, so every per-row test
    # below is one vector operation over all rows per bus column instead
    finite = np.ones(m, dtype=bool)
    for i in range(n):
        finite &= np.isfinite(per_bus[:, i])
        finite &= np.isfinite(suffix[:, i])
    if not finite.all():
        # a non-finite row is cleared as zeros, so it raises no float warning
        # and cannot fail before its own message below
        per_bus = np.where(finite[:, None], per_bus, 0.0)
        suffix = np.where(finite[:, None], suffix, 0.0)
    p_bar = grid.line_limit
    p_maxs = fleet.p_maxs

    invalid = np.full(m, bool((fleet.p_mins != 0.0).any()))
    for i in range(n):
        invalid |= suffix[:, i] > p_maxs[i] + _TOL

    # the balancing bus is the first j >= 1 whose tail exceeds the limit while
    # the next one (0 beyond the last bus) fits, found walking down from the
    # last bus; ties resolve uncongested
    congested = suffix[:, 0] > per_bus[:, 0] + p_bar
    first = np.full(m, -1)
    fits = np.ones(m, dtype=bool)  # whether the tail after bus j fits
    for j in range(n - 1, 0, -1):
        over = suffix[:, j] > p_bar
        first[over & fits] = j
        fits = ~over  # the rows are finite, so no tail compares false both ways
    balancing = np.where(congested, first, -1)
    missing = congested & (first < 0)  # failed, so a served row is congested iff balanced

    power = np.empty((m, n))
    over_bus = np.full(m, -1)  # first bus whose required output exceeds capacity
    p_hat = per_bus[:, 0]
    p_hat_tail = suffix[:, 0]
    for i in range(n):
        pg = _max(_min(p_hat + p_bar, p_hat_tail), 0.0)
        over_bus[(pg > p_maxs[i] + _TOL) & (over_bus < 0)] = i
        power[:, i] = pg
        if i + 1 < n:
            cleared = pg >= p_hat_tail - 1e-12
            p_hat = np.where(cleared, 0.0, per_bus[:, i + 1] - p_bar)
            p_hat_tail = np.where(cleared, 0.0, p_hat_tail - pg)

    failed = ~finite | invalid | missing | (over_bus >= 0)

    def error_at(r):
        if not finite[r]:
            kind, row = (("local", given[0][r]) if not np.isfinite(given[0][r]).all()
                         else ("tail", given[1][r]))
            i = int(np.isfinite(row).argmin())
            message = f"bus {i}: {kind} requirement {row[i]} MW must be finite"
        elif invalid[r]:
            clauses = []
            for i, g in enumerate(fleet.generators):
                if g.p_min != 0.0:
                    clauses.append(f"bus {i}: generator minimum must be 0, got {g.p_min}")
                if suffix[r, i] > g.p_max + _TOL:
                    clauses.append(f"bus {i}: tail requirement {suffix[r, i]:.6g} MW "
                                   f"exceeds generator capacity {g.p_max:.6g}")
            message = "; ".join(clauses)
        elif missing[r]:
            message = ("congested feeder without a balancing bus; "
                       "tail requirements inconsistent")
        else:
            i = over_bus[r]
            message = (f"bus {i}: required output {power[r, i]:.6g} MW exceeds "
                       f"capacity {p_maxs[i]:.6g}")
        return InfeasibleDispatchError(message)

    return RadialDispatchBatch(power, balancing, fleet.ask_prices), failed, error_at


def dispatch_radial_batch(grid: RadialGrid, fleet: Fleet, per_bus,
                          suffix) -> RadialDispatchBatch:
    """Dispatch the feeder against m rows of per-bus and tail requirements.

    ``per_bus`` and ``suffix`` are (m, n) arrays.  Each row is cleared as
    ``dispatch_radial`` describes; the recursion runs once over the buses
    with every step applied to all rows.  Returns each row's power and
    balancing bus, from which its bus prices are read.  A row is infeasible
    when it holds a non-finite requirement, fails the feeder assumptions
    (every unit's minimum is 0, and each bus's unit covers the tail
    requirement from that bus on), is congested without a balancing bus, or
    needs more than a unit's capacity; the first infeasible row in row order
    raises InfeasibleDispatchError with that row's message.
    """
    batch, failed, error_at = _radial_rows(grid, fleet, per_bus, suffix)
    if failed.any():
        raise error_at(int(failed.argmax()))
    return batch


def dispatch_radial(grid: RadialGrid, fleet: Fleet, per_bus_cvars,
                    suffix_cvars) -> CongestedDispatch:
    """Dispatch the feeder against per-bus and tail (suffix) requirements.

    The requirement pair starts at bus 0 with (own CVaR, total CVaR) and is
    rolled forward: a bus produces min(own requirement + line limit, remaining
    tail); if that clears the tail the rest of the feeder idles, otherwise the
    next bus inherits its own CVaR less the import headroom.  A negative
    carry-over is kept as it is: it encodes spare import capacity, which is
    what keeps the next line inside its limit.  Returns the power, the bus
    prices and the balancing bus (None when bus 0's line does not bind); a
    one-row call of ``dispatch_radial_batch``.
    """
    batch = dispatch_radial_batch(grid, fleet, np.asarray(per_bus_cvars, dtype=float)[None],
                                  np.asarray(suffix_cvars, dtype=float)[None])
    balancing = int(batch.balancing_bus[0])
    return CongestedDispatch(batch.power[0], batch.lmps[0],
                             None if balancing < 0 else balancing)


def committed_upper_bound(per_bus_cvars, joint_cvar: float) -> tuple[float, float]:
    """Worst-case planned power bound and its slack over the joint requirement.

    The bound is the sum of per-bus CVaRs; the gap to the joint CVaR is
    non-negative whenever both come from the same scenario set (tail
    expectations are subadditive), and the dispatched total never exceeds
    the bound.
    """
    bound = float(np.sum(np.asarray(per_bus_cvars, dtype=float)))
    return bound, bound - float(joint_cvar)
