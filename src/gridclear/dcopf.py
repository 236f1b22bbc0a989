"""Deterministic DC dispatch on the radial feeder and the one optimality certificate.

A deterministic instance is a point-mass requirement (the tail expectation of
a constant is the constant), so the dispatch reuses the feeder recursion.
Angles follow by forward substitution from the reference bus, and multipliers
are constructed, not searched: line multipliers fall out of the per-bus
angle-stationarity equations one unknown at a time along the chain, which
collapses to ``mu_line[i] = lmp[i+1] - lmp[i]``.

``kkt_verify_network`` checks a dispatch against the optimality system of
the cost-minimising dispatch problem, for both markets: the single-bus
market is that problem on a one-bus grid without lines, and
``kkt_residuals`` is a one-bus call of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .congestion import RadialGrid, dispatch_radial
from .merit_order import DispatchResult, Fleet


@dataclass(frozen=True)
class OpfSolution:
    power: np.ndarray      # MW per bus
    angles: np.ndarray     # radians, reference bus 0 at zero
    lmps: np.ndarray       # $/MWh per bus
    mu: np.ndarray         # generator upper-bound multipliers
    mu_bar: np.ndarray     # generator lower-bound multipliers
    line_mu: np.ndarray    # downstream line-limit multipliers (reverse side is slack)
    flows: np.ndarray      # MW on line i -> i+1
    objective: float       # $ purchase cost of the dispatched units

    @property
    def total_power(self) -> float:
        return float(self.power.sum())


def solve_deterministic(grid: RadialGrid, fleet: Fleet, loads,
                        renewables=None) -> OpfSolution:
    """Minimum-cost dispatch for known loads and renewable output.

    Raises InfeasibleDispatchError when some load cannot be delivered within
    the line limit and generator capacities.
    """
    loads = np.asarray(loads, dtype=float)
    if renewables is None:
        renewables = np.zeros_like(loads)
    renewables = np.asarray(renewables, dtype=float)
    if loads.shape != (grid.n_buses,) or renewables.shape != (grid.n_buses,):
        raise ValueError(f"need one load and one renewable value per bus ({grid.n_buses})")

    net = loads - renewables
    suffix = np.cumsum(net[::-1])[::-1]
    dispatch = dispatch_radial(grid, fleet, net, suffix)

    injections = dispatch.power + renewables - loads
    flows = np.cumsum(injections)[:-1] if grid.n_buses > 1 else np.zeros(0)
    angles = np.zeros(grid.n_buses)
    for i in range(grid.n_buses - 1):
        angles[i + 1] = angles[i] - flows[i] / grid.admittances[i]

    asks = fleet.ask_prices
    lmps = dispatch.lmps
    mu = np.maximum(lmps - asks, 0.0)
    mu_bar = np.maximum(asks - lmps, 0.0)
    line_mu = np.maximum(np.diff(lmps), 0.0)
    objective = float(asks @ dispatch.power)
    return OpfSolution(dispatch.power, angles, lmps, mu, mu_bar, line_mu,
                       flows, objective)


@dataclass(frozen=True)
class KktReport:
    """Maximum absolute residuals per block of the optimality system."""

    generator_stationarity: float
    angle_stationarity: float
    nodal_balance: float
    line_feasibility: float
    box_feasibility: float
    complementary_slackness: float
    negativity: float

    @property
    def max_residual(self) -> float:
        """The largest block residual; NaN when any block is NaN."""
        return float(np.max([self.generator_stationarity, self.angle_stationarity,
                             self.nodal_balance, self.line_feasibility,
                             self.box_feasibility, self.complementary_slackness,
                             self.negativity]))


def kkt_verify_network(solution: OpfSolution, grid: RadialGrid, fleet: Fleet,
                       loads, renewables=None) -> KktReport:
    """Check a populated solution against the full optimality system.

    On a one-bus grid every unit sits at bus 0; on a feeder unit i sits at
    bus i.  Blocks: generator stationarity (ask - lmp + mu - mu_bar) on the
    committed units, per-bus angle stationarity summing
    b * (mu_line difference + lmp difference) over neighbours, nodal balance
    against the DC flows, line and box feasibility, complementary slackness
    on lines and generator bounds, and multiplier non-negativity.  A unit
    that is off while its minimum is positive was decommitted: its box is
    [0, 0] and it is left out of stationarity and complementarity.  A
    certified optimum stays within 1e-8.  Raises ValueError for a layout
    with other than one unit per feeder bus, for other than one load and one
    renewable value per bus, and for a non-finite input, naming it.
    """
    loads = np.asarray(loads, dtype=float)
    renewables = (np.zeros_like(loads) if renewables is None
                  else np.asarray(renewables, dtype=float))
    n = grid.n_buses
    if n > 1 and len(fleet) != n:
        raise ValueError(f"a {n}-bus feeder needs one unit per bus, got {len(fleet)} units")
    if loads.shape != (n,) or renewables.shape != (n,):
        raise ValueError(f"need one load and one renewable value per bus ({n})")
    p, lmps, mu, mu_bar, line_mu = (solution.power, solution.lmps, solution.mu,
                                    solution.mu_bar, solution.line_mu)
    for name, values in (("power", p), ("lmps", lmps), ("mu", mu), ("mu_bar", mu_bar),
                         ("line_mu", line_mu), ("angles", solution.angles),
                         ("loads", loads), ("renewables", renewables)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite, got {values}")
    bus = np.zeros(len(fleet), dtype=int) if n == 1 else np.arange(n)
    b = grid.admittances

    committed = (p > 0.0) | (fleet.p_mins == 0.0)
    lower = np.where(p > 0.0, fleet.p_mins, 0.0)
    gen_stat = np.abs(fleet.ask_prices - lmps[bus] + mu - mu_bar)[committed].max(initial=0.0)

    # line j between buses j and j+1 adds b_j * (mu_j + lmp_j - lmp_{j+1}) at
    # bus j and its negative at bus j+1; the reverse-direction multiplier is
    # slack (0)
    per_line = b * (line_mu - np.diff(lmps))
    angle_res = np.abs(np.diff(per_line, prepend=0.0, append=0.0)).max()

    theta_flows = b * -np.diff(solution.angles)
    injections = np.bincount(bus, weights=p, minlength=n) + renewables - loads
    outflows = np.diff(theta_flows, prepend=0.0, append=0.0)
    balance = np.abs(injections - outflows).max()

    line_feas = np.maximum(np.abs(theta_flows) - grid.line_limit, 0.0).max(initial=0.0)
    box_feas = np.maximum(np.maximum(lower - p, p - fleet.p_maxs), 0.0).max()

    cs = np.max([np.abs(line_mu * (theta_flows - grid.line_limit)).max(initial=0.0),
                 np.abs(mu * (p - fleet.p_maxs))[committed].max(initial=0.0),
                 np.abs(mu_bar * (lower - p))[committed].max(initial=0.0)])
    neg = np.maximum(-np.concatenate((mu, mu_bar, line_mu)), 0.0).max(initial=0.0)
    return KktReport(*map(float, (gen_stat, angle_res, balance, line_feas, box_feas,
                                  cs, neg)))


_ONE_BUS = RadialGrid(1, 1.0)  # no lines, so the limit is never read


def kkt_residuals(fleet: Fleet, result: DispatchResult, demand: float) -> KktReport:
    """Certificate of a single-bus dispatch against its demand.

    A one-bus call of ``kkt_verify_network``: every unit sits at bus 0,
    which carries the demand as its load and clears at the dispatch's price;
    with no lines the angle and line blocks are 0.  A valid dispatch yields
    a max residual at float precision.
    """
    solution = OpfSolution(result.power, np.zeros(1), np.array([result.clearing_price]),
                           result.mu, result.mu_bar, np.zeros(0), np.zeros(0),
                           float(fleet.ask_prices @ result.power))
    return kkt_verify_network(solution, _ONE_BUS, fleet, [demand])
