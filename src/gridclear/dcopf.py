"""Deterministic DC dispatch on the radial feeder with an optimality certificate.

A deterministic instance is a point-mass requirement (the tail expectation of
a constant is the constant), so the dispatch reuses the feeder recursion.
Angles follow by forward substitution from the reference bus, and multipliers
are constructed, not searched: line multipliers fall out of the per-bus
angle-stationarity equations one unknown at a time along the chain, which
collapses to ``mu_line[i] = lmp[i+1] - lmp[i]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .congestion import RadialGrid, dispatch_radial
from .merit_order import Fleet, generator_residuals

_CERT_TOL = 1e-8


@dataclass(frozen=True)
class OpfSolution:
    power: np.ndarray      # MW per bus
    angles: np.ndarray     # radians, reference bus 0 at zero
    lmps: np.ndarray       # $/MWh per bus
    mu: np.ndarray         # generator upper-bound multipliers
    mu_bar: np.ndarray     # generator lower-bound multipliers
    line_mu: np.ndarray    # downstream line-limit multipliers (reverse side is slack)
    flows: np.ndarray      # MW on line i -> i+1
    objective: float       # $ purchase cost including the renewable term

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
    objective = float(asks @ dispatch.power + fleet.renewable_ask * renewables.sum())
    return OpfSolution(dispatch.power, angles, lmps, mu, mu_bar, line_mu,
                       flows, objective)


@dataclass(frozen=True)
class NetworkKktReport:
    """Maximum absolute residuals per block of the network optimality system."""

    generator_stationarity: float
    angle_stationarity: float
    nodal_balance: float
    line_feasibility: float
    box_feasibility: float
    complementary_slackness: float
    negativity: float

    @property
    def max_residual(self) -> float:
        return max(self.generator_stationarity, self.angle_stationarity,
                   self.nodal_balance, self.line_feasibility,
                   self.box_feasibility, self.complementary_slackness,
                   self.negativity)


def kkt_verify_network(solution: OpfSolution, grid: RadialGrid, fleet: Fleet,
                       loads, renewables=None) -> NetworkKktReport:
    """Check a populated solution against the full network optimality system.

    Blocks: generator stationarity (ask - lmp + mu - mu_bar; the generator
    block is ``merit_order.generator_residuals``), per-bus angle
    stationarity summing b * (mu_line difference + lmp difference) over
    neighbours, nodal balance against the DC flows, line and box feasibility,
    complementary slackness on lines and generator bounds, and multiplier
    non-negativity.  A certified optimum stays within 1e-8.
    """
    loads = np.asarray(loads, dtype=float)
    renewables = (np.zeros_like(loads) if renewables is None
                  else np.asarray(renewables, dtype=float))
    n = grid.n_buses
    b = grid.admittances
    p = solution.power
    lmps = solution.lmps
    lower, gen_stat, cs_upper, cs_lower = generator_residuals(
        fleet, p, lmps, solution.mu, solution.mu_bar)

    # angle stationarity: each bus sums b_ij * (mu_ij - mu_ji + lmp_i - lmp_j)
    # over its neighbours; the reverse-direction line multiplier is slack (0)
    angle_res = 0.0
    for i in range(n):
        acc = 0.0
        if i > 0:
            acc += b[i - 1] * (0.0 - solution.line_mu[i - 1] + lmps[i] - lmps[i - 1])
        if i < n - 1:
            acc += b[i] * (solution.line_mu[i] - 0.0 + lmps[i] - lmps[i + 1])
        angle_res = max(angle_res, abs(acc))

    theta_flows = b * -np.diff(solution.angles) if n > 1 else np.zeros(0)
    injections = p + renewables - loads
    balance = 0.0
    for i in range(n):
        out = theta_flows[i] if i < n - 1 else 0.0
        inflow = theta_flows[i - 1] if i > 0 else 0.0
        balance = max(balance, abs(injections[i] - (out - inflow)))

    line_feas = float(np.maximum(np.abs(theta_flows) - grid.line_limit, 0.0).max(initial=0.0))
    box_feas = float(np.maximum.reduce([
        np.maximum(lower - p, 0.0).max(initial=0.0),
        np.maximum(p - fleet.p_maxs, 0.0).max(initial=0.0),
    ]))

    cs_line = float(np.abs(solution.line_mu * (theta_flows - grid.line_limit)).max(initial=0.0))
    cs = max(cs_line, cs_upper, cs_lower)

    neg = max(0.0, float(-min(solution.mu.min(initial=0.0),
                              solution.mu_bar.min(initial=0.0),
                              solution.line_mu.min(initial=0.0))))
    return NetworkKktReport(gen_stat, angle_res, balance, line_feas, box_feas, cs, neg)
