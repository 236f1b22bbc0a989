"""End-to-end runs on the (penetration, alpha) grid: scenarios -> commitment -> settlement.

A point evaluation takes a level's scenario set and branches once, on the
line limit.  Without one the whole fleet clears on one bus against the CVaR
of the aggregate net load; with one the first ``n_buses`` units clear on a
radial feeder against per-bus and tail CVaRs.  Either clearing re-dispatches
every scenario at its realized net load with the committed prices held
fixed, and both settle the same way.
``run_grid`` is the one loop over grid points: both sweeps and the
single-point commands are runs of it on differently shaped grids.  A
skipped level or point names its coordinates (``penetration=0.3: ...`` or
``alpha=0.9, penetration=0.3: ...``).  ``point_row`` turns a point into one
CSV row holding every grid column, and ``emit_csv`` writes the columns a
file needs (identical config and seed give identical bytes).

Default experiment shape: three load buses, a reference fleet, and renewable
capacity sized by one of two policies.  ``tracking`` builds just enough
capacity to carry the requested penetration at a fixed site mean share
(suits studies that hold penetration fixed), while ``buildout`` models a
fixed installed base whose utilization grows with penetration, so the
renewable share of capacity, and with it the relative uncertainty, rises as
penetration does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .congestion import RadialGrid, dispatch_radial_batch
from .errors import ConfigurationError, InfeasibleDispatchError
from .merit_order import Fleet, builtin_fleet, commit_batch, fleet_from_csv
from .risk import cvar_rows
from .scenarios import ScenarioConfig, ScenarioSet, build_scenarios, draw_loads
from .settlement import (SettlementReport, curtail_and_pay_renewables,
                         deviation_envelopes, expected_profit, realized_profit,
                         recovery_rate, reserve_and_ramp_check, sum_in_order)

DEFAULT_LOAD_MEAN = (232.0, 174.0, 174.0)   # MW per bus
DEFAULT_LOAD_STD_FRAC = 0.06
DEFAULT_UNCERTAINTY_GROWTH = 0.27           # renewable std per MW of capacity
TRACKING_SITE_MEAN_SHARE = 0.85             # mean output fraction of tracked capacity
BUILDOUT_CAPACITY_SLACK = 1.1               # installed capacity over mean load

ALPHA_GRID_DEFAULT = (0.5, 0.6, 0.7, 0.8, 0.9, 0.99)
PENETRATION_GRID_DEFAULT = tuple(round(0.1 * i, 1) for i in range(11))
ALPHA_SWEEP_PENETRATION = 0.009
PENETRATION_SWEEP_ALPHA = 0.95

ALPHA_SWEEP_COLUMNS = ("alpha", "committed_mw", "price", "R", "R_tilde", "H", "lambda_w")
PENETRATION_SWEEP_COLUMNS = ("penetration", "committed_mw", "price", "deviation_cost",
                             "renewable_profit", "lambda_w")
SETTLEMENT_COLUMNS = ("run_id", "alpha", "penetration", "CR", "H", "lambda_w", "R",
                      "R_tilde", "deviation_cost", "renewable_revenue", "curtailed_mwh")


@dataclass(frozen=True)
class RunConfig:
    """Everything a sweep or single run needs; all fields have usable defaults."""

    fleet_source: str = "builtin"
    alphas: tuple[float, ...] = ALPHA_GRID_DEFAULT
    penetrations: tuple[float, ...] = PENETRATION_GRID_DEFAULT
    n_scenarios: int = 200
    seed: int = 7
    line_limit: float | None = None
    cost_recovery: int = 1
    horizon: int = 1
    load_mean_per_bus: tuple[float, ...] = DEFAULT_LOAD_MEAN
    load_std_frac: float = DEFAULT_LOAD_STD_FRAC
    uncertainty_growth: float = DEFAULT_UNCERTAINTY_GROWTH
    capacity_mode: str = "buildout"

    def __post_init__(self):
        if not self.alphas:
            raise ConfigurationError("the confidence-level grid must not be empty")
        if not self.penetrations:
            raise ConfigurationError("the penetration grid must not be empty")
        for a in self.alphas:
            if not 0.0 < a < 1.0:
                raise ConfigurationError(f"confidence level {a} outside (0, 1)")
        # what ScenarioConfig would reject at every penetration level
        for name, values in (("penetration", self.penetrations),
                             ("load mean", self.load_mean_per_bus),
                             ("load_std_frac", (self.load_std_frac,)),
                             ("uncertainty_growth", (self.uncertainty_growth,))):
            for v in values:
                if not 0.0 <= v < np.inf:
                    raise ConfigurationError(f"{name} {v} must be non-negative and finite")
        for name in ("horizon", "n_scenarios", "n_buses"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} {getattr(self, name)} must be at least 1")
        if self.seed < 0:
            raise ConfigurationError(f"seed {self.seed} must be non-negative")
        if self.line_limit is not None and not 0.0 < self.line_limit < np.inf:
            raise ConfigurationError(f"line_limit must be positive and finite, "
                                     f"got {self.line_limit}")
        if self.capacity_mode not in ("tracking", "buildout"):
            raise ConfigurationError(f"unknown capacity mode {self.capacity_mode!r}")
        if self.cost_recovery not in (0, 1):
            raise ConfigurationError("cost_recovery must be 0 or 1")

    @property
    def n_buses(self) -> int:
        return len(self.load_mean_per_bus)


def load_fleet(source: str) -> Fleet:
    """Resolve a fleet source: the literal "builtin" or a CSV path."""
    if source == "builtin":
        return builtin_fleet()
    return fleet_from_csv(source)


def derive_capacity(load_mean_per_bus, penetration: float, mode: str) -> np.ndarray:
    """Per-bus renewable capacity for a penetration level under a sizing policy."""
    mean = np.asarray(load_mean_per_bus, dtype=float)
    if mode == "tracking":
        return penetration * mean / TRACKING_SITE_MEAN_SHARE
    if mode == "buildout":
        return BUILDOUT_CAPACITY_SLACK * mean
    raise ConfigurationError(f"unknown capacity mode {mode!r}")


def scenario_config(run: RunConfig, penetration: float) -> ScenarioConfig:
    mean_col = np.asarray(run.load_mean_per_bus, dtype=float)[:, None]
    mean = np.repeat(mean_col, run.horizon, axis=1)
    return ScenarioConfig(
        n_buses=run.n_buses,
        horizon=run.horizon,
        n_scenarios=run.n_scenarios,
        seed=run.seed,
        load_mean=mean,
        load_std=run.load_std_frac * mean,
        renewable_capacity=derive_capacity(run.load_mean_per_bus, penetration,
                                           run.capacity_mode),
        penetration=penetration,
        uncertainty_growth=run.uncertainty_growth,
    )


@dataclass(frozen=True)
class PointResult:
    """One fully settled market run at a fixed (alpha, penetration)."""

    alpha: float
    penetration: float
    committed: np.ndarray        # (T, n_units) MW
    realized: np.ndarray         # (K, T, n_units) MW
    lmps: np.ndarray             # (T, n_units) $/MWh at each unit's bus
    clearing_prices: np.ndarray  # (T,) system price (max LMP when congested)
    settlement: SettlementReport
    fleet: Fleet = field(repr=False)  # the units cleared, one per bus on a feeder

    @property
    def committed_total(self) -> float:
        return float(self.committed.sum())

    @property
    def price(self) -> float:
        return float(self.clearing_prices.mean())


def _clear_bus(fleet: Fleet, sset: ScenarioSet, alpha: float):
    """Commit each hour's aggregate CVaR on one bus, then re-dispatch every
    scenario-hour at its realized aggregate clipped into the servable range
    (surplus renewables push it to zero, shortfalls beyond capacity are shed).

    Returns the committed power, unit LMPs, clearing prices, the bus prices
    renewables are paid at, and the realized (K, T, n) dispatch.
    """
    net = sset.load - sset.renewable  # held to the end: freeing it early raised peak RSS
    agg = net.sum(axis=0)  # (T, K): one aggregate sample per hour
    _, cvars = cvar_rows(agg, sset.probabilities, alpha)
    batch = commit_batch(fleet, np.maximum(cvars, 0.0))
    prices = batch.clearing_price
    lmps = np.repeat(prices[:, None], len(fleet), axis=1)
    bus_lmps = np.repeat(prices[:, None], sset.n_buses, axis=1)
    # (K, T), scenario-major rows
    demands = np.minimum(np.maximum(agg.T, 0.0), fleet.total_capacity)
    realized = commit_batch(fleet, demands.ravel()).power
    return batch.power, lmps, prices, bus_lmps, realized.reshape(*demands.shape, len(fleet))


def _clear_feeder(fleet: Fleet, grid: RadialGrid, sset: ScenarioSet, alpha: float):
    """Commit each hour's per-bus and tail CVaRs on the feeder, then dispatch
    every scenario-hour at its realized net loads; the first infeasible one in
    (scenario, hour) order aborts the point.  Returns what ``_clear_bus``
    does, with the unit LMPs as bus prices and their maximum as the price.
    """
    k_len, t_len, n = sset.n_scenarios, sset.horizon, grid.n_buses
    net = sset.load - sset.renewable  # (buses, T, K)
    cvars = np.empty((t_len, 2 * n))
    for t in range(t_len):
        # one hour at a time: a single all-hours call raised peak RSS.  The
        # tails are summed forward from each bus; the reversed cumsum used
        # for the realized rows below rounds differently.
        tails = [net[i:, t].sum(axis=0) for i in range(n)]
        cvars[t] = cvar_rows(np.vstack([net[:, t], *tails]), sset.probabilities, alpha)[1]
    batch = dispatch_radial_batch(grid, fleet, cvars[:, :n], cvars[:, n:])
    # one row per scenario-hour in (k, t) order; the reshape copies net, so
    # net is freed before the kernel allocates its outputs
    rows = net.transpose(2, 1, 0).reshape(k_len * t_len, n)
    del net
    suffix = np.cumsum(rows[:, ::-1], axis=1)[:, ::-1]
    realized = dispatch_radial_batch(grid, fleet, rows, suffix).power
    return (batch.power, batch.lmps, batch.lmps.max(axis=1), batch.lmps,
            realized.reshape(k_len, t_len, n))


def evaluate_point(fleet: Fleet, run: RunConfig, sset: ScenarioSet, alpha: float,
                   penetration: float) -> PointResult:
    """Commit, re-dispatch and settle one (alpha, penetration) grid point.

    The one branch on the line limit picks the units and the clearing: the
    whole fleet on one bus, or the first ``n_buses`` units on the feeder.
    """
    if run.line_limit is None:
        point_fleet = fleet
        cleared = _clear_bus(fleet, sset, alpha)
    else:
        point_fleet = fleet.head(run.n_buses)
        grid = RadialGrid(run.n_buses, run.line_limit)
        cleared = _clear_feeder(point_fleet, grid, sset, alpha)
    committed, lmps, prices, bus_lmps, realized = cleared

    rp, dp = deviation_envelopes(committed, realized)
    violations = reserve_and_ramp_check(committed, realized, rp, dp, point_fleet)
    h_total, lambda_w = recovery_rate(committed, rp, dp, point_fleet, run.cost_recovery)
    r_expected, _ = expected_profit(committed, lmps, lambda_w, run.cost_recovery,
                                    point_fleet)
    r_realized, _ = realized_profit(realized, sset.probabilities, lmps, lambda_w,
                                    run.cost_recovery, point_fleet)

    # renewables are paid scenario by scenario at the committed bus prices
    rev_k, cur_k = curtail_and_pay_renewables(
        sset.load.transpose(2, 1, 0), sset.renewable.transpose(2, 1, 0), bus_lmps)

    report = SettlementReport(
        h_total=h_total,
        lambda_w=lambda_w,
        expected_profit=r_expected,
        realized_profit=r_realized,
        deviation_cost=r_expected - r_realized,
        renewable_revenue=float(sum_in_order(sset.probabilities * rev_k)),
        curtailed_mwh=float(sum_in_order(sset.probabilities * cur_k)),
        violations=violations,
    )
    return PointResult(alpha, penetration, committed, realized, lmps, prices,
                       report, point_fleet)


def run_grid(run: RunConfig, diagnostics: list[str] | None = None) -> list[PointResult]:
    """Evaluate every (penetration, alpha) point of the run's grid, penetration-major.

    The fleet is loaded and the loads and weather uniforms are drawn once
    per grid; only the renewable half of the scenarios is built per
    penetration level, and each level's set is shared across the confidence
    levels.  So every point sees the same load array and the same weather
    draw (common random numbers).  With a diagnostics list, a level whose
    renewables cannot be built or a point whose dispatch is infeasible (or
    whose cost H cannot be recovered on zero committed energy) is skipped and
    a message naming its coordinates appended; without one the first failure
    is raised.
    """
    fleet = load_fleet(run.fleet_source)
    if run.line_limit is not None and run.n_buses > len(fleet):
        raise ConfigurationError(f"a feeder of {run.n_buses} buses needs {run.n_buses} "
                                 f"units, but the fleet has {len(fleet)}")
    # the load half reads no penetration, so any level's config draws it
    draws = draw_loads(scenario_config(run, 0.0))
    points = []
    for penetration in run.penetrations:
        try:
            sset = build_scenarios(scenario_config(run, penetration), draws)
        except ConfigurationError as exc:
            if diagnostics is None:
                raise
            diagnostics.append(f"penetration={penetration}: {exc}")
            continue
        for alpha in run.alphas:
            try:
                points.append(evaluate_point(fleet, run, sset, alpha, penetration))
            except InfeasibleDispatchError as exc:
                if diagnostics is None:
                    raise
                diagnostics.append(f"alpha={alpha}, penetration={penetration}: {exc}")
    return points


def point_row(run: RunConfig, point: PointResult) -> dict:
    """Every column any grid CSV writes; ``emit_csv`` keeps its own."""
    s = point.settlement
    return {
        "run_id": run.seed,
        "alpha": point.alpha,
        "penetration": point.penetration,
        "CR": run.cost_recovery,
        "committed_mw": point.committed_total,
        "price": point.price,
        "H": s.h_total,
        "lambda_w": s.lambda_w,
        "R": s.expected_profit,
        "R_tilde": s.realized_profit,
        "deviation_cost": s.deviation_cost,
        "renewable_revenue": s.renewable_revenue,
        "renewable_profit": s.renewable_revenue,
        "curtailed_mwh": s.curtailed_mwh,
    }


def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.6f}"
    return str(value)


def emit_csv(rows: list[dict], path, columns) -> Path:
    """Write the given columns of each row in a fixed order; byte-deterministic."""
    path = Path(path)
    for row in rows:
        if set(columns) - set(row):
            raise ConfigurationError(f"row schema mismatch: {sorted(row)} vs {list(columns)}")
    with path.open("w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(row[c]) for c in columns) + "\n")
    return path
