"""End-to-end runs on the (penetration, alpha) grid: scenarios -> commitment -> settlement.

``run_grid`` is the one loop over grid points: both sweeps and the
single-point commands are runs of it on differently shaped grids.  It draws
the loads once, builds every level's renewables from one call, and clears
and settles all drawable levels together in ``_evaluate_levels``.  That
routine branches once, on the line limit.  Without one the whole fleet
clears on one bus against the CVaR of the aggregate net load; with one the
first ``n_buses`` units clear on a radial feeder against per-bus and tail
CVaRs.  Either clearing re-dispatches every scenario at its realized net
load with the committed prices held fixed; that re-dispatch reads no alpha,
so it runs once per level over all of a grid's levels, through the kernel
in row blocks of one fixed size, and each alpha costs one ``cvar_rows``
call and one commitment over all levels and hours on either market.  A
block's outputs other than its power are dropped before the next block
runs, so the re-dispatch holds one (L*K*T, n) power array and the
temporaries of one block.  Both markets settle the same
way, each alpha's levels together: every level is settled, a failed
point's rows as zeros, and the figures of a failed point are dropped.  A
run whose load means overflow their bus total is a configuration error.
Each level's net load is formed on its own; one bus keeps only its hourly
aggregates, while the feeder keeps the per-hour bus and tail rows and the
realized rows its kernels read.

A point fails on the first of: its commitment, its level's re-dispatch, an H
that cannot be recovered.  One block loop, ``_by_level``, runs all three
and reports the first failing row of each level's slice, in (scenario, hour)
order across blocks, with the message the kernel raises for it.  A point
that passes them is settled with float overflow allowed, and fails with a
ConfigurationError naming the first of its printed figures that is not
finite.  A skipped level or point names its coordinates
(``penetration=0.3: ...`` or ``alpha=0.9, penetration=0.3: ...``).
``point_row`` turns a point into one CSV row holding every grid column, and
``emit_csv`` writes the columns a file needs (identical config and seed give
identical bytes).

Default experiment shape: three load buses, a reference fleet, and renewable
capacity sized by one of two policies.  ``tracking`` builds just enough
capacity to carry the requested penetration at a fixed site mean share
(suits studies that hold penetration fixed), while ``buildout`` models a
fixed installed base whose utilization grows with penetration, so the
renewable share of capacity, and with it the relative uncertainty, rises as
penetration does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .congestion import RadialGrid, _radial_rows
from .errors import ConfigurationError
from .merit_order import Fleet, _commit_rows, builtin_fleet, fleet_from_csv
from .risk import cvar_rows
from .scenarios import LOAD_Z_MAX, ScenarioConfig, _check_draw, draw_and_build
from .settlement import (SettlementReport, _recovery_rows,
                         curtail_and_pay_renewables, deviation_envelopes, expected_profit,
                         realized_profit, reserve_and_ramp_check, sum_in_order)

DEFAULT_LOAD_MEAN = (232.0, 174.0, 174.0)   # MW per bus
DEFAULT_LOAD_STD_FRAC = 0.06
DEFAULT_UNCERTAINTY_GROWTH = 0.27           # renewable std per MW of capacity
TRACKING_SITE_MEAN_SHARE = 0.85             # mean output fraction of tracked capacity
BUILDOUT_CAPACITY_SLACK = 1.1               # installed capacity over mean load

ALPHA_GRID_DEFAULT = (0.5, 0.6, 0.7, 0.8, 0.9, 0.99)
PENETRATION_GRID_DEFAULT = tuple(round(0.1 * i, 1) for i in range(11))
ALPHA_SWEEP_PENETRATION = 0.009
PENETRATION_SWEEP_ALPHA = 0.95
# rows per call of a clearing kernel in the realized re-dispatch, which holds
# the outputs and temporaries of one block at a time
_BLOCK_ROWS = 8192

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
        # what ScenarioConfig and draw_and_build would reject at every level
        for name, values in (("penetration", self.penetrations),
                             ("load mean", self.load_mean_per_bus),
                             ("load_std_frac", (self.load_std_frac,)),
                             ("uncertainty_growth", (self.uncertainty_growth,))):
            for v in values:
                if not 0.0 <= v < np.inf:
                    raise ConfigurationError(f"{name} {v} must be non-negative and finite")
        # a run sums the load means, their top draws and the renewable
        # capacities over the buses; each quantity is inf where it overflows,
        # and Python floats sum to inf without the warning numpy's sum raises
        # (derive_capacity also rejects an unknown capacity mode)
        mean = np.asarray(self.load_mean_per_bus, dtype=float)
        top = max(self.penetrations)
        with np.errstate(over="ignore"):
            derived = {"bus total": mean,
                       "top draws": mean + LOAD_Z_MAX * (self.load_std_frac * mean),
                       f"renewable capacity at penetration {top:g}":
                           derive_capacity(mean, top, self.capacity_mode)}
        for what, values in derived.items():
            if sum(float(v) for v in values) == np.inf:
                means = ", ".join(format(float(v), "g") for v in self.load_mean_per_bus)
                raise ConfigurationError(f"load means {means} overflow their {what}")
        _check_draw(self)
        if self.line_limit is not None and not 0.0 < self.line_limit < np.inf:
            raise ConfigurationError(f"line_limit must be positive and finite, "
                                     f"got {self.line_limit}")
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


def scenario_config(run: RunConfig) -> ScenarioConfig:
    """The run's load process: every penetration level draws its loads from it."""
    mean_col = np.asarray(run.load_mean_per_bus, dtype=float)[:, None]
    mean = np.repeat(mean_col, run.horizon, axis=1)
    return ScenarioConfig(
        n_buses=run.n_buses,
        horizon=run.horizon,
        n_scenarios=run.n_scenarios,
        seed=run.seed,
        load_mean=mean,
        load_std=run.load_std_frac * mean,
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


def _by_level(clear, n_rows: int, n_levels: int, block: int | None = None):
    """Run ``clear(rows)``, a kernel's unraising form on a slice of the rows,
    over blocks of at most ``block`` rows (one block by default); ``n_rows``
    holds the levels' rows one after another.

    Returns the kernel's output when one block covers every row, else the
    (n_rows, ...) array of the blocks' outputs, each block's temporaries
    dropped before the next block runs; and the error of each level's first
    failing row (None where none fails).
    """
    block = block or n_rows
    width = n_rows // n_levels
    errors = [None] * n_levels
    out = None
    for start in range(0, n_rows, block):
        part, failed, error_at = clear(slice(start, start + block))
        if block >= n_rows:
            out = part
        else:
            if out is None:
                out = np.empty((n_rows,) + part.shape[1:])
            out[start:start + len(part)] = part
        rows = np.flatnonzero(failed)
        levels, first = np.unique((start + rows) // width, return_index=True)
        for level, row in zip(levels, rows[first]):
            if errors[level] is None:
                errors[level] = error_at(int(row))
        del part, failed, error_at
    return out, errors


def _power(cleared):
    """A kernel's unraising result keeping only the power of its batch."""
    batch, failed, error_at = cleared
    return batch.power, failed, error_at


def _clear_bus(fleet: Fleet, load, probabilities, renewable, n_levels: int, alphas):
    """Commit each level's hourly aggregate CVaRs on one bus, then re-dispatch
    every scenario-hour at its realized aggregate clipped into the servable
    range (surplus renewables push it to zero, shortfalls beyond capacity
    are shed).

    Each alpha takes one ``cvar_rows`` and one commitment over the L*T
    hourly aggregates; the re-dispatch reads no alpha, so all levels' rows
    then go through the clearing kernel in blocks of ``_BLOCK_ROWS``.
    Returns, per alpha, the committed power, unit LMPs, the bus prices
    renewables are paid at and each level's commitment error; then the
    realized (L, K, T, n) dispatch and each level's re-dispatch error.
    """
    n_buses, t_len, k_len = load.shape
    agg = np.empty((n_levels, t_len, k_len))  # one aggregate sample per (level, hour)
    for level in range(n_levels):
        agg[level] = (load - renewable(level)).sum(axis=0)
    commitments = []
    for alpha in alphas:
        _, cvars = cvar_rows(agg.reshape(n_levels * t_len, k_len), probabilities, alpha)
        np.maximum(cvars, 0.0, out=cvars)
        batch, errors = _by_level(lambda rows: _commit_rows(fleet, cvars[rows]),
                                  cvars.size, n_levels)
        prices = batch.clearing_price.reshape(n_levels, t_len, 1)
        commitments.append((batch.power.reshape(n_levels, t_len, len(fleet)),
                            np.repeat(prices, len(fleet), axis=-1),
                            np.repeat(prices, n_buses, axis=-1), errors))
    # (L, K, T), scenario-major rows within each level, clipped in place;
    # cleared after the commitments, whose CVaR temporaries would otherwise
    # add to its output
    demands = agg.transpose(0, 2, 1).ravel()
    del agg
    np.minimum(np.maximum(demands, 0.0, out=demands), fleet.total_capacity, out=demands)
    realized, errors = _by_level(lambda rows: _power(_commit_rows(fleet, demands[rows])),
                                 demands.size, n_levels, _BLOCK_ROWS)
    return (commitments, realized.reshape(n_levels, k_len, t_len, len(fleet)), errors)


def _tail_sums(rows) -> np.ndarray:
    """Each row's sums from every bus to the last, built with one add per bus
    going back from the last bus: the additions, in the same order, of
    ``np.cumsum(rows[:, ::-1], axis=1)[:, ::-1]``, which numpy runs row by
    row over the short bus axis.
    """
    tails = np.array(rows, dtype=float)  # the last bus is its own tail
    for i in range(tails.shape[1] - 2, -1, -1):
        tails[:, i] += tails[:, i + 1]
    return tails


def _clear_feeder(fleet: Fleet, grid: RadialGrid, load, probabilities, renewable,
                  n_levels: int, alphas):
    """Commit each level's hourly per-bus and tail CVaRs on the feeder, then
    dispatch every scenario-hour at its realized net loads; a level's first
    infeasible row in (scenario, hour) order is its error.

    The requirement rows are level-major, (L, T, 2n, K): each hour's n bus
    rows and then its n tails.  Each alpha takes one ``cvar_rows`` over all
    of them, whose (L*T, 2n) output is the feeder dispatch's input as it
    stands; the re-dispatch reads no alpha, so all levels' rows go through
    ``_radial_rows`` in blocks of ``_BLOCK_ROWS``, each block's tails summed
    as it runs by ``_tail_sums``, one add per bus from the last bus back.
    Bus prices are built from the balancing bus only where they are read:
    the commitment's L*T rows per alpha, never a re-dispatch block, which
    keeps its power alone.  Returns what ``_clear_bus`` does, with the unit
    LMPs as bus prices.
    """
    n = grid.n_buses
    _, t_len, k_len = load.shape
    requirements = np.empty((n_levels, t_len, 2 * n, k_len))
    rows = np.empty((n_levels, k_len * t_len, n))  # one per scenario-hour, (k, t) order
    for level in range(n_levels):
        net = load - renewable(level)  # (buses, T, K)
        own = requirements[level]
        own[:, :n] = net.transpose(1, 0, 2)
        for i in range(n):
            # the tails are summed forward from each bus; the reversed cumsum
            # used for the realized rows below rounds differently
            own[:, n + i] = net[i:].sum(axis=0)
        rows[level] = net.transpose(2, 1, 0).reshape(k_len * t_len, n)
    del net, own
    commitments = []
    for alpha in alphas:
        # cvar_rows sorts the rows in blocks of a fixed size, so its
        # temporaries do not grow with the grid
        _, cvars = cvar_rows(requirements.reshape(-1, k_len), probabilities, alpha)
        cvars = cvars.reshape(n_levels * t_len, 2 * n)
        batch, errors = _by_level(
            lambda r: _radial_rows(grid, fleet, cvars[r, :n], cvars[r, n:]),
            len(cvars), n_levels)
        lmps = batch.lmps.reshape(n_levels, t_len, n)
        commitments.append((batch.power.reshape(n_levels, t_len, n), lmps, lmps, errors))
    del requirements  # freed before the re-dispatch allocates its outputs
    rows = rows.reshape(n_levels * k_len * t_len, n)
    realized, errors = _by_level(
        lambda r: _power(_radial_rows(grid, fleet, rows[r], _tail_sums(rows[r]))),
        len(rows), n_levels, _BLOCK_ROWS)
    return commitments, realized.reshape(n_levels, k_len, t_len, n), errors


def _evaluate_levels(fleet: Fleet, run: RunConfig, load, probabilities, renewable,
                     penetrations, alphas) -> list:
    """Commit, re-dispatch and settle every (penetration, alpha) point at once.

    ``load`` is the (n_buses, T, K) load every level shares, and
    ``renewable(l)`` builds level l's renewables.  The one branch on the
    line limit picks the units and the clearing: the whole fleet on one bus,
    or the first ``n_buses`` units on the feeder.  Each alpha takes the
    envelopes, H and the expected profits of all its levels at once, then
    settles each level that did not fail in one pass; a point's price is the
    maximum of its unit LMPs.  Returns, penetration-major, each point's
    PointResult or its error: the commitment's, else the re-dispatch's, else
    the InfeasibleDispatchError for an H that cannot be recovered, else the
    ConfigurationError naming the first ``point_row`` figure that is not
    finite.
    """
    n_levels, n_alphas = len(penetrations), len(alphas)
    if run.line_limit is None:
        point_fleet = fleet
        cleared = _clear_bus(fleet, load, probabilities, renewable, n_levels, alphas)
    else:
        point_fleet = fleet.head(run.n_buses)
        grid = RadialGrid(run.n_buses, run.line_limit)
        cleared = _clear_feeder(point_fleet, grid, load, probabilities, renewable,
                                n_levels, alphas)
    commitments, realized, realized_errors = cleared
    # a failed level's rows mean nothing and can be too large to settle
    # without overflow, so they are settled as zeros and its figures dropped
    for level, error in enumerate(realized_errors):
        if error is not None:
            realized[level] = 0.0

    # per-hour bus totals, summed once for every point's payment over unit-stride
    # rows, as a per-trajectory row.sum() rounds them
    load_totals = np.ascontiguousarray(load.transpose(2, 1, 0)).sum(axis=-1)
    points = [None] * (n_levels * n_alphas)
    # prices, costs or outputs near the float maximum can overflow any figure
    # of a settled point, which then fails on the check below
    with np.errstate(over="ignore", invalid="ignore"):
        for a, (committed, lmps, bus_lmps, errors) in enumerate(commitments):
            for level, error in enumerate(errors):
                if error is not None:
                    committed[level] = 0.0
            rp, dp = deviation_envelopes(committed, realized)
            (h_total, lambda_w), recovery_errors = _by_level(
                lambda r: _recovery_rows(committed[r], rp[r], dp[r], point_fleet,
                                         run.cost_recovery),
                n_levels, n_levels)
            r_expected = expected_profit(committed, lmps, point_fleet)
            for level in range(n_levels):
                error = errors[level] or realized_errors[level] or recovery_errors[level]
                if error is not None:
                    points[level * n_alphas + a] = error
                    continue
                r_realized = realized_profit(realized[level], probabilities, lmps[level],
                                             point_fleet)
                # checked before the payment: in the other order the allocator
                # leaves a single-bus settle about 1.3 MB higher at its peak
                violations = reserve_and_ramp_check(committed[level], realized[level],
                                                    rp[level], dp[level], point_fleet)
                # renewables are paid scenario by scenario at the committed bus prices
                rev_k, cur_k = curtail_and_pay_renewables(
                    load_totals, renewable(level).transpose(2, 1, 0), bus_lmps[level])
                report = SettlementReport(
                    float(h_total[level]), float(lambda_w[level]), float(r_expected[level]),
                    r_realized, float(r_expected[level]) - r_realized,
                    float(sum_in_order(probabilities * rev_k)),
                    float(sum_in_order(probabilities * cur_k)), violations)
                point = PointResult(
                    alphas[a], penetrations[level], committed[level], realized[level],
                    lmps[level], lmps[level].max(axis=-1), report, point_fleet)
                overflowed = [(name, value) for name, value in point_row(run, point).items()
                              if not math.isfinite(value)]
                if overflowed:
                    name, value = overflowed[0]
                    point = ConfigurationError(f"{name} is {value}: the point's figures "
                                               "overflow the float range")
                points[level * n_alphas + a] = point
    return points


def run_grid(run: RunConfig, diagnostics: list[str] | None = None) -> list[PointResult]:
    """Evaluate every (penetration, alpha) point of the run's grid, penetration-major.

    The fleet is loaded, and one ``draw_and_build`` call draws the loads and
    weather uniforms once per grid and builds every level's renewables on
    them, the load quantiles running while threads run the renewables'
    Beta quantiles, so every point sees the same load array and the same
    weather draw (common random numbers).  All levels are then cleared and
    settled together.
    With a diagnostics list, a level whose renewables cannot be built or a
    point whose dispatch is infeasible (or whose cost H cannot be recovered
    on zero committed energy) is skipped and a message naming its
    coordinates appended; without one the first failure is raised.
    """
    fleet = load_fleet(run.fleet_source)
    if run.line_limit is not None and run.n_buses > len(fleet):
        raise ConfigurationError(f"a feeder of {run.n_buses} buses needs {run.n_buses} "
                                 f"units, but the fleet has {len(fleet)}")
    scenarios = draw_and_build(scenario_config(run), run.penetrations,
                               [derive_capacity(run.load_mean_per_bus, penetration,
                                                run.capacity_mode)
                                for penetration in run.penetrations],
                               run.uncertainty_growth)
    kept = [level for level, error in enumerate(scenarios.errors) if error is None]
    outcomes = iter(_evaluate_levels(
        fleet, run, scenarios.load, scenarios.probabilities,
        lambda i: scenarios.renewable(kept[i]),
        [run.penetrations[level] for level in kept], run.alphas) if kept else [])

    def skip(where: str, exc: Exception) -> None:
        if diagnostics is None:
            raise exc
        diagnostics.append(f"{where}: {exc}")

    points = []
    for penetration, error in zip(run.penetrations, scenarios.errors):
        if error is not None:
            skip(f"penetration={penetration}", ConfigurationError(error))
            continue
        for alpha in run.alphas:
            point = next(outcomes)
            if isinstance(point, PointResult):
                points.append(point)
            else:
                skip(f"alpha={alpha}, penetration={penetration}", point)
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
