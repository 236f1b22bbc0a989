"""Post-dispatch economics: reserves, cost recovery, profits and curtailment.

Commitment happens day-ahead at the clearing prices; scenarios realize a
different net load, so generators actually sell the re-dispatched quantity
at the committed price.  The gap between the profit they planned on and the
scenario-expected profit they get is the deviation cost.

Cost recovery: H sums the no-load and start-up costs of the unit-hours with
positive committed output and the reserve and ramp costs of every unit-hour,
so a unit the re-dispatch runs while it is not committed adds its ramp
envelope to H.  With recovery enabled the per-MWh uplift is H over the total
committed energy, without it the uplift is zero; a point with H > 0 and no
committed energy cannot be recovered and raises InfeasibleDispatchError.
A start is hot when the unit was online two hours before (so after exactly
one offline hour), cold otherwise; every unit enters the horizon as if it
was online two hours before and offline one hour before, so a start in
hour 0 is hot.  Reserve costs RESERVE_RATE $/MW per hour of reserve envelope
and ramp RAMP_RATE $ per MW/h of ramp envelope.

Both profits price energy at the committed LMP less the unit's ask, and
neither includes the uplift: lambda_w is the per-MWh charge that recovers H
from consumers, not a generator's income or cost, so the recovery mode
changes lambda_w and no profit.  Both profits are the fleet's
totals; no per-unit breakdown is kept.

The envelopes, the reserve and ramp check and both profits take any
leading point axes as well, broadcast against each other: (A, L, T,
n_units) commitments, prices and envelopes and (L, K, T, n_units) realized
power give one result per (alpha, level) point, each the same bits (or
texts) as that point's own call, so a grid settles all its points in one
call of each and reduces the realized power over scenarios once.

Both profits and the renewable payment read their arrays in C order, so
the same values in another memory layout give the same bits; only the
payment's ``renewables`` keep the caller's layout (see
``curtail_and_pay_renewables``).

The envelopes, the reserve and ramp check, H, both profits and the
renewable payment raise ValueError naming an array argument
(``load_totals must be finite``) when one of its entries is NaN or infinite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleDispatchError
from .merit_order import Fleet

RESERVE_RATE = 15.0   # $/MW per hour of reserve held
RAMP_RATE = 5.0       # $ per MW/h of ramp envelope


@dataclass(frozen=True)
class SettlementReport:
    h_total: float                 # $, recoverable costs (see the module docstring)
    lambda_w: float                # $/MWh uplift
    expected_profit: float         # $, profit at commitment
    realized_profit: float         # $, scenario-expected profit actually made
    deviation_cost: float          # $, expected_profit - realized_profit (signed)
    renewable_revenue: float       # $, scenario-expected renewable payment
    curtailed_mwh: float           # MWh, scenario-expected curtailed energy
    violations: list[str] = field(default_factory=list)


def _reject_non_finite(**arrays) -> None:
    """Raise ValueError naming the first of ``arrays`` with a NaN or infinite entry."""
    for name, values in arrays.items():
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite")


def sum_in_order(values, axis: int = -1):
    """Sum along ``axis`` left to right from 0.0, rounding as a ``+=`` loop does
    (``np.sum`` adds pairwise); a scalar for a vector, else an array.
    """
    values = np.moveaxis(np.asarray(values, dtype=float), axis, 0)
    zero = np.zeros((1,) + values.shape[1:])
    return np.cumsum(np.concatenate((zero, values)), axis=0)[-1]


def sum_rows(values):
    """Sum along the last axis with the bits of
    ``np.ascontiguousarray(values).sum(axis=-1)``: numpy adds a unit-stride
    row of fewer than 8 entries in order from 0.0 (one reduction call per
    row), so a shorter axis is summed with one vector add per entry, reading
    ``values`` where it lies; a longer axis keeps numpy's pairwise sums over
    a unit-stride copy.
    """
    if not 0 < values.shape[-1] < 8:
        return np.ascontiguousarray(values).sum(axis=-1)
    total = np.zeros_like(values[..., 0])  # in the layout of the entries it adds
    for column in np.moveaxis(values, -1, 0):
        total += column
    return total


def deviation_envelopes(committed: np.ndarray,
                        realized: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tight reserve and ramp envelopes over scenarios.

    committed: (T, n_units); realized: (K, T, n_units).  Leading point axes
    on either broadcast against each other, so (A, L, T, n_units) and
    (L, K, T, n_units) give (A, L, T, n_units) envelopes, point by point.
    Reserve envelope per (t, i): largest downward deviation from commitment.
    Ramp envelope per (t, i): largest |output step| between consecutive hours
    over all scenario pairs (the last hour has no successor, envelope 0).
    """
    _reject_non_finite(committed=committed)
    committed = np.asarray(committed, dtype=float)
    realized = np.asarray(realized, dtype=float)
    lo, hi = realized.min(axis=-3), realized.max(axis=-3)
    # min and max carry a NaN and an infinity reaches one of them, so the
    # envelope edges are finite exactly when every realized entry is
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("realized must be finite")
    # rounded subtraction is monotone, so the largest committed - realized is
    # committed - lo
    rp = np.maximum(committed - lo, 0.0)

    # worst swing over scenario pairs (k, k') is between the envelope edges
    # of hour t and hour t + 1
    dp = np.zeros_like(committed)
    dp[..., :-1, :] = np.maximum(np.maximum(hi[..., :-1, :] - lo[..., 1:, :],
                                            hi[..., 1:, :] - lo[..., :-1, :]), 0.0)
    return rp, dp


def reserve_and_ramp_check(committed: np.ndarray, realized: np.ndarray,
                           rp: np.ndarray, dp: np.ndarray, fleet: Fleet,
                           served=True) -> list:
    """Diagnostics for the reserve and ramp feasibility of a commitment.

    Deviations must be non-negative (no scenario sells above commitment), the
    tight reserve envelope ``rp`` must fit under each unit's reserve cap, and
    the worst cross-scenario hourly swing ``dp`` under its ramp cap (both as
    ``deviation_envelopes`` returns them).  committed, rp and dp are
    (T, n_units) and realized (K, T, n_units), for one list of texts: the
    sale above commitment first, then each unit's reserve and then its ramp
    text.  Leading point axes that broadcast against ``realized``'s, such
    as (A, L, T, n_units) commitments against (L, K, T, n_units) realized
    power, give nested lists shaped like those axes, one list per point.
    ``served`` masks the points to check, broadcast against those axes: a
    point outside it gets no text.
    """
    _reject_non_finite(committed=committed, realized=realized, rp=rp, dp=dp)
    committed, realized, rp, dp = (np.asarray(x, dtype=float)
                                   for x in (committed, realized, rp, dp))
    units = fleet.generators
    lead = np.broadcast_shapes(committed.shape[:-2], realized.shape[:-3],
                               rp.shape[:-2], dp.shape[:-2])
    served = np.broadcast_to(served, lead)
    # rounded subtraction is monotone, so the smallest committed - realized of
    # each (t, i) is committed - the largest realized, taken once over
    # realized's own points
    worst = np.broadcast_to(committed - realized.max(axis=-3), lead + committed.shape[-2:])
    sells = served & (worst.min(axis=(-2, -1)) < -1e-9)
    worst_rp, worst_dp = (np.broadcast_to(np.max(x, axis=-2, initial=0.0),
                                          lead + x.shape[-1:]) for x in (rp, dp))
    over_rp = served[..., None] & (worst_rp > np.array([g.rp_max for g in units]) + 1e-9)
    over_dp = served[..., None] & (worst_dp > np.array([g.ramp_max for g in units]) + 1e-9)
    committed, realized, dp = (np.broadcast_to(x, lead + x.shape[-k:])
                               for x, k in ((committed, 2), (realized, 3), (dp, 2)))
    # a fresh list per point, in an array even for no point axes
    violations = np.frompyfunc(lambda _: [], 1, 1)(np.empty(lead + (1,)))[..., 0]
    for point in map(tuple, np.argwhere(sells)):
        # the first smallest committed - realized in (k, t, i) order lies in a
        # (t, i) of the smallest worst sale, so only those cells' deviations
        # are built, k-major: their first smallest is that one
        t, i = np.nonzero(worst[point] == worst[point].min())
        deviations = committed[point][t, i] - realized[point][:, t, i]
        k, cell = divmod(int(deviations.argmin()), t.size)
        t, i = t[cell], i[cell]
        violations[point].append(
            f"scenario {k}, hour {t}: unit {units[i].name} sells "
            f"{realized[point][k, t, i]:.6g} MW above its commitment "
            f"{committed[point][t, i]:.6g}")
    # (point, unit) pairs in row-major order: each point's units in fleet order
    for *point, i in np.argwhere(over_rp | over_dp):
        point, g = tuple(point), units[i]
        if over_rp[point][i]:
            violations[point].append(f"unit {g.name}: needed reserve "
                                     f"{worst_rp[point][i]:.6g} MW exceeds cap {g.rp_max:.6g}")
        if over_dp[point][i]:
            t = int(dp[point][:, i].argmax())
            violations[point].append(
                f"unit {g.name}: hour {t} worst scenario-pair swing {worst_dp[point][i]:.6g} "
                f"MW/h exceeds ramp cap {g.ramp_max:.6g}")
    return violations.tolist()


def _recovery_rows(committed, rp, dp, fleet: Fleet, cost_recovery: int):
    """Recoverable cost H and the per-MWh uplift of each level of ``committed``
    (L, T, n_units), with the envelopes ``rp`` and ``dp`` of the same shape.

    H adds, left to right and hour by hour, each unit's no-load and then
    start-up cost where it is committed, then the hour's reserve and then
    its ramp cost (see the module docstring).  With ``cost_recovery`` 1 the
    uplift is H over the level's committed energy, with 0 it is zero.
    Returns the per-level H and uplift (0 where H cannot be recovered), the
    mask of the levels whose H cannot be recovered and a function giving
    level r's InfeasibleDispatchError, so a grid skips such a point as it
    skips an infeasible dispatch.
    """
    if cost_recovery not in (0, 1):
        raise ValueError("cost_recovery must be 0 or 1")
    _reject_non_finite(committed=committed, rp=rp, dp=dp)
    committed = np.asarray(committed, dtype=float)
    n_levels, t_len, n = committed.shape
    online = committed > 0.0
    # two hours before the horizon, online then offline, so an hour-0 start is
    # hot; a start is hot iff the unit was online two hours before
    padded = np.concatenate((np.ones((n_levels, 1, n), bool),
                             np.zeros((n_levels, 1, n), bool), online), axis=1)
    start = online & ~padded[:, 1:-1]
    units = fleet.generators
    start_cost = np.where(padded[:, :-2], [g.start_cost_hot for g in units],
                          [g.start_cost_cold for g in units])
    unit_terms = np.stack((np.where(online, [g.no_load_cost for g in units], 0.0),
                           np.where(start, start_cost, 0.0)), axis=-1)
    # unit-stride rows, so each row sum rounds like that row's own .sum()
    reserve = RESERVE_RATE * np.ascontiguousarray(rp, dtype=float).sum(axis=-1)
    ramp = RAMP_RATE * np.ascontiguousarray(dp, dtype=float).sum(axis=-1)
    terms = np.concatenate((unit_terms.reshape(n_levels, t_len, 2 * n),
                            reserve[..., None], ramp[..., None]), axis=-1)
    h_total = sum_in_order(terms.reshape(n_levels, -1))

    # each level's energy summed as its own (T, n) array's .sum() is
    energy = np.ascontiguousarray(committed).reshape(n_levels, -1).sum(axis=1)
    carried = (energy > 0.0) & (cost_recovery == 1)
    lambda_w = np.divide(h_total, energy, out=np.zeros(n_levels), where=carried)
    failed = (cost_recovery == 1) & (energy <= 0.0) & (h_total > 0.0)
    return (h_total, lambda_w), failed, lambda r: InfeasibleDispatchError(
        f"cost recovery requested but no committed energy to carry H = {h_total[r]:.6g}")


def expected_profit(committed: np.ndarray, lmps: np.ndarray, fleet: Fleet):
    """Profit the fleet would make if the committed power were sold as planned.

    Returns the fleet's total, summed over hours per unit and then over
    units: a float for (T, n_units) input, and an array of one total per
    point with leading point axes on ``committed`` and ``lmps``, broadcast
    against each other.
    """
    _reject_non_finite(committed=committed, lmps=lmps)
    committed = np.ascontiguousarray(committed, dtype=float)
    prices = np.ascontiguousarray(lmps, dtype=float)
    total = (committed * prices - committed * fleet.ask_prices).sum(axis=-2).sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def realized_profit(realized: np.ndarray, probabilities, lmps: np.ndarray,
                    fleet: Fleet) -> float | np.ndarray:
    """Scenario-expected profit on the power actually sold at committed prices:
    the fleet's total, summed over scenarios and hours per unit and then
    over units.  A float for (K, T, n_units) ``realized`` and (T, n_units)
    ``lmps``; leading point axes on either, broadcast against each other,
    give an array of one total per point, each with the bits of its own
    call.
    """
    _reject_non_finite(realized=realized, lmps=lmps)
    realized = np.ascontiguousarray(realized, dtype=float)
    psi = np.asarray(probabilities, dtype=float)
    if (not np.all(np.isfinite(psi)) or abs(psi.sum() - 1.0) > 1e-9
            or np.any(psi < 0.0)):
        raise ValueError("scenario probabilities must be finite, non-negative and sum to 1")
    margin = np.ascontiguousarray(lmps, dtype=float) - fleet.ask_prices
    total = np.einsum("k,...kti->...i", psi, realized * margin[..., None, :, :]).sum(axis=-1)
    return float(total) if total.ndim == 0 else total


def curtail_and_pay_renewables(load_totals: np.ndarray, renewables: np.ndarray,
                               lmps: np.ndarray):
    """Renewable payment and curtailed energy per scenario trajectory.

    load_totals is the per-hour bus total of the load, (T,) for one
    trajectory or (K, T) for K of them; renewables is (T, n_buses) or
    (K, T, n_buses) and lmps is (T, n_buses).  Per hour: when total
    renewable output exceeds the total load, only the load is paid for,
    shared across units in proportion to their output, and the excess is
    curtailed; otherwise all output earns its bus price.  Hours are
    accumulated in order from 0.0.  Returns two floats for one trajectory
    and two (K,) arrays for a stack.

    ``lmps`` may come in any memory layout, a grid's gathered bus prices
    Fortran-ordered among them.  The full payment rounds over the caller's
    rows of ``renewables``, as a per-trajectory reference does, so the same
    renewables in another layout can round differently.
    """
    _reject_non_finite(load_totals=load_totals, renewables=renewables, lmps=lmps)
    renewables = np.asarray(renewables, dtype=float)
    lmps = np.ascontiguousarray(lmps, dtype=float)
    # round each hour as a per-hour loop (row.sum(), lmps[t] @ row) does: bus
    # sums as over unit-stride rows (sum_rows); the full payment over the
    # caller's rows and the curtailed one over fresh unit-stride rows, because
    # dot rounds by stride.  That copy is made only where some hour curtails,
    # unless the bus sums already need it
    rows = np.array(renewables, order="C") if renewables.shape[-1] >= 8 else None
    total_out = sum_rows(renewables if rows is None else rows)
    over = total_out > load_totals  # so total_out > 0 there
    hourly = np.vecdot(lmps, renewables)
    if over.any():
        rows = np.array(renewables, order="C") if rows is None else rows  # scaled in place
        scale = np.divide(load_totals, total_out, out=np.zeros_like(total_out), where=over)
        np.multiply(rows, scale[..., None], out=rows, where=over[..., None])
        np.copyto(hourly, np.vecdot(lmps, rows), where=over)
    del rows  # the scaled copy is freed before the sums allocate theirs
    revenue = sum_in_order(hourly)
    curtailed = sum_in_order(np.where(over, total_out - load_totals, 0.0))
    if renewables.ndim == 2:
        return float(revenue), float(curtailed)
    return revenue, curtailed
