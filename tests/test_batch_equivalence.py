"""Batched kernels against per-row reference loops, compared bit for bit.

Each reference below is the scalar loop the batched code replaced, written
out here so the comparison does not depend on the package: the closed-form
commitment one demand at a time, the feeder recursion one requirement row
at a time and its re-dispatch one scenario-hour at a time, scenario draws
one (bus, hour) at a time, the renewable payment one scenario and one hour
at a time, the ramp envelope one hour pair at a time, the recoverable cost
one (hour, unit) at a time, the reserve and ramp texts one unit at a time,
the realized profit one level at a time, the in-order sum one term at a time, VaR and
CVaR one merged sample at a time, and a grid one penetration level at a
time (each level's renewables hour by hour, each point cleared and settled
on its own).  The scenario quantiles, computed
with scipy.special, are compared with the scipy.stats functions they
replaced.  The reserve envelope is compared with the clamped deviation
array it replaced, and a grid's re-dispatch in small row blocks with the
same re-dispatch in one block.  Levels large enough that their Beta
quantiles run in row blocks on threads are compared hour by hour too.  Each
alpha's commitment record is compared with ``cvar_rows`` on each level's
own draw.
"""

import dataclasses

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings, strategies as st
from scipy import special, stats

import oracles
from gridclear import experiment, risk, scenarios
from gridclear import (ConfigurationError, Fleet, GeneratorSpec,
                       InfeasibleDispatchError, PointResult, RadialGrid, Regime, RunConfig,
                       ScenarioConfig, builtin_fleet, commit, commit_batch,
                       curtail_and_pay_renewables, cvar_rows,
                       deviation_envelopes, dispatch_radial, dispatch_radial_batch,
                       expected_profit, load_fleet, realized_profit, reserve_and_ramp_check,
                       run_grid, scenario_config)
from gridclear.cli import main
from gridclear.congestion import _radial_rows
from gridclear.experiment import _tail_sums, derive_capacity
from gridclear.merit_order import _commit_rows
from gridclear.scenarios import draw_and_build
from gridclear.settlement import RAMP_RATE, RESERVE_RATE, sum_in_order, sum_rows

from test_settlement import recovery_rate

# ---------------------------------------------------------------------------
# references


def reference_commit(fleet, demand):
    """Scalar closed-form commitment: (power, price, regime, marginal)."""
    demand = float(demand)
    asks, p_min, p_max = fleet.ask_prices, fleet.p_mins, fleet.p_maxs
    n = len(fleet)
    bounds = (float(p_min.min()), float(p_max.sum()))

    def fail(message):
        return InfeasibleDispatchError(message)

    if not np.isfinite(demand):
        raise fail(f"demand {demand} MW must be finite")
    if demand < 0.0 or demand > bounds[1] + 1e-9:
        raise fail(f"demand {demand:.6g} MW outside the servable range [0, {bounds[1]:.6g}]")
    power = np.zeros(n)
    if demand == 0.0:
        return power, float(asks[0]), Regime.INTERIOR, 0
    if demand < p_min[0]:
        for i in range(n):
            if p_min[i] <= demand < p_max[i]:
                power[i] = demand
                return power, float(asks[i]), Regime.SMALL_DEMAND, i
        raise fail(f"no single unit can carry the sub-minimum demand {demand:.6g} MW")
    prefix = np.concatenate(([0.0], np.cumsum(p_max)))
    k = min(int(np.searchsorted(prefix[1:], demand, side="left")), n - 1)
    residual = demand - prefix[k]
    if residual >= p_min[k]:
        power[:k] = p_max[:k]
        power[k] = residual
        return power, float(asks[k]), Regime.INTERIOR, k
    backdown = demand - prefix[k - 1] - p_min[k]
    if not p_min[k - 1] < backdown < p_max[k - 1]:
        raise fail(f"back-down target {backdown:.6g} MW outside unit {k - 1}'s box "
                   f"[{p_min[k - 1]:.6g}, {p_max[k - 1]:.6g}]; "
                   f"adjustable-range assumption violated")
    power[:k - 1] = p_max[:k - 1]
    power[k - 1] = backdown
    power[k] = p_min[k]
    return power, float(asks[k - 1]), Regime.BELOW_PMIN, k - 1


def reference_scenarios(config, penetration, cap, growth):
    """Scenario draws one (bus, hour) at a time, one Beta quantile per bus."""
    n, t_len, k = config.n_buses, config.horizon, config.n_scenarios
    rng = np.random.default_rng(config.seed)
    u_load = rng.random((k, n, t_len))
    u_weather = rng.random((k, t_len))
    load = np.empty((n, t_len, k))
    for i in range(n):
        for t in range(t_len):
            m, s = config.load_mean[i, t], config.load_std[i, t]
            if s <= 1e-9 * max(m, 1.0):
                load[i, t, :] = m
            else:
                load[i, t, :] = stats.truncnorm.ppf(u_load[:, i, t], (0.0 - m) / s, np.inf,
                                                    loc=m, scale=s)
    renewable = np.zeros((n, t_len, k))
    for t in range(t_len):
        target = penetration * config.load_mean[:, t].sum()
        if target <= 0.0:
            continue
        mu = min(target / cap.sum(), 1.0)
        for i in range(n):
            w = cap[i]
            if w <= 0.0:
                continue
            if mu >= 1.0 - 1e-12:
                renewable[i, t, :] = w
                continue
            sigma_hat = min(growth, 0.95 * np.sqrt(mu * (1.0 - mu)))
            if sigma_hat <= 1e-9:
                renewable[i, t, :] = mu * w
                continue
            ratio = mu * (1.0 - mu) / (sigma_hat * sigma_hat) - 1.0
            renewable[i, t, :] = w * stats.beta.ppf(u_weather[:, t], mu * ratio,
                                                    (1.0 - mu) * ratio)
    np.clip(renewable, 0.0, cap[:, None, None], out=renewable)
    return load, renewable


def reference_payment(loads, renewables, lmps):
    """Renewable payment and curtailment of one (T, n) trajectory, hour by hour."""
    revenue = 0.0
    curtailed = 0.0
    for t in range(loads.shape[0]):
        total_out = renewables[t].sum()
        total_load = loads[t].sum()
        if total_out > total_load:
            scale = total_load / total_out if total_out > 0.0 else 0.0
            revenue += float(lmps[t] @ (renewables[t] * scale))
            curtailed += float(total_out - total_load)
        else:
            revenue += float(lmps[t] @ renewables[t])
    return revenue, curtailed


def reference_dispatch_radial(grid, fleet, per_bus_cvars, suffix_cvars):
    """Scalar feeder recursion: (power, lmps, local, tail, balancing bus or None)."""
    per_bus = np.asarray(per_bus_cvars, dtype=float)
    suffix = np.asarray(suffix_cvars, dtype=float)
    n = grid.n_buses
    p_bar = grid.line_limit
    if len(fleet) != n or per_bus.shape != (n,) or suffix.shape != (n,):
        raise InfeasibleDispatchError(
            f"need one generator and one requirement pair per bus ({n})")
    violations = []
    for i, g in enumerate(fleet.generators):
        if g.p_min != 0.0:
            violations.append(f"bus {i}: generator minimum must be 0, got {g.p_min}")
        if suffix[i] > g.p_max + 1e-9:
            violations.append(f"bus {i}: tail requirement {suffix[i]:.6g} MW exceeds "
                              f"generator capacity {g.p_max:.6g}")
    if violations:
        raise InfeasibleDispatchError("; ".join(violations))

    asks = fleet.ask_prices
    p_maxs = fleet.p_maxs
    congested = suffix[0] > per_bus[0] + p_bar
    lmps = np.full(n, asks[0])
    balancing = None
    if congested:
        for j in range(1, n):
            tail_next = suffix[j + 1] if j + 1 < n else 0.0
            if suffix[j] > p_bar and tail_next <= p_bar:
                balancing = j
                break
        else:
            raise InfeasibleDispatchError("congested feeder without a balancing bus; "
                                          "tail requirements inconsistent")
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
        if pg > p_maxs[i] + 1e-9:
            raise InfeasibleDispatchError(
                f"bus {i}: required output {pg:.6g} MW exceeds capacity {p_maxs[i]:.6g}")
        power[i] = pg
        if i + 1 < n:
            if pg >= p_hat_tail - 1e-12:
                p_hat, p_hat_tail = 0.0, 0.0
            else:
                p_hat = per_bus[i + 1] - p_bar
                p_hat_tail = p_hat_tail - pg
    return power, lmps, local_ledger, tail_ledger, balancing


def reference_feeder_point(fleet, grid, load, renewable, probs, alpha):
    """The feeder commitment hour by hour and its re-dispatch scenario-hour by scenario-hour."""
    n, t_len, k_len = load.shape
    net = load - renewable
    committed = np.zeros((t_len, n))
    lmps = np.zeros((t_len, n))
    prices = np.zeros(t_len)
    for t in range(t_len):
        per_bus = [oracles.cvar(net[i, t], probs, alpha) for i in range(n)]
        suffix = [oracles.cvar(np.sum(net[i:, t], axis=0), probs, alpha) for i in range(n)]
        power, bus_lmps, *_ = reference_dispatch_radial(grid, fleet, per_bus, suffix)
        committed[t] = power
        lmps[t] = bus_lmps
        prices[t] = bus_lmps.max()
    realized = np.zeros((k_len, t_len, n))
    for k in range(k_len):
        for t in range(t_len):
            per_bus = net[:, t, k]
            suffix = np.cumsum(per_bus[::-1])[::-1]
            realized[k, t] = reference_dispatch_radial(grid, fleet, per_bus, suffix)[0]
    return committed, lmps, prices, realized


def reference_envelopes(committed, realized):
    """Reserve and ramp envelopes, the ramp one hour pair at a time."""
    rp = np.maximum(committed[None, :, :] - realized, 0.0).max(axis=0)
    dp = np.zeros_like(committed)
    for t in range(committed.shape[0] - 1):
        lo_now, hi_now = realized[:, t, :].min(axis=0), realized[:, t, :].max(axis=0)
        lo_nxt, hi_nxt = realized[:, t + 1, :].min(axis=0), realized[:, t + 1, :].max(axis=0)
        dp[t] = np.maximum(hi_now - lo_nxt, hi_nxt - lo_now)
        dp[t] = np.maximum(dp[t], 0.0)
    return rp, dp


def reference_recovery(committed, rp, dp, fleet, cost_recovery):
    """Recoverable cost H and uplift, one (hour, unit) at a time.

    A unit's offline run counts the hours since it was last online; every
    unit enters the horizon one hour offline, and a start after at most one
    offline hour is hot.
    """
    t_len, n = committed.shape
    h_total = 0.0
    offline_run = np.full(n, 1)
    for t in range(t_len):
        for i, g in enumerate(fleet.generators):
            if committed[t, i] > 0.0:
                h_total += g.no_load_cost
                if offline_run[i] > 0:
                    h_total += g.start_cost_hot if offline_run[i] <= 1 else g.start_cost_cold
                offline_run[i] = 0
            else:
                offline_run[i] += 1
        h_total += RESERVE_RATE * rp[t].sum()
        h_total += RAMP_RATE * dp[t].sum()
    if cost_recovery == 0:
        return h_total, 0.0
    energy = committed.sum()
    if energy <= 0.0:
        if h_total > 0.0:
            raise ValueError("no committed energy")
        return h_total, 0.0
    return h_total, h_total / energy


def reference_reserve_check(committed, realized, rp, dp, fleet):
    """One level's reserve and ramp texts, one unit at a time: the sale above
    commitment, then each unit's reserve and then its ramp text."""
    violations = []
    delta = committed[None, :, :] - realized
    if delta.min() < -1e-9:
        k, t, i = np.unravel_index(int(delta.argmin()), delta.shape)
        violations.append(
            f"scenario {k}, hour {t}: unit {fleet.generators[i].name} sells "
            f"{realized[k, t, i]:.6g} MW above its commitment {committed[t, i]:.6g}")
    for i, g in enumerate(fleet.generators):
        worst_rp = rp[:, i].max(initial=0.0)
        if worst_rp > g.rp_max + 1e-9:
            violations.append(f"unit {g.name}: needed reserve {worst_rp:.6g} MW "
                              f"exceeds cap {g.rp_max:.6g}")
        worst_dp = dp[:, i].max(initial=0.0)
        if worst_dp > g.ramp_max + 1e-9:
            t = int(dp[:, i].argmax())
            violations.append(f"unit {g.name}: hour {t} worst scenario-pair swing "
                              f"{worst_dp:.6g} MW/h exceeds ramp cap {g.ramp_max:.6g}")
    return violations


def reference_realized_profit(realized, probabilities, lmps, fleet):
    """One level's realized profit as a (K, T, n) einsum over scenarios and hours."""
    margin = lmps - fleet.ask_prices
    return float(np.einsum("k,kti->i", probabilities, realized * margin).sum())


def same_bits(a, b):
    """Equal shape and bytes: unlike ==, tells -0.0 from 0.0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# commitment kernel


def assert_rows_match_reference(fleet, demands):
    """Every feasible row bitwise equal; an infeasible batch raises like its first bad row."""
    expected, first_error = [], None
    for d in demands:
        try:
            expected.append(reference_commit(fleet, d))
        except InfeasibleDispatchError as exc:
            first_error = first_error or exc
            expected.append(exc)
    if first_error is not None:
        with pytest.raises(InfeasibleDispatchError) as err:
            commit_batch(fleet, demands)
        assert str(err.value) == str(first_error)
    else:
        batch = commit_batch(fleet, demands)
        assert batch.power.shape == (len(demands), len(fleet))
        for r, (power, price, regime, marginal) in enumerate(expected):
            assert np.array_equal(batch.power[r], power)
            assert batch.clearing_price[r] == price
            assert tuple(Regime)[batch.regime[r]] is regime
            assert batch.marginal_index[r] == marginal
    for d, ref in zip(demands, expected):
        if isinstance(ref, InfeasibleDispatchError):
            with pytest.raises(InfeasibleDispatchError) as err:
                commit(fleet, d)
            assert type(err.value) is type(ref) and str(err.value) == str(ref)
            continue
        res = commit(fleet, d)
        power, price, regime, marginal = ref
        assert np.array_equal(res.power, power)
        assert res.clearing_price == price
        assert res.regime is regime and res.marginal_index == marginal
    return [ref[2] for ref in expected if not isinstance(ref, InfeasibleDispatchError)]


@st.composite
def positive_min_fleets(draw):
    """Fleets with strictly increasing asks and every p_min > 0.

    The adjustable-range clause is not enforced, so some demands hit the
    back-down and single-unit failures as well as all three regimes.
    """
    n = draw(st.integers(1, 5))
    steps = draw(st.lists(st.floats(0.01, 80.0), min_size=n, max_size=n))
    asks = np.cumsum(steps) + 1.0
    p_min = draw(st.lists(st.floats(0.5, 120.0), min_size=n, max_size=n))
    width = draw(st.lists(st.floats(0.5, 200.0), min_size=n, max_size=n))
    return Fleet(tuple(GeneratorSpec(f"u{i}", float(asks[i]), p_min[i], p_min[i] + width[i])
                       for i in range(n)))


def demand_grid(fleet, u):
    """Boundary demands of the fleet plus interior points given by uniforms u."""
    prefix = fleet.p_max_prefix
    cap = fleet.total_capacity
    p_min = fleet.p_mins
    # the back-down target of unit k-1 lands exactly on its minimum
    backdown_at_min = prefix[:-2] + p_min[:-1] + p_min[1:]
    edges = np.concatenate(([0.0, -1.0, cap, cap + 5e-10, cap + 1.0], prefix, p_min,
                            prefix[:-1] + p_min, np.nextafter(p_min, 0.0), backdown_at_min))
    return np.concatenate((edges, np.asarray(u) * cap))


@settings(max_examples=150, deadline=None)
@given(positive_min_fleets(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_commit_batch_rows_equal_scalar_reference(fleet, u):
    demands = demand_grid(fleet, u)
    feasible = [d for d in demands if _feasible(fleet, d)]
    assert_rows_match_reference(fleet, np.array(feasible))
    assert_rows_match_reference(fleet, demands)


def _feasible(fleet, demand):
    try:
        reference_commit(fleet, demand)
    except InfeasibleDispatchError:
        return False
    return True


def test_commit_batch_covers_all_three_regimes():
    fleet = Fleet((GeneratorSpec("a", 10, 40, 100), GeneratorSpec("b", 20, 5, 155),
                   GeneratorSpec("c", 30, 60, 200)))
    demands = np.linspace(0.0, fleet.total_capacity, 2001)
    seen = assert_rows_match_reference(fleet, demands[[_feasible(fleet, d)
                                                       for d in demands]])
    assert set(seen) == set(Regime)


def test_commit_batch_first_infeasible_row_wins():
    fleet = Fleet((GeneratorSpec("a", 10, 95, 100), GeneratorSpec("b", 20, 50, 155)))
    # row 1 breaks the back-down box, row 3 exceeds capacity
    demands = [100.0, 130.0, 98.0, 1e6]
    with pytest.raises(InfeasibleDispatchError, match="back-down target 80 MW"):
        commit_batch(fleet, demands)
    with pytest.raises(InfeasibleDispatchError, match="outside the servable range"):
        commit_batch(fleet, demands[2:])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_demand_rejected(bad):
    fleet = builtin_fleet()
    with pytest.raises(InfeasibleDispatchError, match="must be finite"):
        commit(fleet, bad)
    with pytest.raises(InfeasibleDispatchError, match=f"demand {bad} MW must be finite"):
        commit_batch(fleet, [100.0, bad, -1.0])


def test_negative_zero_demand_dispatches_positive_zero():
    fleet = Fleet((GeneratorSpec("a", 10, 40, 100), GeneratorSpec("b", 20, 5, 155)))
    batch = commit_batch(fleet, [-0.0, 0.0])
    assert not np.signbit(batch.power).any()
    assert list(batch.marginal_index) == [0, 0] and list(batch.regime) == [0, 0]


def test_commit_batch_rejects_non_vector():
    with pytest.raises(ValueError, match="1-D"):
        commit_batch(builtin_fleet(), [[1.0, 2.0]])


def test_commit_batch_empty():
    assert commit_batch(builtin_fleet(), []).power.shape == (0, 7)


@pytest.mark.parametrize("n", range(1, 13))
def test_saturated_units_equal_the_broadcast_compare(n):
    # the units below a row's saturation index (0 on a small-demand row, else
    # the marginal unit) run at p_max: gathered from an (n, n) table while the
    # batch has n rows or more, compared over (m, n) below that.  Either way
    # every cell that the marginal and back-down writes leave has the bits of
    # the broadcast compare, on back-down, small-demand, zero, unservable and
    # NaN rows
    rng = np.random.default_rng(n)
    p_min = rng.uniform(5.0, 40.0, n)
    p_min[1:] = np.minimum(p_min[1:], p_min[0] / 2)  # some small demands fit a dearer unit
    fleet = Fleet(tuple(GeneratorSpec(f"u{i}", 10.0 + i, p_min[i],
                                      p_min[i] + rng.uniform(1.0, 150.0)) for i in range(n)))
    demands = np.concatenate((demand_grid(fleet, rng.random(40)), [np.nan, np.inf, -0.0],
                              np.linspace(0.0, fleet.total_capacity, 400)))
    for rows in (np.arange(demands.size), rng.choice(demands.size, max(n - 1, 1)),
                 np.arange(0)):
        batch, bad, _ = _commit_rows(fleet, demands[rows])
        saturated = np.where(batch.regime == 2, 0, batch.marginal_index)
        want = np.where(np.arange(n) < saturated[:, None], fleet.p_maxs, 0.0)
        written = np.zeros(want.shape, bool)
        below = batch.regime == 1
        written[np.arange(len(rows)), batch.marginal_index] = True
        written[np.flatnonzero(below), batch.marginal_index[below] + 1] = True
        assert same_bits(batch.power[~written], want[~written])
        if len(rows) > n:
            assert set(batch.regime) == ({0, 2} if n == 1 else {0, 1, 2})
            assert bad.any() and (demands[rows] == 0.0).any()


def test_fleet_columns_are_read_only():
    fleet = builtin_fleet()
    for column in (fleet.ask_prices, fleet.p_mins, fleet.p_maxs, fleet.p_max_prefix):
        with pytest.raises(ValueError):
            column[0] = 1.0
    assert list(fleet.p_max_prefix) == [0, 400, 555, 631, 828, 928, 940, 960]


# ---------------------------------------------------------------------------
# feeder kernel


def assert_feeder_rows_match_reference(grid, fleet, per_bus, suffix):
    """Every row bitwise equal; an infeasible batch raises like its first bad row,
    and the unraising form marks every infeasible row with the reference's error.
    """
    expected, first_error = [], None
    for row_bus, row_tail in zip(per_bus, suffix):
        try:
            expected.append(reference_dispatch_radial(grid, fleet, row_bus, row_tail))
        except InfeasibleDispatchError as exc:
            first_error = first_error or exc
            expected.append(exc)
    # a grid reads each level's first failing row from these masks
    _, failed, error_at = _radial_rows(grid, fleet, per_bus, suffix)
    assert failed.shape == (len(per_bus),)
    for r, ref in enumerate(expected):
        assert failed[r] == isinstance(ref, InfeasibleDispatchError)
        if failed[r]:
            assert str(error_at(r)) == str(ref)
    if first_error is not None:
        with pytest.raises(InfeasibleDispatchError) as err:
            dispatch_radial_batch(grid, fleet, per_bus, suffix)
        assert str(err.value) == str(first_error)
    else:
        batch = dispatch_radial_batch(grid, fleet, per_bus, suffix)
        assert batch.power.shape == (len(per_bus), grid.n_buses)
        batch_lmps = batch.lmps
        for r, (power, lmps, _, _, balancing) in enumerate(expected):
            assert same_bits(batch.power[r], power)
            assert same_bits(batch_lmps[r], lmps)
            assert batch.balancing_bus[r] == (-1 if balancing is None else balancing)
    for row_bus, row_tail, ref in zip(per_bus, suffix, expected):
        if isinstance(ref, InfeasibleDispatchError):
            with pytest.raises(InfeasibleDispatchError) as err:
                dispatch_radial(grid, fleet, row_bus, row_tail)
            assert str(err.value) == str(ref)
            continue
        d = dispatch_radial(grid, fleet, row_bus, row_tail)
        power, lmps, _, _, balancing = ref
        assert same_bits(d.power, power) and same_bits(d.lmps, lmps)
        assert d.balancing_bus == balancing
    return expected


@st.composite
def feeder_batches(draw):
    """A feeder with n = 1..8 buses and m = 1..40 rows built to reach every branch.

    Entries come from a pool of boundary values (+-0.0 and multiples of the
    line limit) and random floats; one line limit, 0.1 + 0.2, is inexact in
    binary.  Each suffix row is one of:

    - the row's own tail sums, which clear the tail at some bus and reset
      the rest of the feeder
    - those sums with extra tail at bus 0 that the downstream tails do not
      carry, and own requirements above them, which can leave a bus short
      of capacity
    - free draws like tail CVaRs, which can leave a congested feeder
      without a balancing bus
    - tail sums with bus 0's line and one bus's tail exactly at the limit

    One fleet in ten has a unit with a positive minimum, which fails the
    feeder assumptions on every row.
    """
    n = draw(st.integers(1, 8))
    p_bar = draw(st.sampled_from([10.0, 25.0, 40.0, 0.1 + 0.2]))
    steps = draw(st.lists(st.floats(0.01, 50.0), min_size=n, max_size=n))
    p_max = draw(st.lists(st.floats(20.0, 400.0), min_size=n, max_size=n))
    p_min = [0.0] * n
    if draw(st.integers(0, 9)) == 0:
        p_min[draw(st.integers(0, n - 1))] = draw(st.sampled_from([0.5, 2]))
    fleet = Fleet(tuple(GeneratorSpec(f"b{i}", float(np.sum(steps[:i + 1])) + 1.0,
                                      p_min[i], p_min[i] + p_max[i]) for i in range(n)))
    values = st.one_of(st.sampled_from([0.0, -0.0, p_bar, -p_bar, 2.0 * p_bar, 0.5 * p_bar]),
                       st.floats(-30.0, 90.0))
    m = draw(st.integers(1, 40))
    per_bus = np.array(draw(st.lists(st.lists(values, min_size=n, max_size=n),
                                     min_size=m, max_size=m)), dtype=float)
    suffix = np.cumsum(per_bus[:, ::-1], axis=1)[:, ::-1]
    for r in range(m):
        kind = draw(st.sampled_from(["tails", "carry", "free", "tie"]))
        if kind == "carry" and suffix[r, 0] < fleet.p_maxs[0]:
            suffix[r, 0] = draw(st.floats(suffix[r, 0], fleet.p_maxs[0]))
            per_bus[r, 1:] += draw(st.floats(0.0, 300.0))
        elif kind == "free":
            suffix[r] = draw(st.lists(values, min_size=n, max_size=n))
        elif kind == "tie":
            suffix[r, 0] = per_bus[r, 0] + p_bar  # bus 0's line exactly at its limit
            suffix[r, draw(st.integers(0, n - 1))] = p_bar
    return RadialGrid(n, p_bar), fleet, per_bus, suffix


@settings(max_examples=300, deadline=None)
@given(feeder_batches())
def test_dispatch_radial_batch_rows_equal_scalar_reference(case):
    grid, fleet, per_bus, suffix = case
    expected = assert_feeder_rows_match_reference(grid, fleet, per_bus, suffix)
    feasible = [not isinstance(ref, InfeasibleDispatchError) for ref in expected]
    assert_feeder_rows_match_reference(grid, fleet, per_bus[feasible], suffix[feasible])


def test_feeder_rows_cover_reset_congestion_and_ties():
    grid = RadialGrid(3, 50.0)
    fleet = Fleet(tuple(GeneratorSpec(f"b{i}", a, 0.0, c)
                        for i, (a, c) in enumerate([(10, 400), (20, 300), (30, 200)])))
    per_bus = np.array([[60, 40, 30],    # congested, balanced at bus 1
                        [60, 20, 20],    # bus 0 clears the tail, the rest resets
                        [50, 0, 0],      # bus 0's line at its limit: uncongested
                        [10, 40, 50],    # bus 2's tail at the limit fits: balanced at bus 1
                        [10, 10, 60],    # balanced at the last bus
                        [-0.0, 0.0, 0.0]], dtype=float)
    suffix = np.cumsum(per_bus[:, ::-1], axis=1)[:, ::-1]
    suffix[2, 0] = 100.0
    expected = assert_feeder_rows_match_reference(grid, fleet, per_bus, suffix)
    assert [ref[4] for ref in expected] == [1, None, None, 1, 2, None]
    assert list(expected[1][0]) == [100.0, 0.0, 0.0]


def test_feeder_clear_test_is_not_strict():
    # at 20 GW, tail - 1e-12 rounds back to the tail, so bus 0's output
    # equals it exactly and only a non-strict test resets bus 1's ledger
    grid = RadialGrid(2, 50.0)
    fleet = Fleet((GeneratorSpec("a", 10, 0.0, 20000), GeneratorSpec("b", 20, 0.0, 100)))
    per_bus, suffix = np.array([[20000.0, 60.0]]), np.array([[20000.0, 60.0]])
    expected = assert_feeder_rows_match_reference(grid, fleet, per_bus, suffix)
    assert list(expected[0][2]) == [20000.0, 0.0]


def test_feeder_keeps_the_sign_of_a_zero_requirement():
    # max(-0.0, 0.0) is -0.0 in Python while np.maximum gives 0.0; the
    # reported outputs keep the scalar recursion's zeros
    grid = RadialGrid(2, 30.0)
    fleet = Fleet((GeneratorSpec("a", 10, 0.0, 100), GeneratorSpec("b", 20, 0.0, 100)))
    # min(0.0, -0.0) is 0.0 in Python while np.minimum gives -0.0: row 1's
    # bus 0 has import headroom 0.0 and a tail of -0.0
    per_bus = np.array([[-0.0, 0.0], [-30.0, 0.0]])
    suffix = np.array([[-0.0, 0.0], [-0.0, 0.0]])
    expected = assert_feeder_rows_match_reference(grid, fleet, per_bus, suffix)
    power, _, local, tail, *_ = expected[0]
    assert np.signbit(local[0]) and np.signbit(tail[0]) and np.signbit(power[0])
    assert not np.signbit(expected[1][0][0]) and np.signbit(expected[1][3][0])
    batch = dispatch_radial_batch(grid, fleet, per_bus, suffix)
    assert np.signbit(batch.power[0, 0])
    assert not np.signbit(batch.power[1, 0])


def test_feeder_batch_first_infeasible_row_wins():
    grid = RadialGrid(3, 30.0)
    fleet = Fleet(tuple(GeneratorSpec(f"b{i}", a, 0.0, c)
                        for i, (a, c) in enumerate([(10, 100), (20, 45), (30, 20)])))
    per_bus = np.array([[20, 10, 5], [20, 60, 10], [20, 40, 0], [20, 10, 30], [20, 10, 5]],
                       dtype=float)
    suffix = np.array([[35, 15, 5],      # feasible
                       [100, 40, 10],    # bus 1 must carry 50 MW on a 45 MW unit
                       [100, 15, 0],     # congested without a balancing bus
                       [60, 40, 30],     # tail above bus 2's unit
                       [100, 15, 25]],   # both of the last two: the assumptions win
                      dtype=float)
    assert_feeder_rows_match_reference(grid, fleet, per_bus, suffix)
    messages = ["bus 1: required output 50 MW exceeds capacity 45",
                "congested feeder without a balancing bus; tail requirements inconsistent",
                "bus 2: tail requirement 30 MW exceeds generator capacity 20",
                "bus 2: tail requirement 25 MW exceeds generator capacity 20"]
    for first, message in enumerate(messages, start=1):
        with pytest.raises(InfeasibleDispatchError) as err:
            dispatch_radial_batch(grid, fleet, per_bus[first:], suffix[first:])
        assert str(err.value) == message
    # buses 1 and 2 both need more than their units; the first one is named
    with pytest.raises(InfeasibleDispatchError) as err:
        dispatch_radial_batch(grid, fleet, [[0, 48, 30]], [[100, 40, 10]])
    assert str(err.value) == "bus 1: required output 48 MW exceeds capacity 45"


@pytest.mark.parametrize("n", [1, 2, 3, 8, 24])
@pytest.mark.parametrize("m", [0, 1, 37])
def test_tail_sums_equal_reversed_cumsum(n, m):
    # the re-dispatch's tails, one add per bus from the last, against the
    # reversed cumsum they replaced; signed zeros and cancelling terms included
    rng = np.random.default_rng(100 * n + m)
    rows = rng.normal(0.0, 1e3, (m, n)) * 10.0 ** rng.integers(-12, 12, (m, n))
    rows[rng.random((m, n)) < 0.15] = 0.0
    rows[rng.random((m, n)) < 0.15] = -0.0
    if m:
        rows[0] = -0.0  # all-negative-zero row keeps -0.0 in every tail
        rows[-1, ::2] = 0.1 + 0.2
        rows[-1, 1::2] = -(0.1 + 0.2)
    expected = np.cumsum(rows[:, ::-1], axis=1)[:, ::-1]
    tails = _tail_sums(rows)
    assert tails.shape == (m, n) and tails.dtype == np.float64
    assert same_bits(tails, expected)
    assert same_bits(_tail_sums(rows[::2]), np.cumsum(rows[::2, ::-1], axis=1)[:, ::-1])


def test_feeder_batch_shapes():
    grid = RadialGrid(3, 30.0)
    fleet = builtin_fleet().head(3)
    empty = dispatch_radial_batch(grid, fleet, np.zeros((0, 3)), np.zeros((0, 3)))
    assert empty.power.shape == empty.lmps.shape == (0, 3)
    for bad in (np.zeros(3), np.zeros((2, 2)), np.zeros((1, 3, 1))):
        with pytest.raises(InfeasibleDispatchError,
                           match=r"^need one generator and one requirement pair per bus \(3\)$"):
            dispatch_radial_batch(grid, fleet, bad, bad)


# ---------------------------------------------------------------------------
# reserve and ramp envelopes


@pytest.mark.parametrize("k_len,t_len,n", [(1, 1, 1), (7, 2, 3), (50, 24, 3), (9, 5, 8)])
def test_envelopes_equal_hour_pair_loop(k_len, t_len, n):
    rng = np.random.default_rng(k_len * t_len + n)
    realized = rng.uniform(0.0, 100.0, (k_len, t_len, n))
    realized[rng.random(realized.shape) < 0.2] = 0.0   # ties at zero ...
    realized[rng.random(realized.shape) < 0.1] = 40.0  # ... and elsewhere
    committed = rng.uniform(0.0, 100.0, (t_len, n))
    rp, dp = deviation_envelopes(committed, realized)
    ref_rp, ref_dp = reference_envelopes(committed, realized)
    assert same_bits(rp, ref_rp) and same_bits(dp, ref_dp)
    # a strided view of a (T, n, K) array reads the same values
    stored = np.ascontiguousarray(realized.transpose(1, 2, 0))
    assert all(same_bits(a, b) for a, b in zip(
        deviation_envelopes(committed, stored.transpose(2, 0, 1)), (ref_rp, ref_dp)))


# few distinct values, so ties within and across scenarios are common
ENVELOPE_VALUES = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.1, 0.3, 1.0, 40.0, 1e16,
                                   -1.0, -5e-324]) | st.floats(-10.0, 120.0)


@st.composite
def envelope_cases(draw):
    levels = draw(st.sampled_from([(), (1,), (3,)]))
    k_len, t_len, n = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 3))

    def array(shape):
        values = draw(st.lists(ENVELOPE_VALUES, min_size=int(np.prod(shape)),
                               max_size=int(np.prod(shape))))
        return np.array(values, dtype=float).reshape(shape)
    return array(levels + (t_len, n)), array(levels + (k_len, t_len, n))


@settings(max_examples=300, deadline=None)
@given(envelope_cases())
def test_reserve_envelope_equals_largest_deviation(case):
    """The reserve envelope taken from the scenario minimum equals the largest
    of the clamped deviations committed - realized, sign of zero included:
    rounded subtraction is monotone, and np.maximum(x, 0.0) gives +0.0 for
    either zero, so every zero envelope is +0.0 on both sides."""
    committed, realized = case
    delta = committed[..., None, :, :] - realized
    want = np.maximum(delta, 0.0, out=delta).max(axis=-3)
    rp, _ = deviation_envelopes(committed, realized)
    assert same_bits(rp, want)
    assert not np.signbit(rp[rp == 0.0]).any()


@settings(max_examples=300, deadline=None)
@given(envelope_cases(), st.sampled_from([0.0, 1e-9, 2e-9]))
def test_reserve_check_flags_sales_like_the_full_deviation_array(case, shift):
    """The sale above commitment is tested on the scenario maximum and named
    from the full (K, T, n) deviations, the first smallest in (k, t, i) order."""
    committed, realized = case
    if committed.ndim == 3:
        committed, realized = committed[0], realized[0]
    realized = realized + shift  # put deviations on and around the -1e-9 threshold
    units = Fleet(tuple(GeneratorSpec(f"u{i}", 10.0 + i, 0.0, 1e20, 1e20, 1e20)
                        for i in range(committed.shape[1])))
    rp, dp = deviation_envelopes(committed, realized)
    delta = committed[None] - realized
    want = []
    if delta.min() < -1e-9:
        k, t, i = np.unravel_index(int(delta.argmin()), delta.shape)
        want = [f"scenario {k}, hour {t}: unit u{i} sells {realized[k, t, i]:.6g} MW "
                f"above its commitment {committed[t, i]:.6g}"]
    assert reserve_and_ramp_check(committed, realized, rp, dp, units) == want


# ---------------------------------------------------------------------------
# the realized profit and the reserve check over a leading level axis


def test_realized_profit_levels_equal_per_level_einsum():
    # 400 random shapes, L 1-12, K 1-1000, T 1-24, n 1-9: each level's total
    # has the bits of its own (K, T, n) einsum, and a (K, T, n) call gives
    # the same float
    rng = np.random.default_rng(34)
    for _ in range(400):
        l_len, k_len = int(rng.integers(1, 13)), int(rng.integers(1, 1001))
        t_len, n = int(rng.integers(1, 25)), int(rng.integers(1, 10))
        fleet = Fleet(tuple(GeneratorSpec(f"u{i}", 10.0 + 7.5 * i, 0.0, 150.0)
                            for i in range(n)))
        realized = rng.uniform(0.0, 150.0, (l_len, k_len, t_len, n))
        lmps = rng.uniform(5.0, 320.0, (l_len, t_len, n))
        probs = rng.random(k_len)
        probs /= probs.sum()
        want = [reference_realized_profit(r, probs, p, fleet) for r, p in zip(realized, lmps)]
        got = realized_profit(realized, probs, lmps, fleet)
        assert got.shape == (l_len,) and same_bits(got, want)
        one = realized_profit(realized[-1], probs, lmps[-1], fleet)
        assert type(one) is float and same_bits(one, want[-1])


def level_cases(seed):
    """(L, T, n) commitments with their (L, K, T, n) realized power, envelopes
    and a fleet whose caps some levels exceed: sales above commitment,
    reserves and swings over their caps each at two or more levels, and a
    level with no violation."""
    rng = np.random.default_rng(seed)
    l_len, k_len = int(rng.integers(4, 8)), int(rng.integers(2, 30))
    t_len, n = int(rng.integers(2, 6)), int(rng.integers(2, 5))
    committed = rng.uniform(20.0, 100.0, (l_len, t_len, n))
    committed[0] = committed[0, 0]  # level 0 holds every hour and scenario flat
    spread = rng.choice([0.0, 2.0, 15.0], (l_len, 1, 1, n))
    spread[0] = 0.0
    realized = committed[:, None] - rng.uniform(0.0, 1.0, (l_len, k_len, t_len, n)) * spread
    above = rng.random(l_len) < 0.5
    above[[0, 1]], above[[2, 3]] = False, True
    realized[above, 0] += rng.uniform(0.0, 3.0, (int(above.sum()), t_len, n))
    rp, dp = deviation_envelopes(committed, realized)
    caps = rng.uniform(1.0, 12.0, (n, 2))
    fleet = Fleet(tuple(GeneratorSpec(f"u{i}", 10.0 + i, 0.0, 200.0, rp_cap, ramp_cap)
                        for i, (rp_cap, ramp_cap) in enumerate(caps)))
    # each cap is exceeded at two levels whatever the draw: unit 0's reserve
    # at levels 1 and 3, the last unit's ramp at levels 1 and 2
    dp[[1, 2], 0, -1] = caps[-1, 1] + 5.0
    rp[[1, 3], -1, 0] = caps[0, 0] + 5.0
    return committed, realized, rp, dp, fleet


@pytest.mark.parametrize("seed", range(12))
def test_reserve_check_levels_equal_per_unit_loop(seed):
    committed, realized, rp, dp, fleet = level_cases(seed)
    want = [reference_reserve_check(*arrays, fleet)
            for arrays in zip(committed, realized, rp, dp)]
    assert reserve_and_ramp_check(committed, realized, rp, dp, fleet) == want
    assert [reserve_and_ramp_check(*arrays, fleet)
            for arrays in zip(committed, realized, rp, dp)] == want
    assert want[0] == []
    for kind in ("above its commitment", "needed reserve", "scenario-pair swing"):
        assert sum(any(kind in v for v in texts) for texts in want) >= 2, kind


# ---------------------------------------------------------------------------
# the settlement over leading (alpha, level) point axes


def test_point_axis_settlement_equals_per_point_calls():
    # 300 random shapes, A 1-6, L 1-11, K 1-299, T 1-24, n 1-7: (A, L, T, n)
    # commitments and prices against (L, K, T, n) realized power give each
    # (alpha, level) point the bits of its own (T, n) call, and each alpha
    # those of its (L, T, n) call
    rng = np.random.default_rng(35)
    for _ in range(300):
        a_len, l_len, k_len = (int(rng.integers(1, 7)), int(rng.integers(1, 12)),
                               int(rng.integers(1, 300)))
        t_len, n = int(rng.integers(1, 25)), int(rng.integers(1, 8))
        fleet = Fleet(tuple(GeneratorSpec(f"u{i}", 10.0 + 7.5 * i, 0.0, 150.0)
                            for i in range(n)))
        realized = rng.uniform(0.0, 150.0, (l_len, k_len, t_len, n))
        committed = rng.uniform(0.0, 150.0, (a_len, l_len, t_len, n))
        lmps = rng.uniform(5.0, 320.0, (a_len, l_len, t_len, n))
        probs = rng.random(k_len)
        probs /= probs.sum()
        r_realized = realized_profit(realized, probs, lmps, fleet)
        r_expected = expected_profit(committed, lmps, fleet)
        rp, dp = deviation_envelopes(committed, realized)
        assert r_realized.shape == r_expected.shape == (a_len, l_len)
        assert rp.shape == dp.shape == committed.shape
        for a in range(a_len):
            assert same_bits(r_realized[a], realized_profit(realized, probs, lmps[a], fleet))
            assert same_bits(r_expected[a], expected_profit(committed[a], lmps[a], fleet))
            for level in range(l_len):
                one = realized_profit(realized[level], probs, lmps[a, level], fleet)
                assert type(one) is float and same_bits(r_realized[a, level], one)
                one = expected_profit(committed[a, level], lmps[a, level], fleet)
                assert type(one) is float and same_bits(r_expected[a, level], one)
                one_rp, one_dp = deviation_envelopes(committed[a, level], realized[level])
                assert same_bits(rp[a, level], one_rp) and same_bits(dp[a, level], one_dp)


@pytest.mark.parametrize("seed", range(12))
def test_reserve_check_points_equal_per_point_calls(seed):
    # a second alpha commits 0.5 MW more against the same realized power,
    # with its own envelopes: every kind of text appears at two or more
    # points of each alpha, and each point's texts are its (T, n) call's
    committed, realized, rp, dp, fleet = level_cases(seed)
    shift = np.array([0.0, 0.5])[:, None, None, None]
    committed, rp, dp = committed + shift, rp + shift, dp + shift / 2
    want = [[reference_reserve_check(committed[a, level], realized[level], rp[a, level],
                                     dp[a, level], fleet)
             for level in range(len(realized))] for a in range(2)]
    assert reserve_and_ramp_check(committed, realized, rp, dp, fleet) == want
    for a in range(2):
        assert reserve_and_ramp_check(committed[a], realized, rp[a], dp[a], fleet) == want[a]
        for level in range(len(realized)):
            one = reserve_and_ramp_check(committed[a, level], realized[level], rp[a, level],
                                         dp[a, level], fleet)
            assert one == want[a][level]
        for kind in ("above its commitment", "needed reserve", "scenario-pair swing"):
            assert sum(any(kind in v for v in texts) for texts in want[a]) >= 2, (a, kind)
    assert want[0] != want[1]


def test_sale_is_located_like_the_full_deviation_argmin():
    # the sale is named from the (t, i) cells of the smallest worst sale
    # alone, and still as the first smallest of the full (K, T, n)
    # deviations in (k, t, i) order: at level 0 two cells sell the same
    # 4 MW, the later cell at an earlier scenario, and the earlier cell at
    # two scenarios; level 1 sells less, level 2 not at all.  Each point of
    # the (A, L) axes is its own full-delta argmin
    rng = np.random.default_rng(38)
    l_len, k_len, t_len, n = 3, 6, 4, 3
    committed = np.full((2, l_len, t_len, n), 50.0)
    committed[1] += 0.25  # the second alpha commits more
    realized = 50.0 - rng.uniform(0.0, 5.0, (l_len, k_len, t_len, n))
    realized[0, [4, 5], 1, 2] = realized[0, 2, 3, 0] = 54.0
    realized[0, 0, 0, 1] = 52.0
    realized[1, 3, 2, 1] = 51.0
    rp, dp = deviation_envelopes(committed, realized)
    fleet = Fleet(tuple(GeneratorSpec(f"u{i}", 10.0 + i, 0.0, 1e20, 1e20, 1e20)
                        for i in range(n)))
    want = [[reference_reserve_check(committed[a, level], realized[level], rp[a, level],
                                     dp[a, level], fleet) for level in range(l_len)]
            for a in range(2)]
    assert reserve_and_ramp_check(committed, realized, rp, dp, fleet) == want
    assert want[0][0] == ["scenario 2, hour 3: unit u0 sells 54 MW above its commitment 50"]
    assert want[1][1] == ["scenario 3, hour 2: unit u1 sells 51 MW above its commitment 50.25"]
    assert want[0][2] == want[1][2] == []


# ---------------------------------------------------------------------------
# cost recovery


def recovery_fleet(rng, n):
    """n units with distinct hot and cold start costs; some no-load costs are zero."""
    no_load = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.1, 80.0, n))
    hot = rng.uniform(1.0, 300.0, n)
    cold = hot + rng.uniform(1.0, 300.0, n)
    return Fleet(tuple(GeneratorSpec(f"u{i}", 10.0 + i, 0.0, 300.0, 300.0, 300.0,
                                     start_cost_hot=hot[i], start_cost_cold=cold[i],
                                     no_load_cost=no_load[i]) for i in range(n)))


def assert_recovery_matches_reference(committed, rp, dp, fleet, cost_recovery):
    try:
        expected = reference_recovery(committed, rp, dp, fleet, cost_recovery)
    except ValueError:
        with pytest.raises(InfeasibleDispatchError):
            recovery_rate(committed, rp, dp, fleet, cost_recovery)
        return
    h_total, lambda_w = recovery_rate(committed, rp, dp, fleet, cost_recovery)
    assert same_bits(h_total, expected[0]) and same_bits(lambda_w, expected[1])


@st.composite
def recovery_cases(draw):
    """A fleet, an on/off pattern (some units never online) and envelopes."""
    n = draw(st.integers(1, 11))
    t_len = draw(st.integers(1, 29))
    online_share = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    online = rng.random((t_len, n)) < online_share
    online[:, rng.random(n) < 0.2] = False
    committed = np.where(online, rng.uniform(1e-3, 300.0, (t_len, n)), 0.0)
    rp = np.where(rng.random((t_len, n)) < 0.2, 0.0, rng.uniform(0.0, 50.0, (t_len, n)))
    dp = np.where(rng.random((t_len, n)) < 0.2, 0.0, rng.uniform(0.0, 50.0, (t_len, n)))
    return committed, rp, dp, recovery_fleet(rng, n), draw(st.sampled_from((0, 1)))


@settings(max_examples=300, deadline=None)
@given(recovery_cases())
def test_recovery_equals_hour_unit_loop(case):
    assert_recovery_matches_reference(*case)


@pytest.mark.parametrize("pattern", [
    [[1], [1]],                   # start in hour 0: hot
    [[1], [0], [1]],              # restart after one offline hour: hot
    [[0], [1]],                   # one offline hour in the horizon and one before: cold
    [[1], [0], [0], [1], [1]],    # restart after two offline hours: cold
    [[0, 1], [0, 1], [0, 0]],     # a unit that is never online
    [[1] * 9],                    # T = 1, n >= 8: pairwise row sums
    [[1, 0, 1, 1, 0, 0, 1, 0, 1], [0, 1, 1, 0, 1, 0, 1, 1, 0], [1, 1, 0, 0, 0, 1, 1, 0, 1]],
])
def test_recovery_patterns_equal_hour_unit_loop(pattern):
    online = np.array(pattern, dtype=bool)
    rng = np.random.default_rng(online.size)
    committed = np.where(online, rng.uniform(1.0, 300.0, online.shape), 0.0)
    rp, dp = rng.uniform(0.0, 50.0, (2, *online.shape))
    fleet = recovery_fleet(rng, online.shape[1])
    for cost_recovery in (0, 1):
        assert_recovery_matches_reference(committed, rp, dp, fleet, cost_recovery)
    # envelopes stored column by column give the same bits
    assert_recovery_matches_reference(committed, np.asfortranarray(rp),
                                      np.asfortranarray(dp), fleet, 1)


# ---------------------------------------------------------------------------
# scenario draws


@pytest.mark.parametrize("n_buses,horizon,penetration,growth", [
    (3, 4, 0.4, 0.2),
    (9, 3, 0.9, 0.27),      # more buses than one summation block
    (4, 2, 1.0, 0.3),       # capacity exactly covers the target: output at capacity
    (3, 2, 0.3, 0.0),       # degenerate renewable std: output fixed at its mean
])
def test_generate_scenarios_equals_per_bus_hour_loop(n_buses, horizon, penetration, growth):
    rng = np.random.default_rng(n_buses * 10 + horizon)
    mean = rng.uniform(20.0, 200.0, (n_buses, horizon))
    std = 0.08 * mean
    std[0, 0] = 0.0                      # a degenerate load is the mean itself,
    mean[1, 0], std[1, 0] = 0.5, 7e-10   # judged against 1 MW for sub-MW means
    cap = rng.uniform(0.0, 300.0, n_buses)
    cap[-1] = 0.0                        # an unsited bus gets no renewable output
    if penetration == 1.0:
        mean[:] = mean[:, :1]            # the same target every hour ...
        cap = cap / cap.sum() * mean[:, 0].sum()  # ... equal to the installed capacity
    cfg = ScenarioConfig(n_buses=n_buses, horizon=horizon, n_scenarios=64, seed=11,
                         load_mean=mean, load_std=std)
    load, renewable = reference_scenarios(cfg, penetration, cap, growth)
    got_load, got_renewable, _ = oracles.level_arrays(cfg, penetration, cap, growth)
    assert np.array_equal(got_load, load)
    assert np.array_equal(got_renewable, renewable)


# ---------------------------------------------------------------------------
# scenario quantiles: scipy.special against scipy.stats


def assert_quantiles_match(q, loc, scale):
    """Per-bus rows of q, shaped (buses, K) like one hour of the load draw."""
    assert same_bits(scenarios._truncnorm_ppf(q, loc, scale),
                     stats.truncnorm.ppf(q, (0.0 - loc) / scale, np.inf, loc=loc, scale=scale))


# Generator.random draws multiples of 2**-53 in [0, 1), so no draw is subnormal
# (there betaincinv and beta.ppf part: at 5e-324 one gives NaN, the other not)
UNIFORMS = st.one_of(st.just(0), st.integers(1, 2**53 - 1),
                     st.integers(1, 2**20), st.integers(2**53 - 2**20, 2**53 - 1))


def hourly_uniforms(draw, n, k):
    # stored (K, buses) and read through a transposed view, as the draws are
    values = draw(st.lists(UNIFORMS, min_size=n * k, max_size=n * k))
    return (np.array(values, dtype=float) * 2.0**-53).reshape(k, n).T


@st.composite
def truncnorm_cases(draw):
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    loc = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e4)),
                        min_size=n, max_size=n))
    scale = draw(st.lists(st.floats(1e-6, 1e3), min_size=n, max_size=n))
    return hourly_uniforms(draw, n, k), np.array(loc)[:, None], np.array(scale)[:, None]


@settings(max_examples=200, deadline=None)
@given(truncnorm_cases())
def test_truncnorm_quantiles_equal_scipy_stats(case):
    assert_quantiles_match(*case)


@pytest.mark.parametrize("loc,scale", [
    (100.0, 6.0),
    (0.0, 6.0),                         # a zero mean: the upper-tail branch
    (0.0, 1e-6),
    (100.0, 100.0 * scenarios._DEGENERATE_STD * 1.000001),  # barely drawn at all
    (0.5, scenarios._DEGENERATE_STD * 1.000001),
    (1e-3, 1e3),                        # a tail far below the mean
])
def test_truncnorm_fixed_cases(loc, scale):
    u = np.random.default_rng(3).random((257, 2))
    u[[0, 5, 100], 0] = 0.0             # q == 0 returns the lower bound
    u[7, 1], u[8, 1] = 2.0**-53, 1.0 - 2.0**-53   # the extreme draws
    assert_quantiles_match(u.T, np.array([[loc], [loc]]), np.array([[scale], [scale]]))


def test_truncnorm_mixed_tails_in_one_call():
    u = np.random.default_rng(4).random((33, 3))
    u[0] = 0.0
    assert_quantiles_match(u.T, np.array([[0.0], [80.0], [0.0]]),
                           np.array([[4.0], [6.0], [1e-3]]))


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.integers(1, 64), st.data())
def test_beta_quantiles_equal_scipy_stats(a, b, k, data):
    q = hourly_uniforms(data.draw, 1, k)[0]
    assert same_bits(special.betaincinv(a, b, q), stats.beta.ppf(q, a, b))


@pytest.mark.parametrize("a,b", [
    (1e-3, 1e3), (1e3, 1e-3), (1e-4, 1e-4), (5e3, 5e3), (0.5, 0.5), (1.0, 1.0),
    scenarios._beta_shape(1e-6, 1e-7),      # a share near 0
    scenarios._beta_shape(1.0 - 1e-11, 1e-9),  # a share just short of 1
    scenarios._beta_shape(0.3, 0.95 * np.sqrt(0.21)),  # the widest feasible std
])
def test_beta_fixed_cases(a, b):
    u = np.random.default_rng(5).random((300, 4))[:, 2]   # a strided column
    u[[0, 9]] = 0.0
    u[10], u[11] = 2.0**-53, 1.0 - 2.0**-53
    assert same_bits(special.betaincinv(a, b, u), stats.beta.ppf(u, a, b))


@pytest.mark.parametrize("seed", [0, 1, 7, 11, 123])
@pytest.mark.parametrize("load_mean,load_std,horizon,k,penetration", [
    ((232.0, 174.0, 174.0), None, 24, 1000, 0.3),
    ((150.0, 75.0, 45.0), None, 24, 300, 0.9),
    (tuple(np.linspace(20.0, 200.0, 24)), None, 12, 50, 0.6),
    ((120.0, 0.0, 90.0, 0.0), (7.0, 5.0, 0.0, 0.0), 3, 37, 0.4),   # zero means
], ids=["bus", "feeder", "wide", "zero-mean"])
def test_generate_scenarios_equals_scipy_stats_draws(seed, load_mean, load_std, horizon, k,
                                                     penetration):
    mean = np.repeat(np.array(load_mean)[:, None], horizon, axis=1)
    std = 0.06 * mean if load_std is None else np.repeat(np.array(load_std)[:, None],
                                                         horizon, axis=1)
    cfg = ScenarioConfig(n_buses=len(load_mean), horizon=horizon, n_scenarios=k, seed=seed,
                         load_mean=mean, load_std=std)
    cap = penetration * mean[:, 0] / 0.5 + 10.0
    load, renewable = reference_scenarios(cfg, penetration, cap, 0.27)
    got_load, got_renewable, _ = oracles.level_arrays(cfg, penetration, cap, 0.27)
    assert same_bits(got_load, load) and same_bits(got_renewable, renewable)


def test_draw_loads_equals_scipy_stats_on_hour_varying_loads(force_load_uniforms):
    # every bus's mean and std change from hour to hour, so a (bus, hour)
    # row drawn with another row's constants or uniforms changes the bits
    rng = np.random.default_rng(28)
    n, horizon, k = 4, 7, 45
    mean = rng.uniform(5.0, 300.0, (n, horizon))
    std = mean * rng.uniform(0.02, 0.5, (n, horizon))
    mean[2] = 0.0                                   # a zero-mean bus: the upper tail
    std[2] = rng.uniform(1.0, 20.0, horizon)
    std[1, 3] = 0.0                                 # a degenerate (bus, hour) mid-horizon
    top = 1.0 - 2.0**-53
    force_load_uniforms({(4, 0, 2): 0.0, (0, 2, 5): 0.0, (9, 1, 3): 0.0,   # q == 0
                         (11, 3, 6): top, (12, 2, 1): top})
    cfg = ScenarioConfig(n_buses=n, horizon=horizon, n_scenarios=k, seed=3,
                         load_mean=mean, load_std=std)
    load, _ = reference_scenarios(cfg, 0.0, np.zeros(n), 0.27)
    got = oracles.loads(cfg)
    assert same_bits(got, load)
    assert got[0, 2, 4] == 0.0 and got[2, 5, 0] == 0.0 and got[1, 3, 9] == mean[1, 3]


# ---------------------------------------------------------------------------
# CVaR kernel


@st.composite
def cvar_row_cases(draw):
    """Rows of draws with one probability vector, and a confidence level.

    Draws rounded to multiples of 25 tie (signed zeros among them), a row may
    repeat one value throughout, K may be 1, the weights may be non-uniform,
    and alpha may sit exactly on a CDF jump of one of the rows.
    """
    m, k = draw(st.integers(1, 8)), draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(0.0, 100.0, (m, k))
    if draw(st.booleans()):
        values = np.round(values / 25.0) * 25.0
    if draw(st.booleans()):
        values[draw(st.integers(0, m - 1))] = values[0, 0]
    if draw(st.booleans()):
        probs = np.full(k, 1.0 / k)
    else:
        weights = rng.random(k) + 1e-3
        probs = weights / weights.sum()
    alpha = draw(st.floats(0.01, 0.99))
    jump = np.cumsum(oracles.atoms(values[-1], probs)[1])[:-1]
    if jump.size and draw(st.booleans()):
        alpha = float(jump[draw(st.integers(0, jump.size - 1))])
    return values, probs, alpha


@settings(max_examples=300, deadline=None)
@given(cvar_row_cases())
def test_cvar_rows_equal_scalar_reference(case):
    values, probs, alpha = case
    assume(0.0 < alpha < 1.0)
    assert_cvar_rows_match_reference(values, probs, alpha)


def assert_cvar_rows_match_reference(values, probs, alpha):
    """Every row's VaR and CVaR against the reference, from one call over all
    rows and from a call on that row alone."""
    got_var, got_cvar = cvar_rows(values, probs, alpha)
    assert got_var.shape == got_cvar.shape == (values.shape[0],)
    for r, row in enumerate(values):
        want = oracles.var_cvar(row, probs, alpha)
        alone = cvar_rows(row[None], probs, alpha)
        for pair in ((got_var[r], got_cvar[r]), (alone[0][0], alone[1][0])):
            assert all(map(oracles.same_atom_bits, pair, want)), r


@st.composite
def sorted_path_cases(draw):
    """Tie-free and tied rows in one call, K up to 1,200, mostly equal weights.

    A tied row has its draws rounded to multiples of 25 or holds both -0.0
    and 0.0; alpha may be a step of the equal-weight CDF, as cumsum sums it
    or as the ratio j / K.
    """
    m, k = draw(st.integers(0, 12)), draw(st.integers(1, 1200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(0.0, 100.0, (m, k))
    tied = rng.random(m) < draw(st.floats(0.0, 1.0))
    values[tied] = np.round(values[tied] / 25.0) * 25.0
    if m and k > 1 and draw(st.booleans()):
        values[draw(st.integers(0, m - 1)), :2] = (-0.0, 0.0)
    if draw(st.integers(0, 3)):
        probs = np.full(k, 1.0 / k)
    else:
        weights = rng.random(k) + 1e-3
        probs = weights / weights.sum()
    step = draw(st.integers(1, k))
    alpha = draw(st.one_of(st.floats(1e-9, 0.999), st.just(step / k),
                           st.just(float(np.cumsum(probs)[step - 1]))))
    return values, probs, alpha


@settings(max_examples=200, deadline=None)
@given(sorted_path_cases())
def test_cvar_rows_sorted_path_equals_scalar_reference(case):
    values, probs, alpha = case
    assume(0.0 < alpha < 1.0)
    assert_cvar_rows_match_reference(values, probs, alpha)


@pytest.mark.parametrize("equal", [True, False])
def test_cvar_rows_of_no_rows_are_empty(equal):
    probs = np.full(4, 0.25) if equal else np.array([0.1, 0.2, 0.3, 0.4])
    got = cvar_rows(np.empty((0, 4)), probs, 0.9)
    assert [a.shape for a in got] == [(0,), (0,)]


@pytest.mark.parametrize("alpha", [0.95, 0.9, 0.5123, 1e-9, 0.999])
def test_cvar_rows_across_sort_blocks_equal_scalar_reference(alpha):
    # alpha * K = 950, 900 and 500 put the quantile on a step of the CDF
    k = 1000
    per_block = risk._SORT_BLOCK // k
    rng = np.random.default_rng(16)
    values = rng.normal(0.0, 100.0, (2 * per_block + 3, k))
    # tied rows at both ends of each block, and one whose tie is -0.0 and 0.0
    for r in (0, per_block - 1, per_block, 2 * per_block + 2):
        values[r] = np.round(values[r] / 25.0) * 25.0
    values[per_block + 1, :2] = (-0.0, 0.0)
    assert values.size > 2 * risk._SORT_BLOCK
    assert_cvar_rows_match_reference(values, np.full(k, 1.0 / k), alpha)


# ---------------------------------------------------------------------------
# in-order sum


def mixed_magnitudes(rng, shape):
    """Signed values spread over 40 decades, so rounding depends on the order."""
    return rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.integers(-20, 21, shape)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2000), st.integers(0, 2**32 - 1), st.booleans())
def test_sum_in_order_equals_loop_over_vector(k, seed, leading_negative_zero):
    values = mixed_magnitudes(np.random.default_rng(seed), k)
    if leading_negative_zero and k:
        values[0] = -0.0
    total = 0.0
    for v in values.tolist():
        total += v
    assert same_bits(sum_in_order(values), total)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2000), st.integers(1, 24), st.sampled_from([0, 1, -1]),
       st.integers(0, 2**32 - 1), st.booleans())
def test_sum_in_order_equals_loop_along_axis(k, t, axis, seed, leading_negative_zero):
    values = mixed_magnitudes(np.random.default_rng(seed), (k, t))
    if leading_negative_zero:
        np.moveaxis(values, axis, 0)[0] = -0.0
    total = np.zeros(np.moveaxis(values, axis, 0).shape[1:])
    for row in np.moveaxis(values, axis, 0):
        total += row
    got = sum_in_order(np.moveaxis(values, axis, -1))
    assert same_bits(got, total)
    assert got.base is None  # a fresh array, not a row of the running sums


def test_sum_in_order_is_not_np_sum():
    # numpy's pairwise sum adds the small terms together before the large
    # one; a loop from 0.0 loses each of them against 1.0
    values = np.array([1.0] + [1e-16] * 15)
    assert sum_in_order(values) == 1.0
    assert np.sum(values) == 1.0000000000000016
    assert same_bits(sum_in_order([-0.0]), 0.0) and same_bits(np.cumsum([-0.0])[-1], -0.0)


@pytest.mark.parametrize("n", range(1, 25))
def test_sum_rows_equals_unit_stride_row_sums(n):
    # one vector add per bus below 8 buses, numpy's pairwise sums of a
    # unit-stride copy from 8 on: each sum has the bits of its unit-stride
    # row's .sum(), over signed zeros and magnitudes from 1e-300 to 1e300,
    # whatever the strides of the array it reads
    rng = np.random.default_rng(n)
    values = rng.uniform(-1.0, 1.0, (9, 5, n)) * 10.0 ** rng.uniform(-300.0, 300.0, (9, 5, n))
    values[rng.random(values.shape) < 0.2] = 0.0
    values[rng.random(values.shape) < 0.2] = -0.0
    values[0] = -0.0
    values[1, :, 0] = -0.0
    values[2:5] = mixed_magnitudes(rng, (3, 5, n))  # close enough to round by order
    stored = np.ascontiguousarray(np.moveaxis(values, -1, 0))  # bus-major, as a run holds loads
    in_order_matches = []
    for view in (values, np.moveaxis(stored, 0, -1), np.asfortranarray(values),
                 values[::-1, ::2], values[..., ::-1], np.moveaxis(stored[::-1], 0, -1)):
        want = np.ascontiguousarray(view).sum(axis=-1)
        assert same_bits(sum_rows(view), want)
        in_order = np.zeros(want.shape)
        for column in np.moveaxis(view, -1, 0):
            in_order += column
        in_order_matches.append(same_bits(in_order, want))
    # numpy adds a row of fewer than 8 entries in order from 0.0, and a longer
    # one pairwise, which the in-order sum misses
    assert all(in_order_matches) if n < 8 else not all(in_order_matches)
    assert not np.signbit(sum_rows(values)[0]).any()


# ---------------------------------------------------------------------------
# renewable payment


@pytest.mark.parametrize("n_buses", [3, 9, 24])
def test_batched_payment_equals_per_scenario_loop(n_buses):
    rng = np.random.default_rng(n_buses)
    k_len, t_len = 40, 6
    # stored (buses, T, K) like a scenario set and read through a transposed view
    load = rng.uniform(10.0, 60.0, (n_buses, t_len, k_len))
    renewable = rng.uniform(0.0, 70.0, (n_buses, t_len, k_len))
    renewable[:, 0, :5] = 0.0            # zero output: no curtailment, no payment
    lmps = rng.uniform(5.0, 300.0, (t_len, n_buses))  # a different price per bus

    load_totals = np.ascontiguousarray(load.transpose(2, 1, 0)).sum(axis=-1)
    rev, cur = curtail_and_pay_renewables(load_totals, renewable.transpose(2, 1, 0), lmps)
    assert rev.shape == cur.shape == (k_len,)
    curtailed_somewhere = False
    for k in range(k_len):
        ref_rev, ref_cur = reference_payment(load[:, :, k].T, renewable[:, :, k].T, lmps)
        assert rev[k] == ref_rev and cur[k] == ref_cur
        one = curtail_and_pay_renewables(np.ascontiguousarray(load[:, :, k].T).sum(axis=-1),
                                         renewable[:, :, k].T, lmps)
        assert one == (ref_rev, ref_cur) and all(type(v) is float for v in one)
        curtailed_somewhere |= ref_cur > 0.0
    assert curtailed_somewhere


# ---------------------------------------------------------------------------
# a whole point: re-dispatch and payment against the per-scenario loops

# p_min > 0 on every unit, with the adjustable-range clause holding and a
# dearest unit able to carry almost any small demand, so the realized
# demands fall in all three regimes
POSITIVE_MIN_FLEET = Fleet(tuple(
    GeneratorSpec(name, ask, p_min, p_max, p_max, p_max)
    for name, ask, p_min, p_max in (("a", 10.0, 50.0, 300.0), ("b", 20.0, 40.0, 250.0),
                                    ("c", 30.0, 30.0, 200.0), ("d", 40.0, 1e-3, 300.0))))


def fleet_file(path, fleet):
    """A fleet CSV holding every field of ``fleet``'s units, floats as their repr."""
    path.write_text("name,ask_price,p_min,p_max,rp_max,ramp_max,hot_start,cold_start,"
                    "no_load_cost\n" + "".join(
                        ",".join([g.name] + [repr(float(v)) for v in dataclasses.astuple(g)[1:]])
                        + "\n" for g in fleet.generators))
    return str(path)


def one_point(fleet, run, alpha, penetration, tmp_path):
    """The one point of a one-level, one-alpha grid of ``run`` cleared with ``fleet``."""
    source = fleet_file(tmp_path / "fleet.csv", fleet)
    point, = run_grid(dataclasses.replace(run, fleet_source=source, alphas=(alpha,),
                                          penetrations=(penetration,)))
    assert point.fleet == (fleet if run.line_limit is None else fleet.head(run.n_buses))
    return point


@pytest.mark.parametrize("fleet,line_limit,load_mean", [
    (POSITIVE_MIN_FLEET, None, (232.0, 174.0, 174.0)),
    (builtin_fleet(), 80.0, (150.0, 75.0, 45.0)),
], ids=["bus", "feeder"])
def test_point_equals_per_scenario_loops(fleet, line_limit, load_mean, tmp_path):
    run = RunConfig(horizon=24, n_scenarios=100, penetrations=(0.9,),
                    capacity_mode="tracking", line_limit=line_limit,
                    load_mean_per_bus=load_mean)
    load, renewable, probs = oracles.scenario_arrays(run, 0.9)
    point = one_point(fleet, run, 0.9, 0.9, tmp_path)
    n_buses, horizon, n_scenarios = load.shape

    if line_limit is None:
        cap = fleet.total_capacity
        regimes = set()
        for k in range(n_scenarios):
            for t in range(horizon):
                demand = min(max(float((load - renewable)[:, t, k].sum()), 0.0), cap)
                power, *_, regime, _ = reference_commit(fleet, demand)
                assert np.array_equal(point.realized[k, t], power)
                regimes.add(regime)
        assert regimes == set(Regime)
        bus_lmps = np.repeat(point.clearing_prices[:, None], n_buses, axis=1)
    else:
        bus_lmps = point.lmps

    revenue, curtailed = 0.0, 0.0
    for k in range(n_scenarios):
        rev_k, cur_k = reference_payment(load[:, :, k].T, renewable[:, :, k].T, bus_lmps)
        revenue += probs[k] * rev_k
        curtailed += probs[k] * cur_k
    assert curtailed > 0.0
    assert point.renewable_revenue == revenue
    assert point.curtailed_mwh == curtailed


@pytest.mark.parametrize("seed", [0, 3, 7])
@pytest.mark.parametrize("fleet,penetration,alpha", [
    (builtin_fleet(), 0.9, 0.9),
    (POSITIVE_MIN_FLEET, 0.3, 0.5),
])
def test_bus_point_commits_per_hour_reference_cvars(seed, fleet, penetration, alpha, tmp_path):
    run = RunConfig(horizon=6, n_scenarios=80, seed=seed, penetrations=(penetration,),
                    alphas=(alpha,), capacity_mode="tracking")
    load, renewable, probs = oracles.scenario_arrays(run, penetration)
    point = one_point(fleet, run, alpha, penetration, tmp_path)
    for t in range(run.horizon):
        cvar = oracles.cvar(np.sum(load[:, t] - renewable[:, t], axis=0), probs, alpha)
        power, price, *_ = reference_commit(fleet, max(0.0, cvar))
        assert same_bits(point.committed[t], power)
        assert same_bits(point.clearing_prices[t], price)
        assert same_bits(point.lmps[t], np.full(len(fleet), price))


@pytest.mark.parametrize("seed", [0, 3, 7, 11])
@pytest.mark.parametrize("penetration,alpha,load_mean,line_limit", [
    (0.9, 0.9, (150.0, 75.0, 45.0), 80.0),      # curtailment active
    (0.009, 0.5, (150.0, 80.0, 50.0), 80.0),
    (0.3, 0.8, (100.0, 50.0, 15.0, 40.0, 8.0, 3.0), 30.0),
])
def test_feeder_point_equals_per_scenario_hour_loop(seed, penetration, alpha, load_mean,
                                                    line_limit):
    fleet = builtin_fleet()
    run = RunConfig(horizon=6, n_scenarios=80, seed=seed, penetrations=(penetration,),
                    alphas=(alpha,), capacity_mode="tracking", line_limit=line_limit,
                    load_mean_per_bus=load_mean)
    point, = run_grid(run)
    units = fleet.head(len(load_mean))
    grid = RadialGrid(len(load_mean), line_limit)
    committed, lmps, prices, realized = reference_feeder_point(
        units, grid, *oracles.scenario_arrays(run, penetration), alpha)
    assert same_bits(point.committed, committed) and same_bits(point.lmps, lmps)
    assert same_bits(point.clearing_prices, prices)
    assert same_bits(point.realized, realized)
    assert point.fleet == units
    rp, dp = reference_envelopes(committed, realized)
    h_total, lambda_w = recovery_rate(committed, rp, dp, units, run.cost_recovery)
    assert point.h_total == h_total and point.lambda_w == lambda_w


# ---------------------------------------------------------------------------
# a whole grid: every level cleared and settled in one batch, against the
# per-level loop it replaced (each level built hour by hour, each point
# cleared and settled on its own)


def reference_weather(config):
    """The (K, T) weather uniforms of ``config``, drawn after its load uniforms."""
    rng = np.random.default_rng(config.seed)
    rng.random((config.n_scenarios, config.n_buses, config.horizon))
    return rng.random((config.n_scenarios, config.horizon))


def reference_build(config, penetration, cap, growth):
    """One level's renewables, hour by hour, raising for its first infeasible hour."""
    n, t_len, k = config.n_buses, config.horizon, config.n_scenarios
    u_weather = reference_weather(config)
    cap = np.asarray(cap, dtype=float)
    cap_total = cap.sum()
    sited = cap > 0.0
    renewable = np.zeros((n, t_len, k))
    for t in range(t_len):
        target = penetration * config.load_mean[:, t].sum()
        if target <= 0.0:
            continue
        if cap_total <= 0.0:
            raise ConfigurationError(
                f"hour {t}: penetration {penetration} needs mean renewable "
                f"output {target:.3f} MW but no capacity is installed")
        share = target / cap_total
        if share > 1.0 + 1e-9:
            raise ConfigurationError(
                f"hour {t}: required system-wide mean share {share:.4f} of capacity "
                f"exceeds 1; infeasible Beta mean on [0, w]")
        mu = min(share, 1.0)
        if mu >= 1.0 - 1e-12:
            renewable[sited, t, :] = cap[sited, None]
            continue
        sigma_hat = min(growth, 0.95 * np.sqrt(mu * (1.0 - mu)))
        if sigma_hat <= 1e-9:
            renewable[sited, t, :] = (mu * cap[sited])[:, None]
            continue
        ratio = mu * (1.0 - mu) / (sigma_hat * sigma_hat) - 1.0
        renewable[sited, t, :] = cap[sited, None] * special.betaincinv(
            mu * ratio, (1.0 - mu) * ratio, u_weather[:, t])
    np.clip(renewable, 0.0, cap[:, None, None], out=renewable)
    return renewable


def reference_clear_bus(fleet, load, renewable, probs, alpha):
    net = load - renewable
    agg = net.sum(axis=0)
    _, cvars = cvar_rows(agg, probs, alpha)
    batch = commit_batch(fleet, np.maximum(cvars, 0.0))
    prices = batch.clearing_price
    lmps = np.repeat(prices[:, None], len(fleet), axis=1)
    bus_lmps = np.repeat(prices[:, None], load.shape[0], axis=1)
    demands = np.minimum(np.maximum(agg.T, 0.0), fleet.total_capacity)
    realized = commit_batch(fleet, demands.ravel()).power
    return batch.power, lmps, prices, bus_lmps, realized.reshape(*demands.shape, len(fleet))


def reference_clear_feeder(fleet, grid, load, renewable, probs, alpha):
    n, t_len, k_len = load.shape
    net = load - renewable
    cvars = np.empty((t_len, 2 * n))
    for t in range(t_len):
        tails = [net[i:, t].sum(axis=0) for i in range(n)]
        cvars[t] = cvar_rows(np.vstack([net[:, t], *tails]), probs, alpha)[1]
    batch = dispatch_radial_batch(grid, fleet, cvars[:, :n], cvars[:, n:])
    rows = net.transpose(2, 1, 0).reshape(k_len * t_len, n)
    suffix = np.cumsum(rows[:, ::-1], axis=1)[:, ::-1]
    realized = dispatch_radial_batch(grid, fleet, rows, suffix).power
    return (batch.power, batch.lmps, batch.lmps.max(axis=1), batch.lmps,
            realized.reshape(k_len, t_len, n))


def reference_point(fleet, run, arrays, alpha, penetration):
    """One point cleared and settled on its own, raising its first failure;
    ``arrays`` is its level's (load, renewable, probabilities)."""
    load, renewable, probs = arrays
    if run.line_limit is None:
        units = fleet
        cleared = reference_clear_bus(fleet, *arrays, alpha)
    else:
        units = fleet.head(run.n_buses)
        cleared = reference_clear_feeder(units, RadialGrid(run.n_buses, run.line_limit),
                                         *arrays, alpha)
    committed, lmps, prices, bus_lmps, realized = cleared
    rp, dp = deviation_envelopes(committed, realized)
    violations = reserve_and_ramp_check(committed, realized, rp, dp, units)
    h_total, lambda_w = recovery_rate(committed, rp, dp, units, run.cost_recovery)
    r_expected = expected_profit(committed, lmps, units)
    r_realized = realized_profit(realized, probs, lmps, units)
    rev_k, cur_k = curtail_and_pay_renewables(
        np.ascontiguousarray(load.transpose(2, 1, 0)).sum(axis=-1),
        renewable.transpose(2, 1, 0), bus_lmps)
    return PointResult(alpha, penetration, committed, realized, lmps, prices, h_total,
                       lambda_w, r_expected, r_realized, r_expected - r_realized,
                       float(sum_in_order(probs * rev_k)),
                       float(sum_in_order(probs * cur_k)), violations, units)


def reference_grid(run, failures):
    """The per-level loop: build each level's set, then evaluate each alpha on
    it; each skipped level or point appends its (coordinates, error)."""
    fleet = load_fleet(run.fleet_source)
    config = scenario_config(run)
    load = oracles.loads(config)
    probabilities = np.full(run.n_scenarios, 1.0 / run.n_scenarios)
    points = []
    for penetration in run.penetrations:
        try:
            renewable = reference_build(
                config, penetration,
                derive_capacity(run.load_mean_per_bus, penetration, run.capacity_mode),
                run.uncertainty_growth)
        except ConfigurationError as exc:
            failures.append((f"penetration={penetration}", exc))
            continue
        arrays = (load, renewable, probabilities)
        for alpha in run.alphas:
            try:
                points.append(reference_point(fleet, run, arrays, alpha, penetration))
            except InfeasibleDispatchError as exc:
                failures.append((f"alpha={alpha}, penetration={penetration}", exc))
    return points


# a point's settled figures, the fields of PointResult between its prices and its fleet
SETTLED = ("h_total", "lambda_w", "expected_profit", "realized_profit", "deviation_cost",
           "renewable_revenue", "curtailed_mwh", "violations")


def assert_points_equal(got, want):
    assert [field.name for field in dataclasses.fields(PointResult)] == [
        "alpha", "penetration", "committed", "realized", "lmps", "clearing_prices",
        *SETTLED, "fleet"]
    assert (got.alpha, got.penetration, got.fleet) == (want.alpha, want.penetration,
                                                       want.fleet)
    for name in ("committed", "realized", "lmps", "clearing_prices"):
        assert same_bits(getattr(got, name), getattr(want, name)), name
    for name in SETTLED:
        g, w = getattr(got, name), getattr(want, name)
        if name == "violations":
            assert g == w
        else:
            assert type(g) is float and same_bits(g, w), name


def write_fleet(path, units):
    """A fleet CSV of (name, ask, p_min, p_max, ramp_max[, rp_max]) units; the
    reserve cap is p_max where a unit gives none."""
    path.write_text("name,ask_price,p_min,p_max,rp_max,ramp_max,hot_start,cold_start,"
                    "no_load_cost\n"
                    + "".join(f"{name},{ask},{p_min},{p_max},{(*rp, p_max)[0]},{ramp},400,900,5\n"
                              for name, ask, p_min, p_max, ramp, *rp in units))
    return str(path)


# nine buses with distinct non-integer means: each hour's target is a sum of
# unequal means, which np.sum over the bus axis would round differently
UNEQUAL_BUSES = (31.7, 12.25, 40.1, 18.6, 27.35, 9.9, 22.45, 35.8, 3.3)
# at 1.1 the buildout capacity (1.1x the mean load) is exactly used; at 2.0
# the level cannot be drawn
LEVELS = (0.0, 0.4, 1.1, 2.0, 0.9)


UNDRAWABLE = "penetration=2.0: hour 0: required system-wide mean share"


def test_grid_level_at_buildout_capacity_is_at_capacity():
    run = RunConfig(load_mean_per_bus=UNEQUAL_BUSES, horizon=3, n_scenarios=40, seed=11)
    config = scenario_config(run)
    cap = derive_capacity(UNEQUAL_BUSES, LEVELS[2], run.capacity_mode)
    renewable = reference_build(config, LEVELS[2], cap, run.uncertainty_growth)
    assert np.array_equal(renewable, np.broadcast_to(cap[:, None, None], renewable.shape))


@pytest.mark.parametrize("seed", range(8))
def test_level_renewables_equal_masked_and_clipped_build(seed):
    # a level's renewables are capacity times share alone: the per-level
    # loop's zero-fill of unsited buses and clip to [0, capacity] change no
    # bit, sign of zero included; a -0.0 capacity gives +0.0
    rng = np.random.default_rng(seed)
    n, t_len, k = int(rng.integers(1, 10)), int(rng.integers(1, 5)), int(rng.integers(1, 60))
    mean = np.repeat(rng.uniform(0.0, 200.0, (n, 1)), t_len, axis=1)
    growth = float(rng.choice([0.0, 0.05, 0.27]))
    sited = rng.random(n) > 0.3
    sited[0] = True
    penetrations = (0.0, -0.0, 0.4, 1.1, 0.6)
    caps = 1.1 * mean[:, 0] * np.array([1.0, -0.0, 1.0, 1.0, 2.0])[:, None]
    caps[2] *= sited             # unsited buses at +0.0
    caps[4, ~sited] = -0.0       # and at -0.0
    config = ScenarioConfig(n_buses=n, horizon=t_len, n_scenarios=k, seed=seed,
                            load_mean=mean, load_std=0.06 * mean)
    drawn = draw_and_build(config, penetrations, caps, growth)
    assert drawn.errors == (None,) * len(penetrations)
    for level, (penetration, cap) in enumerate(zip(penetrations, caps)):
        got = drawn.renewable(level)
        assert not got.flags.writeable
        want = reference_build(config, penetration, cap, growth)
        negative_zero = np.signbit(cap)
        assert same_bits(got[~negative_zero], want[~negative_zero])
        assert same_bits(got[negative_zero], np.zeros_like(got[negative_zero]))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_levels_above_the_split_threshold_equal_per_hour_build(workers, monkeypatch):
    # T 24 and K 1000 over four levels, with a different Beta shape in every
    # (level, hour): far above scenarios._SPLIT_MIN, so draw_and_build cuts
    # its one betaincinv call into row blocks on threads
    monkeypatch.setattr(scenarios, "_workers", lambda: workers)
    rng = np.random.default_rng(26)
    n, t_len, k = 3, 24, 1000
    mean = rng.uniform(20.0, 150.0, (n, t_len))
    penetrations = (0.15, 0.4, 0.65, 0.9)
    caps = np.outer([1.0, 1.4, 1.1, 2.0], 1.2 * mean.max(axis=1))
    growth = 0.2
    config = ScenarioConfig(n_buses=n, horizon=t_len, n_scenarios=k, seed=7,
                            load_mean=mean, load_std=0.1 * mean)
    assert len(penetrations) * t_len * k >= scenarios._SPLIT_MIN
    drawn = draw_and_build(config, penetrations, caps, growth)
    assert drawn.errors == (None,) * len(penetrations)
    assert same_bits(drawn.load, reference_scenarios(config, 0.0, np.zeros(n), growth)[0])
    for level, (penetration, cap) in enumerate(zip(penetrations, caps)):
        want = reference_build(config, penetration, cap, growth)
        assert same_bits(drawn.renewable(level), want)


@pytest.mark.parametrize("cost_recovery", [0, 1])
@pytest.mark.parametrize("case,expected", [
    # bus: the built-in fleet, every drawable level and both alphas settle
    (dict(load_mean_per_bus=UNEQUAL_BUSES), [UNDRAWABLE]),
    # bus: a 205 MW fleet cannot commit the tail at penetration 0, and its
    # 30 MW minimum cannot carry some realized demands at higher penetration
    (dict(load_mean_per_bus=UNEQUAL_BUSES,
          fleet=[("a", 10, 40, 120, 60), ("b", 20, 30, 85, 30)]),
     ["alpha=0.95, penetration=0.0: demand 210.23 MW outside the servable range",
      "alpha=0.5, penetration=0.4: no single unit can carry", UNDRAWABLE]),
    # bus: at penetration 3 and alpha 0.5 every CVaR is <= 0, nothing is
    # committed and H cannot be recovered
    (dict(capacity_mode="tracking", penetrations=(0.009, 3.0, 0.5)),
     ["alpha=0.5, penetration=3.0: cost recovery requested"]),
    # bus: at penetration 1.5 and alpha 0.5 the 205 MW fleet commits nothing,
    # so H cannot be recovered, and its minimums cannot carry some realized
    # demands: the re-dispatch's error is the one reported
    (dict(load_mean_per_bus=(60.0, 40.0, 30.0), capacity_mode="tracking",
          penetrations=(0.2, 1.5, 3.0),
          fleet=[("a", 10, 40, 120, 60), ("b", 20, 30, 85, 30)]),
     ["alpha=0.5, penetration=1.5: no single unit can carry"]),
    # feeder: at penetration 0 the commitment fails for alpha 0.95 and the
    # re-dispatch, which it would also fail, for alpha 0.5
    (dict(line_limit=80.0, load_mean_per_bus=(150.0, 80.0, 65.0)),
     ["alpha=0.95, penetration=0.0: bus 1: tail requirement 155.072 MW",
      "alpha=0.5, penetration=0.0: bus 1: tail requirement 158.373 MW", UNDRAWABLE]),
    (dict(line_limit=80.0, load_mean_per_bus=(150.0, 75.0, 45.0), horizon=4), [UNDRAWABLE]),
    (dict(line_limit=30.0, load_mean_per_bus=(100.0, 50.0, 15.0, 40.0, 8.0, 3.0),
          capacity_mode="tracking", penetrations=(0.0, 0.3, 0.9)), []),
    # reserve caps of 2 MW and ramp caps of 3 MW/h: points at three levels
    # and both alphas carry a sale above commitment, reserve and ramp texts
    (dict(load_mean_per_bus=UNEQUAL_BUSES, several_violations=True,
          fleet=[("a", 10, 0, 150, 3, 2), ("b", 20, 0, 120, 3, 2), ("c", 35, 0, 100, 3, 2)]),
     [UNDRAWABLE]),
    (dict(line_limit=80.0, load_mean_per_bus=(150.0, 75.0, 45.0), several_violations=True,
          fleet=[("a", 10, 0, 300, 3, 2), ("b", 20, 0, 200, 3, 2), ("c", 35, 0, 150, 3, 2)]),
     [UNDRAWABLE]),
], ids=["bus", "bus-small-fleet", "bus-unrecoverable", "bus-unrecoverable-and-unservable",
        "feeder-infeasible", "feeder", "feeder-six-buses", "bus-tight-caps",
        "feeder-tight-caps"])
def test_grid_equals_per_level_loop(case, expected, cost_recovery, tmp_path):
    case = dict(case)
    several_violations = case.pop("several_violations", False)
    if "fleet" in case:
        case["fleet_source"] = write_fleet(tmp_path / "fleet.csv", case.pop("fleet"))
    shape = dict(alphas=(0.95, 0.5), penetrations=LEVELS, horizon=3, n_scenarios=40,
                 seed=11, capacity_mode="buildout", cost_recovery=cost_recovery)
    run = RunConfig(**{**shape, **case})
    failures, got_notes = [], []
    want = reference_grid(run, failures)
    got = run_grid(run, got_notes)
    want_notes = [f"{where}: {exc}" for where, exc in failures]
    assert got_notes == want_notes
    for start in expected:
        if cost_recovery or "cost recovery" not in start:
            assert any(note.startswith(start) for note in want_notes), start
    assert len(got) == len(want) > 0
    for g, w in zip(got, want):
        assert_points_equal(g, w)
    if several_violations:
        for alpha in run.alphas:
            levels = [p.penetration for p in got if p.alpha == alpha and all(
                any(kind in text for text in p.violations)
                for kind in ("above its commitment", "needed reserve", "scenario-pair swing"))]
            assert len(levels) >= 2, alpha
    # without a list, the first failure in (level, alpha) order is raised
    if failures:
        with pytest.raises(type(failures[0][1])) as err:
            run_grid(run)
        assert str(err.value) == str(failures[0][1])


def test_failed_points_get_no_reserve_and_ramp_texts(monkeypatch, tmp_path):
    # the bus-small-fleet grid: the alpha 0.95, penetration 0 point fails its
    # commitment, which is zeroed against realized power that is not, so a
    # check over it would name a sale above commitment; a point that failed
    # its commitment, re-dispatch or cost recovery gets no text, and every
    # other point the texts it prints
    run = RunConfig(alphas=(0.95, 0.5), penetrations=LEVELS, horizon=3, n_scenarios=40,
                    seed=11, load_mean_per_bus=UNEQUAL_BUSES, cost_recovery=1,
                    fleet_source=write_fleet(tmp_path / "fleet.csv", [
                        ("a", 10, 40, 120, 60), ("b", 20, 30, 85, 30)]))
    checked = []

    def recording(*args):
        checked.append(real(*args))
        return checked[-1]

    real = experiment.reserve_and_ramp_check
    monkeypatch.setattr(experiment, "reserve_and_ramp_check", recording)
    notes = []
    points = run_grid(run, notes)
    (texts,) = checked
    kept = [p for p in LEVELS if p != 2.0]
    printed = {(p.alpha, p.penetration): p.violations for p in points}
    assert "alpha=0.95, penetration=0.0: demand 210.23 MW outside the servable range" in [
        note.split(" [")[0] for note in notes]
    assert (0.95, 0.0) not in printed
    for a, alpha in enumerate(run.alphas):
        for level, penetration in enumerate(kept):
            assert texts[a][level] == printed.get((alpha, penetration), []), (alpha, penetration)
    assert any(printed.values())


# ---------------------------------------------------------------------------
# the realized re-dispatch in row blocks


def clear_levels(run):
    """``run_grid``'s clearing of every drawable level: the commitment of
    every (alpha, level) point, the realized power and each level's
    re-dispatch error."""
    fleet = load_fleet(run.fleet_source)
    drawn = draw_and_build(scenario_config(run), run.penetrations,
                           [derive_capacity(run.load_mean_per_bus, p, run.capacity_mode)
                            for p in run.penetrations], run.uncertainty_growth)
    kept = [level for level, error in enumerate(drawn.errors) if error is None]
    inputs = (drawn.load, drawn.probabilities, lambda i: drawn.renewable(kept[i]),
              len(kept), run.alphas)
    if run.line_limit is None:
        return experiment._clear_bus(fleet, *inputs)
    return experiment._clear_feeder(fleet.head(run.n_buses),
                                    RadialGrid(run.n_buses, run.line_limit), *inputs)


def error_texts(errors):
    return [None if e is None else (type(e), str(e)) for e in errors]


BLOCK = 7  # divides no level's K*T rows, so blocks straddle levels


@pytest.mark.parametrize("case,argv", [
    # bus: the 205 MW fleet's minimums cannot carry some realized demands, and
    # at penetration 0 its commitment fails first for alpha 0.95
    (dict(seed=11, fleet=[("a", 10, 40, 120, 60), ("b", 20, 30, 85, 30)]),
     ["sweep-alpha", "--alpha", "0.95,0.5", "--penetration", "0.4"]),
    # feeder: three levels fail their re-dispatch first at row 44; at
    # penetration 0 the commitment fails before it for alpha 0.95
    (dict(seed=10, line_limit=80.0, load_mean_per_bus=(150.0, 80.0, 65.0)),
     ["sweep-penetration", "--line-limit", "80", "--load-mean", "150,80,65",
      "--penetration", "0.0,0.4,1.1,2.0,0.9"]),
], ids=["bus", "feeder"])
def test_blocked_redispatch_equals_one_block(case, argv, monkeypatch, tmp_path):
    case = dict(case)
    if "fleet" in case:
        case["fleet_source"] = write_fleet(tmp_path / "fleet.csv", case.pop("fleet"))
        argv = argv + ["--fleet", case["fleet_source"]]
    run = RunConfig(**{**dict(alphas=(0.95, 0.5), penetrations=LEVELS, horizon=3,
                              n_scenarios=40), **case})
    kernel = "_commit_rows" if run.line_limit is None else "_radial_rows"
    masks = []

    def recording(*args):
        out = real(*args)
        masks.append(out[1])
        return out

    real = getattr(experiment, kernel)
    monkeypatch.setattr(experiment, kernel, recording)
    commitment, realized, errors = clear_levels(run)
    assert experiment._BLOCK_ROWS >= realized[..., 0].size  # one block
    monkeypatch.setattr(experiment, "_BLOCK_ROWS", BLOCK)
    masks.clear()
    blocked_commitment, blocked, blocked_errors = clear_levels(run)
    assert same_bits(blocked, realized)
    assert error_texts(blocked_errors) == error_texts(errors)
    assert error_texts(blocked_commitment.errors) == error_texts(commitment.errors)

    # the commitment of every alpha is one kernel call; the re-dispatch ran
    # in blocks, and some level's first failing row lies past the level's
    # first block
    redispatch = masks[1:]
    assert [len(m) for m in redispatch[:-1]] == [BLOCK] * (len(redispatch) - 1)
    failed = np.concatenate(redispatch).reshape(realized.shape[0], -1)
    width = failed.shape[1]
    first = [level * width + int(rows.argmax()) for level, rows in enumerate(failed)
             if rows.any()]
    assert any(row // BLOCK > (row - row % width) // BLOCK for row in first)
    # a level whose commitment fails for one alpha also fails its re-dispatch
    assert any(c and r for c, r in zip(commitment.errors, errors * len(run.alphas)))

    # the same skipped points and CSV through the command line, with the
    # number of levels in each realized-profit call recorded
    monkeypatch.setattr(experiment, kernel, real)
    profit = experiment.realized_profit

    def recording_profit(realized, *args):
        blocks.append(len(realized))
        return profit(realized, *args)

    monkeypatch.setattr(experiment, "realized_profit", recording_profit)
    argv = argv + ["--horizon", "3", "--scenarios", "40", "--seed", str(run.seed)]
    outputs, profit_blocks = [], []
    for rows in (BLOCK, 1 << 20):
        monkeypatch.setattr(experiment, "_BLOCK_ROWS", rows)
        out = tmp_path / str(rows)
        blocks = []
        result = CliRunner().invoke(main, argv + ["--out", str(out)])
        assert result.exit_code == 0, result.output
        (csv_file,) = out.iterdir()
        outputs.append((result.stderr, csv_file.read_bytes()))
        profit_blocks.append(blocks)
    assert outputs[0] == outputs[1]
    assert "skipped: " in outputs[0][0]
    # at 7 rows each alpha's profit runs one level per block, and in one block
    # at 2**20: the bus command settles one level for two alphas, the feeder
    # command four levels for one
    levels, alphas = (1, 2) if run.line_limit is None else (4, 1)
    assert profit_blocks == [[1] * (levels * alphas), [levels] * alphas]


FEEDER_80 = ["--line-limit", "80", "--load-mean", "150,75,45"]


@pytest.mark.parametrize("argv,least", [
    # three alphas settled on one bus, each with a realized profit
    (["sweep-alpha", "--alpha", "0.5,0.9,0.99"], {"R_tilde": 3}),
    # eleven levels, each realized profit apart from its expected one
    (["sweep-penetration"], {"deviation_cost": 11, "renewable_profit": 10}),
    # the feeder commits each unit at its own bus's price, so R is 0 and
    # R_tilde is 0 but where the re-dispatch runs a unit it did not commit;
    # H reads the re-dispatch through the envelopes, and the renewable
    # payment reads each level's bus prices
    (["sweep-alpha", "--alpha", "0.5,0.9,0.99", *FEEDER_80], {"H": 3}),
    (["sweep-penetration", *FEEDER_80], {"renewable_profit": 10, "deviation_cost": 1}),
], ids=["bus-alphas", "bus-levels", "feeder-alphas", "feeder-levels"])
def test_blocked_settlement_equals_one_block(argv, least, monkeypatch, tmp_path):
    # blocks of 7 rows straddle the 120 scenario-hours of every level, and
    # hold one level per realized-profit call; the settled figures are
    # byte-identical to one block's
    profit = experiment.realized_profit

    def recording_profit(realized, *args):
        blocks.append(len(realized))
        return profit(realized, *args)

    monkeypatch.setattr(experiment, "realized_profit", recording_profit)
    argv = argv + ["--horizon", "3", "--scenarios", "40", "--seed", "11"]
    outputs, profit_blocks = [], []
    for rows in (BLOCK, 1 << 20):
        monkeypatch.setattr(experiment, "_BLOCK_ROWS", rows)
        out = tmp_path / str(rows)
        blocks = []
        result = CliRunner().invoke(main, argv + ["--out", str(out)])
        assert result.exit_code == 0, result.output
        (csv_file,) = out.iterdir()
        outputs.append((result.stderr, csv_file.read_bytes()))
        profit_blocks.append(blocks)
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == ""  # no point skipped
    header, *lines = outputs[0][1].decode().splitlines()
    for column, count in least.items():
        cells = [float(line.split(",")[header.split(",").index(column)]) for line in lines]
        assert sum(cell != 0.0 for cell in cells) >= count, column
    n_alphas, n_levels = (3, 1) if argv[0] == "sweep-alpha" else (1, 11)
    assert len(lines) == n_alphas * n_levels
    assert profit_blocks == [[1] * (n_alphas * n_levels), [n_levels] * n_alphas]


@pytest.mark.parametrize("market", [{}, dict(line_limit=80.0,
                                             load_mean_per_bus=(150.0, 75.0, 45.0))],
                         ids=["bus", "feeder"])
def test_commitment_record_keeps_each_levels_risk_rows(market):
    # the record holds, for each alpha, the VaR and CVaR rows its commitment
    # was cleared against, as cvar_rows returns them on each level's own
    # draw: the hourly aggregate on one bus, each hour's bus rows and then
    # its tails on the feeder; a served hour commits its clipped (tail) CVaR
    run = RunConfig(alphas=(0.5, 0.9, 0.99), penetrations=(0.009, 0.5, 0.9), horizon=4,
                    n_scenarios=200, seed=18, capacity_mode="tracking", **market)
    commitment, _, _ = clear_levels(run)
    n, t_len, k_len = run.n_buses, run.horizon, run.n_scenarios
    n_levels = len(run.penetrations)
    assert len(commitment.errors) == len(run.alphas) * n_levels
    served = 0
    for a, alpha in enumerate(run.alphas):
        units = n if market else len(builtin_fleet())
        assert commitment.power[a].shape == commitment.lmps[a].shape == (3, t_len, units)
        assert commitment.paid_at.tolist() == (list(range(n)) if market else [0] * n)
        for level, penetration in enumerate(run.penetrations):
            load, renewable, probs = oracles.scenario_arrays(run, penetration)
            net = load - renewable  # (buses, T, K)
            if market:
                rows = np.empty((t_len, 2 * n, k_len))
                rows[:, :n] = net.transpose(1, 0, 2)
                for i in range(n):
                    rows[:, n + i] = net[i:].sum(axis=0)
            else:
                rows = net.sum(axis=0)
            var, cvar = cvar_rows(rows.reshape(-1, k_len), probs, alpha)
            assert same_bits(commitment.var[a, level], var.reshape(rows.shape[:-1]))
            assert same_bits(commitment.cvar[a, level], cvar.reshape(rows.shape[:-1]))
            if commitment.errors[a * n_levels + level] is None:
                required = (commitment.cvar[a, level][:, n] if market
                            else commitment.cvar[a, level])
                np.testing.assert_allclose(commitment.power[a, level].sum(axis=1),
                                           np.maximum(required, 0.0), rtol=0.0, atol=1e-9)
                served += t_len
    assert served == 3 * 3 * t_len
