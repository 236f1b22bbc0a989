"""Batched kernels against per-row reference loops, compared bit for bit.

Each reference below is the scalar loop the batched code replaced, written
out here so the comparison does not depend on the package: the closed-form
commitment one demand at a time, scenario draws one (bus, hour) at a time,
and the renewable payment one scenario and one hour at a time.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from gridclear import (Fleet, GeneratorSpec, InfeasibleDispatchError, Regime,
                       RunConfig, ScenarioConfig, builtin_fleet, commit, commit_batch,
                       curtail_and_pay_renewables, evaluate_point, generate_scenarios,
                       scenario_config)

# ---------------------------------------------------------------------------
# references


def reference_commit(fleet, demand):
    """Scalar closed-form commitment: (power, price, mu, mu_bar, regime, marginal)."""
    demand = float(demand)
    asks, p_min, p_max = fleet.ask_prices, fleet.p_mins, fleet.p_maxs
    n = len(fleet)
    bounds = (float(p_min.min()), float(p_max.sum()))

    def fail(message):
        return InfeasibleDispatchError(message, demand=demand, fleet_bounds=bounds)

    if not np.isfinite(demand):
        raise fail(f"demand {demand} MW must be finite")
    if demand < 0.0 or demand > bounds[1] + 1e-9:
        raise fail(f"demand {demand:.6g} MW outside the servable range [0, {bounds[1]:.6g}]")
    power = np.zeros(n)
    if demand == 0.0:
        price = float(asks[0])
        return power, price, np.zeros(n), np.maximum(asks - price, 0.0), Regime.INTERIOR, 0
    if demand < p_min[0]:
        for i in range(n):
            if p_min[i] <= demand < p_max[i]:
                power[i] = demand
                price = float(asks[i])
                mu_bar = np.maximum(asks - price, 0.0)
                mu_bar[:i + 1] = 0.0
                return power, price, np.zeros(n), mu_bar, Regime.SMALL_DEMAND, i
        raise fail(f"no single unit can carry the sub-minimum demand {demand:.6g} MW")
    prefix = np.concatenate(([0.0], np.cumsum(p_max)))
    k = min(int(np.searchsorted(prefix[1:], demand, side="left")), n - 1)
    residual = demand - prefix[k]
    mu, mu_bar = np.zeros(n), np.zeros(n)
    if residual >= p_min[k]:
        power[:k] = p_max[:k]
        power[k] = residual
        price = float(asks[k])
        mu[:k] = price - asks[:k]
        mu_bar[k + 1:] = np.maximum(asks[k + 1:] - price, 0.0)
        return power, price, mu, mu_bar, Regime.INTERIOR, k
    backdown = demand - prefix[k - 1] - p_min[k]
    if not p_min[k - 1] < backdown < p_max[k - 1]:
        raise fail(f"back-down target {backdown:.6g} MW outside unit {k - 1}'s box "
                   f"[{p_min[k - 1]:.6g}, {p_max[k - 1]:.6g}]; "
                   f"adjustable-range assumption violated")
    power[:k - 1] = p_max[:k - 1]
    power[k - 1] = backdown
    power[k] = p_min[k]
    price = float(asks[k - 1])
    mu[:k - 1] = price - asks[:k - 1]
    mu_bar[k] = asks[k] - price
    mu_bar[k + 1:] = np.maximum(asks[k + 1:] - price, 0.0)
    return power, price, mu, mu_bar, Regime.BELOW_PMIN, k - 1


def reference_scenarios(config):
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
    cap = config.renewable_capacity
    renewable = np.zeros((n, t_len, k))
    for t in range(t_len):
        target = config.penetration * config.load_mean[:, t].sum()
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
            sigma_hat = min(config.uncertainty_growth, 0.95 * np.sqrt(mu * (1.0 - mu)))
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
        assert err.value.fleet_bounds == first_error.fleet_bounds
        assert repr(err.value.demand) == repr(first_error.demand)
    else:
        batch = commit_batch(fleet, demands)
        assert batch.power.shape == (len(demands), len(fleet))
        for r, (power, price, _, _, regime, marginal) in enumerate(expected):
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
        power, price, mu, mu_bar, regime, marginal = ref
        assert np.array_equal(res.power, power)
        assert res.clearing_price == price
        assert np.array_equal(res.mu, mu) and np.array_equal(res.mu_bar, mu_bar)
        assert res.regime is regime and res.marginal_index == marginal
    return [ref[4] for ref in expected if not isinstance(ref, InfeasibleDispatchError)]


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
    with pytest.raises(InfeasibleDispatchError, match="back-down target 80 MW") as err:
        commit_batch(fleet, demands)
    assert err.value.demand == 130.0
    with pytest.raises(InfeasibleDispatchError, match="outside the servable range"):
        commit_batch(fleet, demands[2:])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_demand_rejected(bad):
    fleet = builtin_fleet()
    with pytest.raises(InfeasibleDispatchError, match="must be finite") as err:
        commit(fleet, bad)
    assert err.value.fleet_bounds == (0.0, 960.0)
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


def test_fleet_columns_are_read_only():
    fleet = builtin_fleet()
    for column in (fleet.ask_prices, fleet.p_mins, fleet.p_maxs,
                   fleet.production_cost_rates, fleet.p_max_prefix):
        with pytest.raises(ValueError):
            column[0] = 1.0
    assert list(fleet.p_max_prefix) == [0, 400, 555, 631, 828, 928, 940, 960]


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
                         load_mean=mean, load_std=std, renewable_capacity=cap,
                         penetration=penetration, uncertainty_growth=growth)
    load, renewable = reference_scenarios(cfg)
    got = generate_scenarios(cfg)
    assert np.array_equal(got.load, load)
    assert np.array_equal(got.renewable, renewable)


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

    rev, cur = curtail_and_pay_renewables(load.transpose(2, 1, 0),
                                          renewable.transpose(2, 1, 0), lmps)
    assert rev.shape == cur.shape == (k_len,)
    curtailed_somewhere = False
    for k in range(k_len):
        ref_rev, ref_cur = reference_payment(load[:, :, k].T, renewable[:, :, k].T, lmps)
        assert rev[k] == ref_rev and cur[k] == ref_cur
        one = curtail_and_pay_renewables(load[:, :, k].T, renewable[:, :, k].T, lmps)
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


@pytest.mark.parametrize("fleet,line_limit,load_mean", [
    (POSITIVE_MIN_FLEET, None, (232.0, 174.0, 174.0)),
    (builtin_fleet(), 80.0, (150.0, 75.0, 45.0)),
], ids=["bus", "feeder"])
def test_point_equals_per_scenario_loops(fleet, line_limit, load_mean):
    run = RunConfig(horizon=24, n_scenarios=100, penetrations=(0.9,),
                    capacity_mode="tracking", line_limit=line_limit,
                    load_mean_per_bus=load_mean)
    sset = generate_scenarios(scenario_config(run, 0.9))
    point = evaluate_point(fleet, run, sset, 0.9, 0.9)

    if line_limit is None:
        cap = fleet.total_capacity
        regimes = set()
        for k in range(sset.n_scenarios):
            for t in range(sset.horizon):
                demand = min(max(float((sset.load - sset.renewable)[:, t, k].sum()), 0.0), cap)
                power, *_, regime, _ = reference_commit(fleet, demand)
                assert np.array_equal(point.realized[k, t], power)
                regimes.add(regime)
        assert regimes == set(Regime)
        bus_lmps = np.repeat(point.clearing_prices[:, None], sset.n_buses, axis=1)
    else:
        bus_lmps = point.lmps

    revenue, curtailed = 0.0, 0.0
    for k in range(sset.n_scenarios):
        rev_k, cur_k = reference_payment(sset.load[:, :, k].T, sset.renewable[:, :, k].T,
                                         bus_lmps)
        revenue += sset.probabilities[k] * rev_k
        curtailed += sset.probabilities[k] * cur_k
    assert curtailed > 0.0
    assert point.settlement.renewable_revenue == revenue
    assert point.settlement.curtailed_mwh == curtailed
