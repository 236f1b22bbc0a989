"""Merit-order commitment: worked examples, enumeration oracle, KKT residuals."""

import dataclasses
import itertools
import re

import numpy as np
import pytest

from gridclear import (Fleet, GeneratorSpec, InfeasibleDispatchError, Regime, builtin_fleet,
                       commit, cvar_rows, kkt_residuals)

# ---------------------------------------------------------------------------
# oracle: enumerate unit states {off, at-min, at-max, free}; at most one free
# unit absorbs the balance residual; keep the cheapest feasible allocation


def enumeration_oracle(fleet, demand, tol=1e-9):
    n = len(fleet)
    prices = fleet.ask_prices
    p_min = fleet.p_mins
    p_max = fleet.p_maxs
    best_cost, best_alloc = None, None
    for states in itertools.product(range(4), repeat=n):
        if sum(1 for s in states if s == 3) > 1:
            continue
        alloc = np.zeros(n)
        free = None
        for i, s in enumerate(states):
            if s == 1:
                alloc[i] = p_min[i]
            elif s == 2:
                alloc[i] = p_max[i]
            elif s == 3:
                free = i
        if free is None:
            if abs(alloc.sum() - demand) > tol:
                continue
        else:
            x = demand - alloc.sum()
            if not p_min[free] - tol <= x <= p_max[free] + tol:
                continue
            alloc[free] = x
        cost = float(prices @ alloc)
        if best_cost is None or cost < best_cost - 1e-12:
            best_cost, best_alloc = cost, alloc
    return best_cost, best_alloc


def random_fleet(rng, max_units=4):
    """Random fleet satisfying strict price order and the adjustable-range clause.

    Minima are non-decreasing along the merit order; a later unit with a
    smaller positive minimum can make a non-prefix commitment pattern cheaper
    than the closed form (see the small-demand test for that regime).
    """
    n = int(rng.integers(1, max_units + 1))
    prices = np.sort(rng.uniform(5.0, 300.0, n))
    while np.any(np.diff(prices) < 1e-3):
        prices = np.sort(rng.uniform(5.0, 300.0, n))
    width = rng.uniform(50.0, 200.0, n)
    # ranges all exceed every minimum: p_min < min(width) enforced below
    p_min = rng.uniform(0.0, 0.8 * width.min(), n)
    p_min[rng.random(n) < 0.4] = 0.0
    p_min = np.sort(p_min)
    p_max = p_min + width
    gens = tuple(GeneratorSpec(f"u{i}", float(prices[i]), float(p_min[i]),
                               float(p_max[i]), float(p_max[i]), float(p_max[i]))
                 for i in range(n))
    return Fleet(gens)


def random_small_demand_instance(rng):
    """Instance whose demand sits below the cheapest unit's minimum."""
    n = int(rng.integers(2, 5))
    prices = np.sort(rng.uniform(5.0, 300.0, n))
    if np.any(np.diff(prices) < 1e-3):
        return None
    width = rng.uniform(50.0, 200.0, n)
    p_min = rng.uniform(0.0, 0.8 * width.min(), n)
    p_min[0] = rng.uniform(10.0, 0.8 * width.min())
    p_max = p_min + width
    fleet = Fleet(tuple(GeneratorSpec(f"u{i}", float(prices[i]), float(p_min[i]),
                                      float(p_max[i])) for i in range(n)))
    demand = float(rng.uniform(0.0, p_min[0] * 0.999))
    if demand < p_min.min():
        return None
    return fleet, demand


def feasible_demand(rng, fleet):
    lo = float(fleet.p_mins.min())
    hi = float(fleet.p_maxs.sum())
    return float(rng.uniform(lo, hi))


# ---------------------------------------------------------------------------
# feasibility, as the kernel decides it


def test_table_fleet_demand_ok():
    commit(builtin_fleet(), 500.0)


def test_demand_beyond_capacity_flagged():
    fleet = builtin_fleet()
    assert fleet.total_capacity == 960.0
    with pytest.raises(InfeasibleDispatchError, match=re.escape(
            "demand 2000 MW outside the servable range [0, 960]")):
        commit(fleet, 2000.0)


def test_range_clause_two_units():
    fleet = Fleet((GeneratorSpec("a", 10, 0, 100), GeneratorSpec("b", 20, 50, 155)))
    commit(fleet, 120.0)


def test_range_clause_violation_flagged():
    # a = [95, 100] leaves unit b's minimum 50 no room at 120 MW
    fleet = Fleet((GeneratorSpec("a", 10, 95, 100), GeneratorSpec("b", 20, 50, 155)))
    with pytest.raises(InfeasibleDispatchError, match=re.escape(
            "back-down target 70 MW outside unit 0's box [95, 100]; "
            "adjustable-range assumption violated")):
        commit(fleet, 120.0)


def test_range_clause_is_checked_per_demand():
    # the same fleet clears 150 MW as [100, 50]: the clause binds per demand
    fleet = Fleet((GeneratorSpec("a", 10, 95, 100), GeneratorSpec("b", 20, 50, 155)))
    res = commit(fleet, 150.0)
    assert np.array_equal(res.power, [100.0, 50.0])
    assert res.regime is Regime.INTERIOR


# ---------------------------------------------------------------------------
# commitment worked examples


def test_commit_table_fleet_450():
    fleet = builtin_fleet()
    res = commit(fleet, 450.0)
    assert np.allclose(res.power, [400, 50, 0, 0, 0, 0, 0])
    assert res.clearing_price == 22.23
    assert res.regime is Regime.INTERIOR and res.marginal_index == 1
    cost, alloc = enumeration_oracle(fleet, 450.0)
    assert np.allclose(res.power, alloc, atol=1e-8)
    assert float(fleet.ask_prices @ res.power) == pytest.approx(cost, abs=1e-8)


def test_commit_backdown_two_units():
    fleet = Fleet((GeneratorSpec("a", 10, 0, 100), GeneratorSpec("b", 20, 50, 155)))
    res = commit(fleet, 120.0)
    assert np.allclose(res.power, [70, 50])
    assert res.clearing_price == 10.0
    assert res.regime is Regime.BELOW_PMIN
    cost, alloc = enumeration_oracle(fleet, 120.0)
    assert np.allclose(res.power, alloc, atol=1e-8)


def test_commit_full_capacity():
    fleet = builtin_fleet()
    res = commit(fleet, 960.0)
    assert np.allclose(res.power, fleet.p_maxs)
    assert res.clearing_price == 315.81
    assert res.regime is Regime.INTERIOR and res.marginal_index == 6


def test_commit_small_demand_single_unit():
    fleet = Fleet((GeneratorSpec("a", 10, 40, 100), GeneratorSpec("b", 20, 5, 155)))
    res = commit(fleet, 20.0)
    assert np.allclose(res.power, [0, 20])
    assert res.clearing_price == 20.0
    assert res.regime is Regime.SMALL_DEMAND
    cost, alloc = enumeration_oracle(fleet, 20.0)
    assert np.allclose(res.power, alloc, atol=1e-8)


def test_commit_zero_demand():
    res = commit(builtin_fleet(), 0.0)
    assert res.total_power == 0.0
    assert res.clearing_price == 7.37


def test_commit_infeasible_demand():
    with pytest.raises(InfeasibleDispatchError):
        commit(builtin_fleet(), 2000.0)


def test_fleet_rejects_price_ties():
    with pytest.raises(ValueError):
        Fleet((GeneratorSpec("a", 5, 0, 10), GeneratorSpec("b", 5, 0, 10)))


def test_fleet_rejects_a_zero_cheapest_ask():
    with pytest.raises(ValueError, match=r"^the cheapest ask 0\.0 must be positive$"):
        Fleet((GeneratorSpec("a", 0.0, 0, 10), GeneratorSpec("b", 5, 0, 10)))


# ---------------------------------------------------------------------------
# back-down feasibility inequality


def test_backdown_two_units_zero_min():
    fleet = Fleet((GeneratorSpec("a", 10, 0, 100), GeneratorSpec("b", 20, 50, 155)))
    res = commit(fleet, 120.0)  # 0 < 70 < 100
    assert res.regime is Regime.BELOW_PMIN
    assert np.array_equal(res.power, [70.0, 50.0])


def test_backdown_two_units_positive_min():
    fleet = Fleet((GeneratorSpec("a", 10, 10, 100), GeneratorSpec("b", 20, 50, 120)))
    res = commit(fleet, 130.0)  # 10 < 80 < 100
    assert res.regime is Regime.BELOW_PMIN
    assert np.array_equal(res.power, [80.0, 50.0])


def test_backdown_fabricated_violation():
    # range clause broken on purpose: back-down target 70 below p_min 95
    fleet = Fleet((GeneratorSpec("a", 10, 95, 100), GeneratorSpec("b", 20, 50, 155)))
    with pytest.raises(InfeasibleDispatchError,
                       match="adjustable-range assumption violated"):
        commit(fleet, 120.0)


def test_backdown_always_true_under_range_clause():
    rng = np.random.default_rng(3)
    found = 0
    while found < 2000:
        fleet = random_fleet(rng, max_units=4)
        if len(fleet) < 2:
            continue
        k = int(rng.integers(1, len(fleet)))
        if fleet.p_mins[k] <= 1e-9:
            continue
        demand = float(fleet.p_maxs[:k].sum() + rng.uniform(0.0, 1.0) * fleet.p_mins[k])
        gap = demand - fleet.p_maxs[:k].sum()
        if not 0.0 < gap < fleet.p_mins[k]:
            continue
        res = commit(fleet, demand)
        assert res.regime is Regime.BELOW_PMIN
        assert res.power[k] == fleet.p_mins[k]
        assert res.total_power == pytest.approx(demand, abs=1e-9)
        found += 1


# ---------------------------------------------------------------------------
# optimality residuals


def test_kkt_zero_on_valid_dispatch():
    fleet = builtin_fleet()
    res = commit(fleet, 450.0)
    assert kkt_residuals(fleet, res, 450.0).max_residual <= 1e-9


def test_kkt_balance_detects_perturbation():
    fleet = builtin_fleet()
    res = commit(fleet, 450.0)
    power = res.power.copy()
    power[0] += 1.0
    report = kkt_residuals(fleet, dataclasses.replace(res, power=power), 450.0)
    assert report.balance == pytest.approx(1.0, abs=1e-12)


def test_kkt_detects_a_price_below_the_marginal_ask():
    # at 21.23 $/MWh the 22.23 $/MWh marginal unit would have to idle, yet
    # it runs 50 MW
    fleet = builtin_fleet()
    res = commit(fleet, 450.0)
    assert res.power[1] == 50.0
    bad = dataclasses.replace(res, clearing_price=res.clearing_price - 1.0)
    report = kkt_residuals(fleet, bad, 450.0)
    assert report.complementary_slackness == pytest.approx(1.0 * 50.0, abs=1e-9)


def test_kkt_covers_idle_units_without_minimum():
    # an idle unit whose minimum is zero stays in the system at bound 0: a
    # price above its ask would have it at its 20 MW maximum
    fleet = builtin_fleet()
    res = commit(fleet, 940.0)
    assert res.power[6] == 0.0 and np.array_equal(res.power[:6], fleet.p_maxs[:6])
    bad = dataclasses.replace(res, clearing_price=320.0)
    report = kkt_residuals(fleet, bad, 940.0)
    assert report.complementary_slackness == pytest.approx((320.0 - 315.81) * 20.0,
                                                           abs=1e-9)


def test_kkt_box_detects_unit_above_maximum():
    # unit 1 of the built-in fleet tops out at 155 MW; balance alone passes 156
    fleet = builtin_fleet()
    res = commit(fleet, 450.0)
    power = res.power.copy()
    power[1] = 156.0
    report = kkt_residuals(fleet, dataclasses.replace(res, power=power), float(power.sum()))
    assert report.box_feasibility == pytest.approx(1.0)
    assert report.balance == 0.0


def test_kkt_rejects_nan_demand():
    fleet = builtin_fleet()
    with pytest.raises(ValueError, match="^loads must be finite"):
        kkt_residuals(fleet, commit(fleet, 450.0), float("nan"))


# ---------------------------------------------------------------------------
# randomized agreement with the oracle and structural properties


def test_commit_matches_oracle_on_random_fleets():
    rng = np.random.default_rng(21)
    for _ in range(300):
        fleet = random_fleet(rng)
        demand = feasible_demand(rng, fleet)
        try:
            res = commit(fleet, demand)
        except InfeasibleDispatchError:
            # demand strictly between min p_min and the first unit's box can
            # be unservable by a single unit; the oracle must agree
            cost, _ = enumeration_oracle(fleet, demand)
            assert cost is None
            continue
        cost, alloc = enumeration_oracle(fleet, demand)
        assert cost is not None
        assert np.allclose(res.power, alloc, atol=1e-8), (fleet, demand)
        assert float(fleet.ask_prices @ res.power) == pytest.approx(cost, abs=1e-8)
        assert kkt_residuals(fleet, res, demand).max_residual <= 1e-9


def test_single_unit_regime_matches_oracle():
    rng = np.random.default_rng(31)
    seen = 0
    while seen < 150:
        instance = random_small_demand_instance(rng)
        if instance is None:
            continue
        fleet, demand = instance
        try:
            res = commit(fleet, demand)
        except InfeasibleDispatchError:
            cost, _ = enumeration_oracle(fleet, demand)
            assert cost is None
            continue
        assert res.regime is Regime.SMALL_DEMAND
        cost, alloc = enumeration_oracle(fleet, demand)
        assert np.allclose(res.power, alloc, atol=1e-8)
        assert kkt_residuals(fleet, res, demand).max_residual <= 1e-9
        seen += 1


def test_balance_and_multiplier_signs():
    rng = np.random.default_rng(22)
    for _ in range(200):
        fleet = random_fleet(rng)
        demand = feasible_demand(rng, fleet)
        try:
            res = commit(fleet, demand)
        except InfeasibleDispatchError:
            continue
        assert res.total_power == pytest.approx(demand, abs=1e-9)
        on = res.power > 0.0
        assert np.all(res.power[on] <= fleet.p_maxs[on] + 1e-9)
        # the sign of price - ask is the sign of the multiplier it implies: a
        # committed unit cheaper than the price sits at its maximum, a dearer
        # one at its lower bound
        committed = on | (fleet.p_mins == 0.0)
        cheaper = committed & (fleet.ask_prices < res.clearing_price)
        dearer = committed & (fleet.ask_prices > res.clearing_price)
        assert np.allclose(res.power[cheaper], fleet.p_maxs[cheaper], rtol=0.0, atol=1e-9)
        assert np.allclose(res.power[dearer], np.where(on, fleet.p_mins, 0.0)[dearer],
                           rtol=0.0, atol=1e-9)


def test_price_monotone_in_demand():
    fleet = builtin_fleet()
    demands = np.linspace(0.0, 960.0, 241)
    prices = [commit(fleet, d).clearing_price for d in demands]
    assert all(b >= a for a, b in zip(prices, prices[1:]))


def test_price_monotone_in_alpha_through_tail_requirement():
    rng = np.random.default_rng(23)
    values = rng.normal(500.0, 120.0, 40)
    probs = np.full(40, 1 / 40)
    fleet = builtin_fleet()
    prices = []
    for alpha in np.linspace(0.05, 0.99, 30):
        demand = min(max(float(cvar_rows(values[None], probs, float(alpha))[1][0]), 0.0),
                     960.0)
        prices.append(commit(fleet, demand).clearing_price)
    assert all(b >= a for a, b in zip(prices, prices[1:]))
