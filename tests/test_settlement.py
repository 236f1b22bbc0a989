"""Settlement arithmetic: recovery, profits, deviation, curtailment."""

import numpy as np
import pytest

from gridclear import (Fleet, GeneratorSpec, InfeasibleDispatchError,
                       curtail_and_pay_renewables,
                       deviation_envelopes, expected_profit, realized_profit,
                       reserve_and_ramp_check)
from gridclear.settlement import _recovery_rows


def one_unit_fleet(**kw):
    spec = dict(name="g", ask_price=10.0, p_min=0.0, p_max=500.0, rp_max=500.0,
                ramp_max=500.0)
    spec.update(kw)
    return Fleet((GeneratorSpec(**spec),))


# ---------------------------------------------------------------------------
# reserve and ramp diagnostics


def test_no_violations_when_realized_equals_committed():
    fleet = one_unit_fleet(ramp_max=60.0)
    committed = np.array([[100.0], [50.0]])
    realized = np.repeat(committed[None, :, :], 3, axis=0)
    rp, dp = deviation_envelopes(committed, realized)
    assert np.all(rp == 0.0)
    assert dp[0, 0] == pytest.approx(50.0)  # |p_t - p_{t+1}| across hours
    assert reserve_and_ramp_check(committed, realized, rp, dp, fleet) == []


def test_reserve_cap_violation():
    fleet = one_unit_fleet(rp_max=5.0)
    committed = np.array([[100.0]])
    realized = np.array([[[90.0]], [[100.0]]])
    violations = reserve_and_ramp_check(committed, realized,
                                        *deviation_envelopes(committed, realized), fleet)
    assert any("needed reserve 10" in v for v in violations)


def test_cross_scenario_ramp_violation():
    fleet = one_unit_fleet(ramp_max=20.0)
    committed = np.array([[100.0], [100.0]])
    realized = np.array([[[100.0], [70.0]],    # scenario swings down next hour
                         [[100.0], [100.0]]])
    rp, dp = deviation_envelopes(committed, realized)
    violations = reserve_and_ramp_check(committed, realized, rp, dp, fleet)
    assert any("swing 30" in v for v in violations)
    assert dp[0, 0] == pytest.approx(30.0)  # worst pair over (k, k')


def test_selling_above_commitment_flagged():
    fleet = one_unit_fleet()
    committed = np.array([[100.0]])
    realized = np.array([[[110.0]]])
    violations = reserve_and_ramp_check(committed, realized,
                                        *deviation_envelopes(committed, realized), fleet)
    assert any("above its commitment" in v for v in violations)


# ---------------------------------------------------------------------------
# cost recovery


def recovery_rate(committed, rp, dp, fleet, cost_recovery):
    """H and the uplift of one (T, n_units) commitment, as a grid computes
    them for each of its levels; raises the level's error."""
    (h_total, lambda_w), failed, error_at = _recovery_rows(
        np.asarray(committed, dtype=float)[None], np.asarray(rp)[None],
        np.asarray(dp)[None], fleet, cost_recovery)
    if failed[0]:
        raise error_at(0)
    return float(h_total[0]), float(lambda_w[0])


def test_recovery_worked_example():
    # one unit online two hours: no-load 10/h, hot start 100, 200 MWh committed
    fleet = one_unit_fleet(no_load_cost=10.0, start_cost_hot=100.0,
                           start_cost_cold=999.0)
    committed = np.array([[120.0], [80.0]])
    rp = np.zeros((2, 1))
    dp = np.zeros((2, 1))
    h, lam = recovery_rate(committed, rp, dp, fleet, cost_recovery=1)
    assert h == pytest.approx(120.0)
    assert lam == pytest.approx(0.6)


def test_recovery_disabled_gives_zero_rate():
    fleet = one_unit_fleet(no_load_cost=10.0, start_cost_hot=100.0)
    committed = np.array([[120.0], [80.0]])
    h, lam = recovery_rate(committed, np.zeros((2, 1)), np.zeros((2, 1)), fleet,
                           cost_recovery=0)
    assert h == pytest.approx(120.0) and lam == 0.0


def test_never_started_unit_contributes_nothing():
    fleet = Fleet((GeneratorSpec("a", 10, 0, 100, no_load_cost=7.0, start_cost_hot=50.0),
                   GeneratorSpec("b", 20, 0, 100, no_load_cost=9.0, start_cost_hot=80.0)))
    committed = np.array([[40.0, 0.0], [40.0, 0.0]])
    h, lam = recovery_rate(committed, np.zeros((2, 2)), np.zeros((2, 2)), fleet,
                           cost_recovery=1)
    assert h == pytest.approx(2 * 7.0 + 50.0)
    assert lam == pytest.approx(64.0 / 80.0)


def test_cold_start_after_long_outage():
    fleet = one_unit_fleet(no_load_cost=0.0, start_cost_hot=100.0,
                           start_cost_cold=400.0)
    committed = np.array([[50.0], [0.0], [0.0], [50.0]])
    h, _ = recovery_rate(committed, np.zeros((4, 1)), np.zeros((4, 1)), fleet,
                         cost_recovery=1)
    # hour 0 start is hot (one hour offline before the horizon); the restart
    # at hour 3 follows two offline hours, so it is cold
    assert h == pytest.approx(100.0 + 400.0)


def test_recovery_without_energy_errors():
    fleet = one_unit_fleet(no_load_cost=10.0)
    committed = np.zeros((1, 1))
    rp = np.array([[5.0]])
    with pytest.raises(InfeasibleDispatchError, match="^cost recovery requested but no "
                       "committed energy to carry H = 75$"):
        recovery_rate(committed, rp, np.zeros((1, 1)), fleet, cost_recovery=1)


def test_recovery_monotone_in_cost_drivers():
    base_fleet = one_unit_fleet(no_load_cost=5.0, start_cost_hot=50.0)
    committed = np.array([[100.0]])
    rp = np.array([[10.0]])
    dp = np.array([[4.0]])
    h0, _ = recovery_rate(committed, rp, dp, base_fleet, 1)
    bigger = one_unit_fleet(no_load_cost=6.0, start_cost_hot=70.0)
    h1, _ = recovery_rate(committed, rp, dp, bigger, 1)
    h2, _ = recovery_rate(committed, rp * 2, dp, base_fleet, 1)
    h3, _ = recovery_rate(committed, rp, dp * 3, base_fleet, 1)
    assert h1 > h0 and h2 > h0 and h3 > h0


# ---------------------------------------------------------------------------
# profits and deviation


def test_expected_profit_worked_example():
    fleet = one_unit_fleet(ask_price=7.37)  # production cost follows the ask
    committed = np.array([[100.0]])
    lmps = np.array([[20.0]])
    r = expected_profit(committed, lmps, fleet=fleet)
    assert r == pytest.approx(100 * 20 - 737.0)


def test_expected_profit_zero_commitment():
    fleet = one_unit_fleet()
    r = expected_profit(np.zeros((1, 1)), np.array([[20.0]]), fleet)
    assert r == 0.0


def test_realized_profit_two_scenarios():
    fleet = one_unit_fleet(ask_price=10.0)
    realized = np.array([[[100.0]], [[80.0]]])
    lmps = np.array([[20.0]])
    r = realized_profit(realized, [0.5, 0.5], lmps, fleet)
    assert r == pytest.approx(0.5 * (2000 - 1000) + 0.5 * (1600 - 800))


def test_realized_profit_requires_normalized_probabilities():
    fleet = one_unit_fleet()
    with pytest.raises(ValueError):
        realized_profit(np.zeros((2, 1, 1)), [0.5, 0.4], np.array([[20.0]]), fleet)


@pytest.mark.parametrize("psi", [[np.nan, np.nan], [np.nan, 1.0], [np.inf, -np.inf]])
def test_realized_profit_rejects_non_finite_probabilities(psi):
    # NaN fails every comparison, so only an explicit finiteness check catches it
    fleet = one_unit_fleet()
    with pytest.raises(ValueError, match="^scenario probabilities must be finite"):
        realized_profit(np.zeros((2, 1, 1)), psi, np.array([[20.0]]), fleet)


def test_realized_profit_degenerate_distribution():
    fleet = one_unit_fleet(ask_price=10.0)
    realized = np.array([[[100.0]], [[9999.0]]])
    r = realized_profit(realized, [1.0, 0.0], np.array([[20.0]]), fleet)
    assert r == pytest.approx(1000.0)


def test_realized_equals_committed_gives_equal_profit():
    fleet = one_unit_fleet(ask_price=10.0)
    committed = np.array([[100.0]])
    realized = np.repeat(committed[None, :, :], 4, axis=0)
    lmps = np.array([[25.0]])
    r = expected_profit(committed, lmps, fleet)
    rt = realized_profit(realized, np.full(4, 0.25), lmps, fleet)
    assert r - rt == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# renewable curtailment and payment


def test_curtailment_excess_renewables():
    revenue, curtailed = curtail_and_pay_renewables(
        np.array([100.0]), np.array([[120.0]]), np.array([[20.0]]))
    assert revenue == pytest.approx(2000.0)
    assert curtailed == pytest.approx(20.0)


def test_no_curtailment_below_load():
    revenue, curtailed = curtail_and_pay_renewables(
        np.array([100.0]), np.array([[80.0]]), np.array([[20.0]]))
    assert revenue == pytest.approx(1600.0)
    assert curtailed == 0.0


def test_payment_shared_proportional_to_output():
    loads = np.array([[60.0, 40.0]])
    renewables = np.array([[30.0, 90.0]])
    lmps = np.array([[20.0, 20.0]])
    revenue, curtailed = curtail_and_pay_renewables(loads.sum(axis=-1), renewables, lmps)
    # shares 30/120 and 90/120 of the 100 MW load at a uniform price
    assert revenue == pytest.approx(20.0 * (25.0 + 75.0))
    assert curtailed == pytest.approx(20.0)


def test_revenue_capped_by_priced_load():
    rng = np.random.default_rng(61)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        loads = rng.uniform(0.0, 100.0, (1, n))
        ren = rng.uniform(0.0, 150.0, (1, n))
        price = float(rng.uniform(5.0, 50.0))
        lmps = np.full((1, n), price)
        revenue, _ = curtail_and_pay_renewables(loads.sum(axis=-1), ren, lmps)
        assert revenue <= price * loads.sum() + 1e-9 or ren.sum() <= loads.sum()
        assert revenue <= price * max(loads.sum(), ren.sum()) + 1e-9
