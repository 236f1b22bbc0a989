"""Radial feeder dispatch: worked instances, flow feasibility, price structure."""

import numpy as np
import pytest

import oracles
from gridclear import (Fleet, GeneratorSpec, InfeasibleDispatchError, RadialGrid, RunConfig,
                       cvar_rows, dispatch_radial, run_grid)


def feeder_fleet(asks, p_maxs):
    return Fleet(tuple(GeneratorSpec(f"b{i}", float(a), 0.0, float(m))
                       for i, (a, m) in enumerate(zip(asks, p_maxs))))


def flows_from_dispatch(power, net_loads):
    """Line flows by forward substitution of the nodal balance."""
    injections = np.asarray(power, dtype=float) - np.asarray(net_loads, dtype=float)
    return np.cumsum(injections)[:-1]


def random_radial_instance(rng, max_buses=6):
    """Deterministic instance satisfying the feeder-serving assumptions."""
    n = int(rng.integers(1, max_buses + 1))
    net = rng.uniform(0.0, 80.0, n)
    suffix = np.cumsum(net[::-1])[::-1]
    p_max = suffix + rng.uniform(1.0, 50.0, n)
    asks = np.sort(rng.uniform(5.0, 200.0, n))
    while n > 1 and np.any(np.diff(asks) < 1e-3):
        asks = np.sort(rng.uniform(5.0, 200.0, n))
    p_bar = float(rng.uniform(5.0, 120.0))
    return RadialGrid(n, p_bar), feeder_fleet(asks, p_max), net, suffix


# ---------------------------------------------------------------------------
# feeder assumptions, as the kernel decides them


def test_assumption_single_bus_ok():
    grid = RadialGrid(1, 50.0)
    fleet = feeder_fleet([10.0], [400.0])
    dispatch_radial(grid, fleet, [300.0], [300.0])


def test_assumption_elementwise_ok():
    grid = RadialGrid(3, 50.0)
    fleet = feeder_fleet([10, 20, 30], [200, 100, 50])
    dispatch_radial(grid, fleet, [60, 40, 30], [130, 70, 30])


def test_assumption_capacity_violation_names_bus():
    grid = RadialGrid(1, 50.0)
    fleet = feeder_fleet([10.0], [400.0])
    with pytest.raises(InfeasibleDispatchError, match=(
            "^bus 0: tail requirement 500 MW exceeds generator capacity 400$")):
        dispatch_radial(grid, fleet, [500.0], [500.0])


def test_assumption_positive_minimum_flagged():
    grid = RadialGrid(2, 50.0)
    fleet = Fleet((GeneratorSpec("a", 10, 5, 100), GeneratorSpec("b", 20, 0, 100)))
    with pytest.raises(InfeasibleDispatchError,
                       match="^bus 0: generator minimum must be 0, got 5$"):
        dispatch_radial(grid, fleet, [10, 10], [20, 10])


# ---------------------------------------------------------------------------
# worked instances


def test_congested_three_bus():
    grid = RadialGrid(3, 50.0)
    fleet = feeder_fleet([10, 20, 30], [400, 300, 200])
    d = dispatch_radial(grid, fleet, [60, 40, 30], [130, 70, 30])
    assert np.allclose(d.power, [110, 20, 0])
    assert np.allclose(d.lmps, [10, 20, 20])
    assert d.balancing_bus == 1
    # nodal balance pins the flows; both lines within the limit
    flows = flows_from_dispatch(d.power, [60, 40, 30])
    assert np.allclose(flows, [50, 30])
    assert np.all(flows <= 50.0 + 1e-9)


def test_congested_three_bus_is_cheapest_on_grid():
    # every 1 MW allocation meeting the loads within the line limit costs
    # at least as much as the dispatched one
    asks = np.array([10.0, 20.0, 30.0])
    net = np.array([60.0, 40.0, 30.0])
    best = None
    for g1 in range(0, 131):
        for g2 in range(0, 131 - g1):
            g3 = 130 - g1 - g2
            flows = np.cumsum(np.array([g1, g2, g3]) - net)[:-1]
            if np.any(np.abs(flows) > 50.0):
                continue
            cost = float(asks @ [g1, g2, g3])
            if best is None or cost < best:
                best = cost
    assert best == pytest.approx(10 * 110 + 20 * 20, abs=1e-9)


def test_uncongested_three_bus():
    grid = RadialGrid(3, 50.0)
    fleet = feeder_fleet([10, 20, 30], [400, 300, 200])
    d = dispatch_radial(grid, fleet, [60, 20, 20], [100, 40, 20])
    assert np.allclose(d.power, [100, 0, 0])
    assert np.allclose(d.lmps, [10, 10, 10])
    assert d.balancing_bus is None
    flows = flows_from_dispatch(d.power, [60, 20, 20])
    assert np.allclose(flows, [40, 20])


def test_single_bus():
    grid = RadialGrid(1, 50.0)
    fleet = feeder_fleet([10.0], [400.0])
    d = dispatch_radial(grid, fleet, [300.0], [300.0])
    assert d.power[0] == 300.0 and d.lmps[0] == 10.0


# ---------------------------------------------------------------------------
# the committed total against the sum of per-bus CVaRs


def test_bound_deterministic_single_scenario():
    # one scenario: the per-bus requirements sum to the joint 130 MW, and
    # the congested feeder dispatches that total
    per_bus = [60.0, 40.0, 30.0]
    grid = RadialGrid(3, 50.0)
    fleet = feeder_fleet([10, 20, 30], [400, 300, 200])
    d = dispatch_radial(grid, fleet, per_bus, [130, 70, 30])
    assert d.total_power == pytest.approx(130.0, abs=1e-9)


def test_bound_from_two_scenario_set():
    # equiprobable pairs chosen so the marginal tails are (60, 40, 30) while
    # the joint tail is 125
    alpha = 0.5
    probs = [0.5, 0.5]
    buses = [[50.0, 60.0], [30.0, 40.0], [25.0, 30.0]]
    joint = [105.0, 125.0]
    cvars = cvar_rows(buses, probs, alpha)[1].tolist()
    assert cvars == [60.0, 40.0, 30.0]
    assert [oracles.cvar(s, probs, alpha) for s in buses] == cvars
    joint_cvar = float(cvar_rows([joint], probs, alpha)[1][0])
    assert joint_cvar == oracles.cvar(joint, probs, alpha) == 125.0
    assert sum(cvars) == 130.0
    assert sum(cvars) - joint_cvar == pytest.approx(5.0, abs=1e-12)


# ---------------------------------------------------------------------------
# randomized structure checks


def test_deterministic_instances_balance_and_respect_limits():
    rng = np.random.default_rng(41)
    for _ in range(500):
        grid, fleet, net, suffix = random_radial_instance(rng)
        d = dispatch_radial(grid, fleet, net, suffix)
        assert d.total_power == pytest.approx(float(net.sum()), abs=1e-9)
        flows = flows_from_dispatch(d.power, net)
        assert np.all(np.abs(flows) <= grid.line_limit + 1e-9)
        assert np.all(d.power >= -1e-12)


def test_stochastic_totals_stay_under_marginal_tail_sum():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(2, 9))
        values = rng.uniform(0.0, 60.0, (n, k))
        probs = np.full(k, 1.0 / k)
        alpha = float(rng.uniform(0.1, 0.9))
        per_bus = cvar_rows(values, probs, alpha)[1]
        tails = np.array([values[i:].sum(axis=0) for i in range(n)])
        suffix = cvar_rows(tails, probs, alpha)[1]
        p_max = np.array(suffix) + rng.uniform(1.0, 40.0, n)
        asks = np.sort(rng.uniform(5.0, 100.0, n))
        if n > 1 and np.any(np.diff(asks) < 1e-3):
            continue
        grid = RadialGrid(n, float(rng.uniform(5.0, 80.0)))
        d = dispatch_radial(grid, feeder_fleet(asks, p_max), per_bus, suffix)
        assert d.total_power <= sum(per_bus) + 1e-9


def test_lmps_nondecreasing_along_feeder():
    rng = np.random.default_rng(43)
    for _ in range(200):
        grid, fleet, net, suffix = random_radial_instance(rng)
        d = dispatch_radial(grid, fleet, net, suffix)
        assert np.all(np.diff(d.lmps) >= -1e-12)
        k = d.balancing_bus
        if k is not None:
            assert np.all(d.lmps[k:] == d.lmps[k])


def test_unlimited_line_reduces_to_single_price():
    rng = np.random.default_rng(44)
    for _ in range(100):
        _, fleet, net, suffix = random_radial_instance(rng)
        big = RadialGrid(len(fleet), float(suffix[0] + fleet.p_maxs.sum() + 1.0))
        d = dispatch_radial(big, fleet, net, suffix)
        assert d.balancing_bus is None
        assert np.all(d.lmps == fleet.ask_prices[0])
        assert d.power[0] == pytest.approx(float(net.sum()), abs=1e-9)


def test_dispatch_invariant_to_ask_rescaling():
    rng = np.random.default_rng(45)
    for _ in range(100):
        grid, fleet, net, suffix = random_radial_instance(rng)
        scale = float(rng.uniform(0.1, 7.0))
        scaled = Fleet(tuple(GeneratorSpec(g.name, g.ask_price * scale, g.p_min, g.p_max)
                             for g in fleet.generators))
        a = dispatch_radial(grid, fleet, net, suffix)
        b = dispatch_radial(grid, scaled, net, suffix)
        assert np.allclose(a.power, b.power)
        assert np.allclose(b.lmps, scale * a.lmps)


def test_infeasible_when_capacity_cannot_cover_tail():
    grid = RadialGrid(2, 30.0)
    fleet = feeder_fleet([10, 20], [50, 10])
    with pytest.raises(InfeasibleDispatchError) as err:
        dispatch_radial(grid, fleet, [20, 40], [60, 40])
    assert str(err.value) == ("bus 0: tail requirement 60 MW exceeds generator capacity 50; "
                              "bus 1: tail requirement 40 MW exceeds generator capacity 10")


# ---------------------------------------------------------------------------
# infeasibility messages, matched in full


def test_required_output_above_capacity_message():
    # the tails pass the per-bus check, but bus 0 exports only the line limit
    # and leaves bus 1 a carried tail of 50 MW against its 45 MW unit
    grid = RadialGrid(3, 30.0)
    fleet = feeder_fleet([10, 20, 30], [100, 45, 20])
    with pytest.raises(InfeasibleDispatchError) as err:
        dispatch_radial(grid, fleet, [20, 60, 10], [100, 40, 10])
    assert str(err.value) == "bus 1: required output 50 MW exceeds capacity 45"


def test_congested_feeder_without_balancing_bus_message():
    # bus 0's line binds, yet no downstream tail exceeds the limit
    grid = RadialGrid(2, 30.0)
    fleet = feeder_fleet([10, 20], [100, 50])
    with pytest.raises(InfeasibleDispatchError) as err:
        dispatch_radial(grid, fleet, [20, 40], [60, 15])
    assert str(err.value) == ("congested feeder without a balancing bus; "
                              "tail requirements inconsistent")


def test_assumption_violations_joined_in_message():
    grid = RadialGrid(3, 30.0)
    fleet = Fleet((GeneratorSpec("a", 10, 5, 100), GeneratorSpec("b", 20, 0, 10),
                   GeneratorSpec("c", 30, 2.5, 20)))
    with pytest.raises(InfeasibleDispatchError) as err:
        dispatch_radial(grid, fleet, [20, 40, 30], [90, 70, 30])
    # the minimum is printed as the generator holds it (an int here)
    assert str(err.value) == ("bus 0: generator minimum must be 0, got 5; "
                              "bus 1: tail requirement 70 MW exceeds generator capacity 10; "
                              "bus 2: generator minimum must be 0, got 2.5; "
                              "bus 2: tail requirement 30 MW exceeds generator capacity 20")


def test_requirement_shape_mismatch_message():
    grid = RadialGrid(3, 30.0)
    fleet = feeder_fleet([10, 20, 30], [100, 100, 100])
    with pytest.raises(InfeasibleDispatchError) as err:
        dispatch_radial(grid, fleet, [20, 40], [60, 40])
    assert str(err.value) == "need one generator and one requirement pair per bus (3)"


# the settle-feeder shape (three buses on an 80 MW feeder) and six buses on a
# 30 MW feeder; every hour of every point below is congested
FEEDER_SHAPES = {
    "three-bus-80mw": dict(line_limit=80.0, load_mean_per_bus=(150.0, 75.0, 45.0),
                           horizon=24, n_scenarios=1000, alphas=(0.9,),
                           penetrations=(0.009,)),
    "six-bus-30mw": dict(line_limit=30.0, load_mean_per_bus=(100.0, 50.0, 15.0, 40.0,
                                                            8.0, 3.0),
                         horizon=24, n_scenarios=200, alphas=(0.95,),
                         penetrations=(0.3, 0.9)),
}


@pytest.mark.parametrize("seed", [0, 3, 7, 11])
@pytest.mark.parametrize("shape", sorted(FEEDER_SHAPES))
def test_congestion_moves_committed_power_but_keeps_its_total(shape, seed):
    # The feeder commits exactly the joint CVaR of the aggregate net load in
    # every hour, congested or not: congestion moves power between buses and
    # splits the prices, but never raises the total toward the sum of per-bus
    # CVaRs, which lies above the joint CVaR in every congested hour.
    run = RunConfig(seed=seed, capacity_mode="tracking", **FEEDER_SHAPES[shape])
    alpha = run.alphas[0]
    congested_hours = 0
    for penetration, point in zip(run.penetrations, run_grid(run), strict=True):
        load, renewable, probs = oracles.scenario_arrays(run, penetration)
        net = load - renewable
        for t in range(run.horizon):
            rows = np.vstack([net[:, t], net[:, t].sum(axis=0)])
            cvars = cvar_rows(rows, probs, alpha)[1]
            per_bus, joint = cvars[:-1], cvars[-1]
            assert abs(point.committed[t].sum() - max(joint, 0.0)) <= 1e-9
            if np.ptp(point.lmps[t]) > 0.0:
                congested_hours += 1
                assert per_bus.sum() > joint
    assert congested_hours > 0
