"""The optimality certificate of a feeder dispatch and its bus prices."""

import itertools

import numpy as np
import pytest

from gridclear import (Fleet, GeneratorSpec, KktReport, RadialGrid, builtin_fleet,
                       dispatch_radial, kkt_verify_network)
from test_highs_oracle import _feeder_lp


def feeder_fleet(asks, p_maxs):
    return Fleet(tuple(GeneratorSpec(f"b{i}", float(a), 0.0, float(m))
                       for i, (a, m) in enumerate(zip(asks, p_maxs))))


def deterministic(grid, fleet, loads):
    """The feeder kernel on one known net-load row and its tails."""
    net = np.asarray(loads, dtype=float)
    return dispatch_radial(grid, fleet, net, np.cumsum(net[::-1])[::-1])


def random_network_instance(rng, max_buses=5):
    n = int(rng.integers(1, max_buses + 1))
    loads = rng.uniform(0.0, 70.0, n)
    suffix = np.cumsum(loads[::-1])[::-1]
    p_max = suffix + rng.uniform(1.0, 40.0, n)
    asks = np.sort(rng.uniform(5.0, 150.0, n))
    while n > 1 and np.any(np.diff(asks) < 1e-3):
        asks = np.sort(rng.uniform(5.0, 150.0, n))
    grid = RadialGrid(n, float(rng.uniform(10.0, 100.0)))
    return grid, feeder_fleet(asks, p_max), loads


# ---------------------------------------------------------------------------
# worked examples


def test_two_bus_transfer():
    grid = RadialGrid(2, 50.0)
    fleet = feeder_fleet([10, 20], [400, 100])
    d = deterministic(grid, fleet, [0.0, 30.0])
    assert np.allclose(d.power, [30, 0])
    assert kkt_verify_network(grid, fleet, d.power, d.lmps, [0.0, 30.0]).max_residual <= 1e-12


def test_zero_load_everywhere():
    grid = RadialGrid(3, 50.0)
    fleet = feeder_fleet([10, 20, 30], [100, 100, 100])
    d = deterministic(grid, fleet, [0.0, 0.0, 0.0])
    assert np.allclose(d.power, 0.0)
    assert np.all(d.lmps == 10.0)


def test_congested_three_bus_flows():
    grid = RadialGrid(3, 50.0)
    fleet = feeder_fleet([10, 20, 30], [400, 300, 200])
    loads = [60.0, 40.0, 30.0]
    d = deterministic(grid, fleet, loads)
    assert np.allclose(d.power, [110, 20, 0])
    # nodal balance by forward substitution fixes the line flows
    assert np.allclose(np.cumsum(d.power - loads)[:-1], [50.0, 30.0])
    assert np.allclose(d.lmps, [10, 20, 20])
    assert kkt_verify_network(grid, fleet, d.power, d.lmps, loads).max_residual <= 1e-8


def test_renewables_offset_load():
    grid = RadialGrid(2, 80.0)
    fleet = feeder_fleet([10, 20], [200, 100])
    net = np.array([50.0, 40.0]) - np.array([10.0, 15.0])
    d = deterministic(grid, fleet, net)
    assert d.total_power == pytest.approx(65.0, abs=1e-9)
    assert kkt_verify_network(grid, fleet, d.power, d.lmps, net).max_residual <= 1e-8


# ---------------------------------------------------------------------------
# certificate checker behaviour


def test_certificate_detects_corrupt_price():
    # a 1 $/MWh rise across the uncongested line implies a binding limit,
    # which the 30 MW flow is 20 MW short of
    grid = RadialGrid(2, 50.0)
    fleet = feeder_fleet([10, 20], [400, 100])
    d = deterministic(grid, fleet, [0.0, 30.0])
    lmps = d.lmps.copy()
    lmps[1] += 1.0
    report = kkt_verify_network(grid, fleet, d.power, lmps, [0.0, 30.0])
    assert report.complementary_slackness == pytest.approx(20.0, abs=1e-9)


def test_certificate_detects_corrupt_line_multiplier():
    # the congested line's multiplier is the price rise across it; one
    # feeder-wide price at bus 0's ask zeroes it and leaves bus 1's 20 MW
    # unit dearer than its price while it runs above its minimum
    grid = RadialGrid(3, 50.0)
    fleet = feeder_fleet([10, 20, 30], [400, 300, 200])
    d = deterministic(grid, fleet, [60.0, 40.0, 30.0])
    report = kkt_verify_network(grid, fleet, d.power, np.full(3, 10.0), [60.0, 40.0, 30.0])
    assert report.complementary_slackness == pytest.approx((20 - 10) * 20.0, abs=1e-9)


def test_certificate_detects_balance_violation():
    grid = RadialGrid(2, 50.0)
    fleet = feeder_fleet([10, 20], [400, 100])
    d = deterministic(grid, fleet, [0.0, 30.0])
    power = d.power.copy()
    power[0] += 2.0
    assert kkt_verify_network(grid, fleet, power, d.lmps, [0.0, 30.0]).balance == \
        pytest.approx(2.0)


def test_certificate_holds_decommitted_unit_at_zero():
    # an idle unit with a positive minimum was decommitted: its box is [0, 0]
    grid = RadialGrid(2, 50.0)
    d = deterministic(grid, feeder_fleet([10, 20], [400, 100]), [0.0, 30.0])
    assert d.power[1] == 0.0
    fleet = Fleet((GeneratorSpec("b0", 10.0, 0.0, 400.0),
                   GeneratorSpec("b1", 20.0, 10.0, 100.0)))
    report = kkt_verify_network(grid, fleet, d.power, d.lmps, [0.0, 30.0])
    assert report.box_feasibility == 0.0
    assert report.max_residual <= 1e-12


def test_certificate_rejects_nan_load():
    grid = RadialGrid(3, 50.0)
    fleet = feeder_fleet([10, 20, 30], [400, 300, 200])
    d = deterministic(grid, fleet, [60.0, 40.0, 30.0])
    with pytest.raises(ValueError, match="^loads must be finite"):
        kkt_verify_network(grid, fleet, d.power, d.lmps, [60.0, np.nan, 30.0])


@pytest.mark.parametrize("name", ["power", "lmps"])
def test_certificate_rejects_nan_power_and_lmps(name):
    grid = RadialGrid(3, 50.0)
    fleet = feeder_fleet([10, 20, 30], [400, 300, 200])
    d = deterministic(grid, fleet, [60.0, 40.0, 30.0])
    given = {"power": d.power.copy(), "lmps": d.lmps.copy()}
    given[name][1] = np.nan
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        kkt_verify_network(grid, fleet, loads=[60.0, 40.0, 30.0], **given)


def test_certificate_names_a_power_without_one_entry_per_unit():
    grid = RadialGrid(3, 50.0)
    fleet = feeder_fleet([10, 20, 30], [400, 300, 200])
    d = deterministic(grid, fleet, [60.0, 40.0, 30.0])
    for power in (d.power[:2], d.power[:1], np.append(d.power, 0.0), d.power[None]):
        with pytest.raises(ValueError, match=r"^power needs one entry per unit \(3\)"):
            kkt_verify_network(grid, fleet, power, d.lmps, [60.0, 40.0, 30.0])
    one_bus = RadialGrid(1, 1.0)
    with pytest.raises(ValueError, match=r"^power needs one entry per unit \(7\)"):
        kkt_verify_network(one_bus, builtin_fleet(), np.zeros(6), [7.37], [0.0])


def test_certificate_names_lmps_without_one_entry_per_bus():
    grid = RadialGrid(3, 50.0)
    fleet = feeder_fleet([10, 20, 30], [400, 300, 200])
    d = deterministic(grid, fleet, [60.0, 40.0, 30.0])
    for lmps in (d.lmps[:1], d.lmps[:2], np.append(d.lmps, 20.0), 10.0):
        with pytest.raises(ValueError, match=r"^lmps needs one entry per bus \(3\)"):
            kkt_verify_network(grid, fleet, d.power, lmps, [60.0, 40.0, 30.0])


def test_max_residual_is_nan_when_a_block_is():
    report = KktReport(0.0, np.nan, 0.0, 0.0)
    assert np.isnan(report.max_residual)


def test_certificate_needs_one_unit_and_one_load_per_feeder_bus():
    grid = RadialGrid(3, 50.0)
    fleet = builtin_fleet().head(3)
    d = deterministic(grid, fleet, [60.0, 40.0, 30.0])
    with pytest.raises(ValueError, match="one unit per bus, got 7 units"):
        kkt_verify_network(grid, builtin_fleet(), d.power, d.lmps, [60.0, 40.0, 30.0])
    # one load is not broadcast to every bus
    with pytest.raises(ValueError, match=r"^need one load per bus \(3\)$"):
        kkt_verify_network(grid, fleet, d.power, d.lmps, [43.0])


# ---------------------------------------------------------------------------
# randomized certificates and optimality


def test_every_solution_carries_a_certificate():
    rng = np.random.default_rng(51)
    congested = 0
    for _ in range(300):
        grid, fleet, loads = random_network_instance(rng)
        d = deterministic(grid, fleet, loads)
        report = kkt_verify_network(grid, fleet, d.power, d.lmps, loads)
        assert report.max_residual <= 1e-8, report
        congested += bool((np.diff(d.lmps) > 0.0).any())
    assert congested > 20  # the instance mix must actually exercise congestion


def reference_network_residuals(grid, fleet, power, lmps, loads):
    """Balance, line feasibility and complementary slackness as loops along
    the feeder, with each multiplier taken from the prices one at a time."""
    n, limit, asks = grid.n_buses, grid.line_limit, fleet.ask_prices
    flow = line_feas = cs = 0.0
    for i in range(n):
        mu, mu_bar = max(lmps[i] - asks[i], 0.0), max(asks[i] - lmps[i], 0.0)
        cs = max(cs, abs(mu * (power[i] - fleet.p_maxs[i])), abs(mu_bar * power[i]))
        flow += power[i] - loads[i]
        if i < n - 1:
            line_feas = max(line_feas, abs(flow) - limit)
            rise = lmps[i + 1] - lmps[i]
            cs = max(cs, abs(rise * (flow - limit)) if rise > 0.0 else abs(rise * (flow + limit)))
    return abs(flow), line_feas, cs


def test_network_blocks_match_per_bus_loops():
    rng = np.random.default_rng(54)
    for _ in range(200):
        grid, fleet, loads = random_network_instance(rng)
        d = deterministic(grid, fleet, loads)
        n = grid.n_buses
        power = d.power + rng.normal(0.0, 1.0, n)
        lmps = d.lmps + rng.normal(0.0, 1.0, n)
        report = kkt_verify_network(grid, fleet, power, lmps, loads)
        balance, line_feas, cs = reference_network_residuals(grid, fleet, power, lmps, loads)
        assert report.balance == pytest.approx(balance, rel=1e-12, abs=1e-12)
        assert report.line_feasibility == pytest.approx(line_feas, rel=1e-12, abs=1e-12)
        assert report.complementary_slackness == pytest.approx(cs, rel=1e-12, abs=1e-12)


def test_uncongested_instances_share_one_price():
    rng = np.random.default_rng(52)
    for _ in range(100):
        grid, fleet, loads = random_network_instance(rng)
        big = RadialGrid(grid.n_buses, float(loads.sum() + 1000.0))
        d = deterministic(big, fleet, loads)
        assert np.all(d.lmps == d.lmps[0])


def test_certificate_rejects_every_costlier_feasible_shift():
    # moving 1 MW from unit i to a dearer unit j keeps the balance; where the
    # result stays inside the boxes and line limits it is feasible but not
    # optimal, so no price vector may certify it: neither the kernel's LMPs
    # nor the duals HiGHS finds for the optimum
    rng = np.random.default_rng(7)
    shifts = 0
    for _ in range(600):
        grid, fleet, loads = random_network_instance(rng)
        d = deterministic(grid, fleet, loads)
        duals = _feeder_lp(grid, fleet, loads).eqlin.marginals
        for i, j in itertools.permutations(range(grid.n_buses), 2):
            power = d.power.copy()
            power[i] -= 1.0
            power[j] += 1.0
            flows = np.cumsum(power - loads)[:-1]
            if (fleet.ask_prices[j] <= fleet.ask_prices[i] or power.min() < 0.0
                    or np.any(power > fleet.p_maxs)
                    or np.any(np.abs(flows) > grid.line_limit)):
                continue
            for lmps in (d.lmps, duals):
                report = kkt_verify_network(grid, fleet, power, lmps, loads)
                assert report.max_residual > 1e-6, (grid, fleet, loads, i, j, lmps)
            shifts += 1
    assert shifts > 1000  # 1,931 with numpy 2 and scipy 1.17


def test_objective_beats_grid_enumeration():
    rng = np.random.default_rng(53)
    for _ in range(25):
        n = int(rng.integers(2, 4))
        loads = rng.integers(0, 70, n).astype(float)
        if loads.sum() > 200:
            continue
        suffix = np.cumsum(loads[::-1])[::-1]
        p_max = suffix + 30.0
        asks = np.sort(rng.uniform(5.0, 100.0, n))
        if np.any(np.diff(asks) < 1e-3):
            continue
        grid = RadialGrid(n, float(rng.integers(10, 80)))
        fleet = feeder_fleet(asks, p_max)
        d = deterministic(grid, fleet, loads)
        total = int(loads.sum())
        best = None
        for g1 in range(0, min(total, int(p_max[0])) + 1):
            remaining = total - g1
            if n == 2:
                g_rest = [(remaining,)]
            else:
                g_rest = [(g2, remaining - g2) for g2 in range(0, remaining + 1)]
            for rest in g_rest:
                alloc = np.array([g1, *rest], dtype=float)
                if np.any(alloc > p_max) or np.any(alloc < 0.0):
                    continue
                flows = np.cumsum(alloc - loads)[:-1]
                if np.any(np.abs(flows) > grid.line_limit):
                    continue
                cost = float(fleet.ask_prices @ alloc)
                if best is None or cost < best:
                    best = cost
        assert best is not None
        assert float(fleet.ask_prices @ d.power) <= best + 1e-6
