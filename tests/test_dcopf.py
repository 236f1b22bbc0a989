"""Deterministic network dispatch and its constructed certificate."""

import numpy as np
import pytest

from gridclear import (Fleet, GeneratorSpec, KktReport, RadialGrid, builtin_fleet,
                       kkt_verify_network, solve_deterministic)
from gridclear.dcopf import OpfSolution


def feeder_fleet(asks, p_maxs):
    return Fleet(tuple(GeneratorSpec(f"b{i}", float(a), 0.0, float(m))
                       for i, (a, m) in enumerate(zip(asks, p_maxs))))


def random_network_instance(rng, max_buses=5):
    n = int(rng.integers(1, max_buses + 1))
    loads = rng.uniform(0.0, 70.0, n)
    suffix = np.cumsum(loads[::-1])[::-1]
    p_max = suffix + rng.uniform(1.0, 40.0, n)
    asks = np.sort(rng.uniform(5.0, 150.0, n))
    while n > 1 and np.any(np.diff(asks) < 1e-3):
        asks = np.sort(rng.uniform(5.0, 150.0, n))
    b = rng.uniform(1.0, 20.0, max(n - 1, 0))
    grid = RadialGrid(n, float(rng.uniform(10.0, 100.0)), admittances=b)
    return grid, feeder_fleet(asks, p_max), loads


# ---------------------------------------------------------------------------
# worked examples


def test_two_bus_transfer():
    grid = RadialGrid(2, 50.0, admittances=[10.0])
    fleet = feeder_fleet([10, 20], [400, 100])
    sol = solve_deterministic(grid, fleet, [0.0, 30.0])
    assert np.allclose(sol.power, [30, 0])
    assert np.allclose(sol.flows, [30.0])
    assert np.allclose(sol.angles, [0.0, -3.0])
    assert kkt_verify_network(sol, grid, fleet, [0.0, 30.0]).max_residual <= 1e-12


def test_zero_load_everywhere():
    grid = RadialGrid(3, 50.0)
    fleet = feeder_fleet([10, 20, 30], [100, 100, 100])
    sol = solve_deterministic(grid, fleet, [0.0, 0.0, 0.0])
    assert np.allclose(sol.power, 0.0)
    assert np.all(sol.lmps == 10.0)


def test_congested_three_bus_flows():
    grid = RadialGrid(3, 50.0, admittances=[10.0, 10.0])
    fleet = feeder_fleet([10, 20, 30], [400, 300, 200])
    sol = solve_deterministic(grid, fleet, [60.0, 40.0, 30.0])
    assert np.allclose(sol.power, [110, 20, 0])
    # nodal balance by forward substitution fixes the line flows
    assert np.allclose(sol.flows, [50.0, 30.0])
    assert np.allclose(sol.angles, [0.0, -5.0, -8.0])
    assert np.allclose(sol.lmps, [10, 20, 20])
    report = kkt_verify_network(sol, grid, fleet, [60.0, 40.0, 30.0])
    assert report.max_residual <= 1e-8


def test_renewables_offset_load():
    grid = RadialGrid(2, 80.0, admittances=[5.0])
    fleet = feeder_fleet([10, 20], [200, 100])
    sol = solve_deterministic(grid, fleet, [50.0, 40.0], renewables=[10.0, 15.0])
    assert sol.total_power == pytest.approx(65.0, abs=1e-9)
    assert kkt_verify_network(sol, grid, fleet, [50.0, 40.0],
                         renewables=[10.0, 15.0]).max_residual <= 1e-8


# ---------------------------------------------------------------------------
# certificate checker behaviour


def test_certificate_detects_corrupt_price():
    grid = RadialGrid(2, 50.0, admittances=[10.0])
    fleet = feeder_fleet([10, 20], [400, 100])
    sol = solve_deterministic(grid, fleet, [0.0, 30.0])
    lmps = sol.lmps.copy().astype(float)
    lmps[1] += 1.0
    bad = OpfSolution(sol.power, sol.angles, lmps, sol.mu, sol.mu_bar,
                      sol.line_mu, sol.flows, sol.objective)
    report = kkt_verify_network(bad, grid, fleet, [0.0, 30.0])
    assert report.angle_stationarity == pytest.approx(10.0, abs=1e-9)


def test_certificate_detects_corrupt_line_multiplier():
    grid = RadialGrid(3, 50.0, admittances=[10.0, 10.0])
    fleet = feeder_fleet([10, 20, 30], [400, 300, 200])
    sol = solve_deterministic(grid, fleet, [60.0, 40.0, 30.0])
    line_mu = sol.line_mu.copy()
    line_mu[0] = 0.0  # congested line's multiplier must carry the price jump
    bad = OpfSolution(sol.power, sol.angles, sol.lmps, sol.mu, sol.mu_bar,
                      line_mu, sol.flows, sol.objective)
    report = kkt_verify_network(bad, grid, fleet, [60.0, 40.0, 30.0])
    assert report.angle_stationarity >= 10.0 * (20 - 10) - 1e-9


def test_certificate_detects_balance_violation():
    grid = RadialGrid(2, 50.0, admittances=[10.0])
    fleet = feeder_fleet([10, 20], [400, 100])
    sol = solve_deterministic(grid, fleet, [0.0, 30.0])
    power = sol.power.copy()
    power[0] += 2.0
    bad = OpfSolution(power, sol.angles, sol.lmps, sol.mu, sol.mu_bar,
                      sol.line_mu, sol.flows, sol.objective)
    assert kkt_verify_network(bad, grid, fleet, [0.0, 30.0]).nodal_balance == pytest.approx(2.0)


def test_certificate_holds_decommitted_unit_at_zero():
    # an idle unit with a positive minimum was decommitted: its box is [0, 0]
    grid = RadialGrid(2, 50.0, admittances=[10.0])
    sol = solve_deterministic(grid, feeder_fleet([10, 20], [400, 100]), [0.0, 30.0])
    assert sol.power[1] == 0.0
    fleet = Fleet((GeneratorSpec("b0", 10.0, 0.0, 400.0),
                   GeneratorSpec("b1", 20.0, 10.0, 100.0)))
    report = kkt_verify_network(sol, grid, fleet, [0.0, 30.0])
    assert report.box_feasibility == 0.0
    assert report.max_residual <= 1e-12


def test_certificate_rejects_nan_load():
    grid = RadialGrid(3, 50.0, admittances=[10.0, 10.0])
    fleet = feeder_fleet([10, 20, 30], [400, 300, 200])
    sol = solve_deterministic(grid, fleet, [60.0, 40.0, 30.0])
    with pytest.raises(ValueError, match="^loads must be finite"):
        kkt_verify_network(sol, grid, fleet, [60.0, np.nan, 30.0])


def test_certificate_rejects_nan_line_multiplier():
    grid = RadialGrid(3, 50.0, admittances=[10.0, 10.0])
    fleet = feeder_fleet([10, 20, 30], [400, 300, 200])
    sol = solve_deterministic(grid, fleet, [60.0, 40.0, 30.0])
    bad = OpfSolution(sol.power, sol.angles, sol.lmps, sol.mu, sol.mu_bar,
                      np.array([np.nan, 0.0]), sol.flows, sol.objective)
    with pytest.raises(ValueError, match="^line_mu must be finite"):
        kkt_verify_network(bad, grid, fleet, [60.0, 40.0, 30.0])


def test_max_residual_is_nan_when_a_block_is():
    report = KktReport(0.0, 0.0, 0.0, np.nan, 0.0, 0.0, 0.0)
    assert np.isnan(report.max_residual)


def test_certificate_needs_one_unit_and_one_load_per_feeder_bus():
    grid = RadialGrid(3, 50.0)
    sol = solve_deterministic(grid, builtin_fleet().head(3), [60.0, 40.0, 30.0])
    with pytest.raises(ValueError, match="one unit per bus, got 7 units"):
        kkt_verify_network(sol, grid, builtin_fleet(), [60.0, 40.0, 30.0])
    # one load is not broadcast to every bus
    with pytest.raises(ValueError, match="one load and one renewable value per bus"):
        kkt_verify_network(sol, grid, builtin_fleet().head(3), [43.0])


# ---------------------------------------------------------------------------
# randomized certificates and optimality


def test_every_solution_carries_a_certificate():
    rng = np.random.default_rng(51)
    congested = 0
    for _ in range(300):
        grid, fleet, loads = random_network_instance(rng)
        sol = solve_deterministic(grid, fleet, loads)
        report = kkt_verify_network(sol, grid, fleet, loads)
        assert report.max_residual <= 1e-8, report
        if sol.line_mu.max(initial=0.0) > 0.0:
            congested += 1
    assert congested > 20  # the instance mix must actually exercise congestion


def reference_network_residuals(solution, grid, loads):
    """Angle stationarity and nodal balance as per-bus loops over neighbours."""
    n, b, lmps, line_mu = grid.n_buses, grid.admittances, solution.lmps, solution.line_mu
    flows = b * -np.diff(solution.angles)
    injections = solution.power - loads
    angle_res = balance = 0.0
    for i in range(n):
        acc = 0.0
        if i > 0:
            acc += b[i - 1] * (0.0 - line_mu[i - 1] + lmps[i] - lmps[i - 1])
        if i < n - 1:
            acc += b[i] * (line_mu[i] - 0.0 + lmps[i] - lmps[i + 1])
        angle_res = max(angle_res, abs(acc))
        out = flows[i] if i < n - 1 else 0.0
        inflow = flows[i - 1] if i > 0 else 0.0
        balance = max(balance, abs(injections[i] - (out - inflow)))
    return angle_res, balance


def test_network_blocks_match_per_bus_loops():
    rng = np.random.default_rng(54)
    for _ in range(200):
        grid, fleet, loads = random_network_instance(rng)
        sol = solve_deterministic(grid, fleet, loads)
        n = grid.n_buses
        bad = OpfSolution(sol.power + rng.normal(0.0, 1.0, n),
                          sol.angles + rng.normal(0.0, 0.1, n),
                          sol.lmps + rng.normal(0.0, 1.0, n), sol.mu, sol.mu_bar,
                          sol.line_mu + rng.normal(0.0, 1.0, n - 1), sol.flows, sol.objective)
        report = kkt_verify_network(bad, grid, fleet, loads)
        angle_res, balance = reference_network_residuals(bad, grid, loads)
        assert report.angle_stationarity == pytest.approx(angle_res, rel=1e-12, abs=1e-12)
        assert report.nodal_balance == balance


def test_uncongested_instances_share_one_price():
    rng = np.random.default_rng(52)
    for _ in range(100):
        grid, fleet, loads = random_network_instance(rng)
        big = RadialGrid(grid.n_buses, float(loads.sum() + 1000.0),
                         admittances=grid.admittances)
        sol = solve_deterministic(big, fleet, loads)
        assert np.all(sol.lmps == sol.lmps[0])


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
        sol = solve_deterministic(grid, fleet, loads)
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
        assert float(fleet.ask_prices @ sol.power) <= best + 1e-6
