"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as sstats

import oracles
from gridclear import (Fleet, GeneratorSpec, InfeasibleDispatchError, RadialGrid, Regime,
                       RunConfig, commit, cvar_rows, dispatch_radial, emit_csv, kkt_residuals,
                       kkt_verify_network, point_row, run_grid)
from gridclear.experiment import ALPHA_SWEEP_COLUMNS, PENETRATION_SWEEP_COLUMNS

from test_merit_order import enumeration_oracle, random_fleet
from test_risk import bound_gap, one_row, rockafellar_grid_oracle, tail_expectation_oracle
from test_settlement import recovery_rate


def grid_rows(run):
    return [point_row(run, point) for point in run_grid(run)]


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def _interior_minimum(values):
    values = np.asarray(values, dtype=float)
    i = int(values.argmin())
    return 0 < i < values.size - 1 and values[0] > values[i] and values[-1] > values[i]


def test_criterion_1_cvar_oracle_equivalence():
    with criterion(1, "CVaR routes agree with brute-force tail and grid oracles"):
        rng = np.random.default_rng(101)
        start = time.monotonic()
        for _ in range(1000):
            m = int(rng.integers(1, 13))
            values = rng.uniform(-200.0, 500.0, m)
            probs = rng.random(m) + 1e-3
            probs /= probs.sum()
            points = list(zip(values, probs))
            alpha = float(rng.uniform(0.02, 0.98))
            direct = one_row(values, probs, alpha)[1]
            brute = tail_expectation_oracle(points, alpha)
            grid_min, _ = rockafellar_grid_oracle(points, alpha, step_frac=1e-4)
            assert abs(direct - brute) <= 1e-6
            assert abs(direct - grid_min) <= 1e-6
            assert abs(oracles.rockafellar_cvar(values, probs, alpha) - direct) <= 1e-9
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_2_risk_axioms():
    with criterion(2, "coherence axioms hold on 1000 scenario-derived samples"):
        rng = np.random.default_rng(102)
        checked = 0
        while checked < 1000:
            run = RunConfig(
                seed=int(rng.integers(1, 10_000_000)),
                n_scenarios=int(rng.integers(8, 60)),
                load_std_frac=float(rng.uniform(0.01, 0.2)),
                uncertainty_growth=float(rng.uniform(0.0, 0.4)),
                capacity_mode="buildout",
            )
            pen = float(rng.uniform(0.0, 1.0))
            load, renewable, probs = oracles.scenario_arrays(run, pen)
            net = load[:, 0] - renewable[:, 0]  # (bus, K) in the first hour
            per_bus, joint = list(net), net.sum(axis=0)
            for values in (*per_bus, joint):
                a1 = float(rng.uniform(0.02, 0.5))
                a2 = float(rng.uniform(0.5, 0.98))
                c = float(rng.uniform(-300.0, 300.0))
                lam = float(rng.uniform(0.01, 10.0))
                base_var, base = one_row(values, probs, a2)
                assert abs(one_row(values + c, probs, a2)[1] - (base + c)) <= 1e-9
                assert (abs(one_row(lam * values, probs, a2)[1] - lam * base)
                        <= 1e-9 * max(1.0, lam))
                assert one_row(values, probs, a1)[1] <= base + 1e-9
                assert base >= base_var - 1e-9
                checked += 1
            assert bound_gap([list(zip(v, probs)) for v in per_bus],
                             list(zip(joint, probs)), a2) >= -1e-9


def test_criterion_3_commitment_matches_enumeration():
    with criterion(3, "closed-form commitment equals the enumeration oracle"):
        rng = np.random.default_rng(103)
        start = time.monotonic()
        done = 0
        while done < 500:
            fleet = random_fleet(rng, max_units=4)
            lo = float(fleet.p_mins.min())
            hi = float(fleet.p_maxs.sum())
            demand = float(rng.uniform(lo, hi))
            try:
                res = commit(fleet, demand)
            except InfeasibleDispatchError:
                cost, _ = enumeration_oracle(fleet, demand)
                assert cost is None
                continue
            cost, alloc = enumeration_oracle(fleet, demand)
            assert cost is not None
            assert np.allclose(res.power, alloc, atol=1e-8)
            assert abs(float(fleet.ask_prices @ res.power) - cost) <= 1e-8
            assert kkt_residuals(fleet, res, demand).max_residual <= 1e-9
            done += 1
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f}s"


def test_criterion_4_backdown_always_feasible():
    with criterion(4, "back-down regime is always feasible under the range clause"):
        rng = np.random.default_rng(104)
        trials = 0
        while trials < 10_000:
            fleet = random_fleet(rng, max_units=4)
            if len(fleet) < 2:
                continue
            k = int(rng.integers(1, len(fleet)))
            if fleet.p_mins[k] <= 1e-9:
                continue
            demand = float(fleet.p_maxs[:k].sum()
                           + rng.uniform(1e-6, 1.0 - 1e-6) * fleet.p_mins[k])
            gap = demand - float(fleet.p_maxs[:k].sum())
            if not 0.0 < gap < fleet.p_mins[k]:
                continue
            res = commit(fleet, demand)
            assert res.regime is Regime.BELOW_PMIN
            assert res.power[k] == fleet.p_mins[k]
            assert res.total_power == pytest.approx(demand, abs=1e-9)
            trials += 1


def test_criterion_5_congestion_dispatch():
    with criterion(5, "feeder dispatch matches hand values, respects limits and commits "
                      "the joint CVaR, below the sum of per-bus CVaRs"):
        fleet = Fleet(tuple(GeneratorSpec(f"b{i}", a, 0.0, m)
                            for i, (a, m) in enumerate([(10.0, 400.0), (20.0, 300.0),
                                                        (30.0, 200.0)])))
        grid = RadialGrid(3, 50.0)
        congested = dispatch_radial(grid, fleet, [60, 40, 30], [130, 70, 30])
        assert np.allclose(congested.power, [110.0, 20.0, 0.0])
        assert np.allclose(congested.lmps, [10.0, 20.0, 20.0])
        open_feeder = dispatch_radial(grid, fleet, [60, 20, 20], [100, 40, 20])
        assert np.allclose(open_feeder.power, [100.0, 0.0, 0.0])
        assert np.allclose(open_feeder.lmps, [10.0, 10.0, 10.0])

        rng = np.random.default_rng(105)
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            net = rng.uniform(0.0, 80.0, n)
            suffix = np.cumsum(net[::-1])[::-1]
            p_max = suffix + rng.uniform(1.0, 50.0, n)
            asks = np.sort(rng.uniform(5.0, 200.0, n))
            if n > 1 and np.any(np.diff(asks) < 1e-3):
                continue
            inst_fleet = Fleet(tuple(GeneratorSpec(f"b{i}", float(asks[i]), 0.0,
                                                   float(p_max[i])) for i in range(n)))
            inst_grid = RadialGrid(n, float(rng.uniform(5.0, 120.0)))
            d = dispatch_radial(inst_grid, inst_fleet, net, suffix)
            assert abs(d.total_power - net.sum()) <= 1e-9
            flows = np.cumsum(d.power - net)[:-1]
            assert np.all(np.abs(flows) <= inst_grid.line_limit + 1e-9)

        # drawn samples: the feeder commits the joint CVaR, and the sum of
        # per-bus CVaRs lies above it on most instances, so the identity is
        # not the one where the two sums agree
        positive, instances = 0, 0
        while instances < 1000:
            n, k = int(rng.integers(1, 7)), int(rng.integers(2, 21))
            values = rng.uniform(0.0, 80.0, (n, k))
            tails = np.cumsum(values[::-1], axis=0)[::-1]
            alpha = float(rng.uniform(0.1, 0.95))
            cvars = cvar_rows(np.vstack([values, tails]), np.full(k, 1.0 / k), alpha)[1]
            per_bus, tail = cvars[:n], cvars[n:]
            asks = np.sort(rng.uniform(5.0, 200.0, n))
            if n > 1 and np.any(np.diff(asks) < 1e-3):
                continue
            inst_fleet = Fleet(tuple(GeneratorSpec(f"b{i}", float(asks[i]), 0.0,
                                                   float(tail[i] + rng.uniform(1.0, 50.0)))
                                     for i in range(n)))
            inst_grid = RadialGrid(n, float(rng.uniform(5.0, 120.0)))
            d = dispatch_radial(inst_grid, inst_fleet, per_bus, tail)
            gap = per_bus.sum() - tail[0]
            assert abs(d.total_power - tail[0]) <= 1e-9
            assert gap >= -1e-9
            positive += gap > 0.0
            instances += 1
        print(f"criterion 5: the subadditivity gap is positive on {positive / instances:.3f} "
              f"of {instances} drawn instances")
        assert positive >= 0.6 * instances


def test_criterion_6_network_certificate():
    with criterion(6, "every deterministic network dispatch carries a certificate"):
        rng = np.random.default_rng(106)
        congested_seen = 0
        for _ in range(400):
            n = int(rng.integers(1, 6))
            loads = rng.uniform(0.0, 70.0, n)
            suffix = np.cumsum(loads[::-1])[::-1]
            p_max = suffix + rng.uniform(1.0, 40.0, n)
            asks = np.sort(rng.uniform(5.0, 150.0, n))
            if n > 1 and np.any(np.diff(asks) < 1e-3):
                continue
            fleet = Fleet(tuple(GeneratorSpec(f"b{i}", float(asks[i]), 0.0,
                                              float(p_max[i])) for i in range(n)))
            grid = RadialGrid(n, float(rng.uniform(10.0, 100.0)))
            d = dispatch_radial(grid, fleet, loads, suffix)
            assert kkt_verify_network(grid, fleet, d.power, d.lmps, loads).max_residual <= 1e-8
            if (np.diff(d.lmps) > 0.0).any():
                congested_seen += 1
            else:
                assert np.all(d.lmps == d.lmps[0])
        assert congested_seen >= 30


def test_criterion_7_trend_reproduction():
    with criterion(7, "reference-fleet sweeps reproduce the qualitative trends"):
        start = time.monotonic()
        alpha_run = RunConfig(capacity_mode="tracking", penetrations=(0.009,),
                              alphas=(0.5, 0.6, 0.7, 0.8, 0.9, 0.99))
        alpha_rows = grid_rows(alpha_run)
        assert len(alpha_rows) == 6
        committed = [r["committed_mw"] for r in alpha_rows]
        price = [r["price"] for r in alpha_rows]
        uplift = [r["lambda_w"] for r in alpha_rows]
        # (a) committed power and clearing price non-decreasing in confidence
        assert all(b >= a - 1e-9 for a, b in zip(committed, committed[1:]))
        assert all(b >= a - 1e-9 for a, b in zip(price, price[1:]))
        # (d) recovery uplift non-decreasing in confidence
        assert all(b >= a - 1e-9 for a, b in zip(uplift, uplift[1:]))

        pen_run = RunConfig(capacity_mode="buildout", alphas=(0.95,))
        pen_rows = grid_rows(pen_run)
        assert len(pen_rows) == 11
        pen_committed = [r["committed_mw"] for r in pen_rows]
        pen_price = [r["price"] for r in pen_rows]
        deviation = [r["deviation_cost"] for r in pen_rows]
        # (b) committed power and price dip at an interior penetration
        assert _interior_minimum(pen_committed)
        assert _interior_minimum(pen_price)
        # (c) deviation cost grows with penetration up to sampling noise
        rho = sstats.spearmanr([r["penetration"] for r in pen_rows], deviation).statistic
        assert rho > 0.9, f"spearman {rho:.3f}"
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"sweeps took {elapsed:.1f}s"


def test_criterion_8_settlement_identities():
    with criterion(8, "settlement identities and the worked recovery example hold"):
        # deviation cost is the literal difference and the uplift switches off
        run = RunConfig(capacity_mode="buildout", alphas=(0.9,), penetrations=(0.5,))
        point, = run_grid(run)
        assert point.deviation_cost == point.expected_profit - point.realized_profit  # exact
        off, = run_grid(replace(run, cost_recovery=0))
        assert off.lambda_w == 0.0
        # the uplift recovers H from consumers and reaches neither profit, so
        # both profits keep their bits when recovery is switched off
        assert (np.array([off.expected_profit, off.realized_profit]).tobytes()
                == np.array([point.expected_profit, point.realized_profit]).tobytes())

        worked = Fleet((GeneratorSpec("g", 10.0, 0.0, 500.0, 500.0, 500.0,
                                      start_cost_hot=100.0, start_cost_cold=999.0,
                                      no_load_cost=10.0),))
        committed = np.array([[120.0], [80.0]])
        h, lam = recovery_rate(committed, np.zeros((2, 1)), np.zeros((2, 1)),
                               worked, cost_recovery=1)
        assert h == pytest.approx(120.0) and lam == pytest.approx(0.6)

        det = RunConfig(capacity_mode="tracking", penetrations=(0.0,),
                        load_std_frac=0.0, alphas=(0.9,))
        det_point, = run_grid(det)
        assert abs(det_point.deviation_cost) <= 1e-9


def test_criterion_9_deterministic_csv(tmp_path):
    with criterion(9, "identical config and seed give bit-identical CSV files"):
        run = RunConfig(capacity_mode="buildout", alphas=(0.95,), seed=13)
        rows_a = grid_rows(run)
        rows_b = grid_rows(RunConfig(capacity_mode="buildout", alphas=(0.95,), seed=13))
        pa = emit_csv(rows_a, tmp_path / "a.csv", PENETRATION_SWEEP_COLUMNS)
        pb = emit_csv(rows_b, tmp_path / "b.csv", PENETRATION_SWEEP_COLUMNS)
        assert pa.read_bytes() == pb.read_bytes()

        alpha_a = grid_rows(RunConfig(capacity_mode="tracking",
                                      penetrations=(0.009,), seed=13))
        alpha_b = grid_rows(RunConfig(capacity_mode="tracking",
                                      penetrations=(0.009,), seed=13))
        qa = emit_csv(alpha_a, tmp_path / "qa.csv", ALPHA_SWEEP_COLUMNS)
        qb = emit_csv(alpha_b, tmp_path / "qb.csv", ALPHA_SWEEP_COLUMNS)
        assert qa.read_bytes() == qb.read_bytes()
