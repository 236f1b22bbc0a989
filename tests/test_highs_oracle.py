"""HiGHS as an independent oracle for the closed-form kernels.

``scipy.optimize.linprog(method="highs")`` solves the single-bus clearing LP
and the radial DC-OPF LP from scratch.  On fleets whose minimums are all 0
the closed forms must reach the LP's optimal cost, and their prices must be
its duals wherever the dual is unique.  Only the tests import
``scipy.optimize``; the package does not.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from gridclear import (Fleet, GeneratorSpec, InfeasibleDispatchError, RadialGrid,
                       commit_batch, solve_deterministic)


def _zero_min_fleet(rng, n):
    asks = np.cumsum(rng.uniform(0.5, 80.0, n)) + 1.0
    p_max = rng.uniform(1.0, 200.0, n)
    return Fleet(tuple(GeneratorSpec(f"u{i}", float(asks[i]), 0.0, float(p_max[i]))
                       for i in range(n)))


def _highs(c, bounds, a_eq, b_eq):
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return res


def test_commit_batch_matches_the_clearing_lp():
    # min asks @ p  s.t.  sum(p) = d,  0 <= p <= p_max; the balance dual is
    # the clearing price, except at a capacity prefix sum (d = 0 included),
    # where any price between two neighbouring asks is a dual
    rng = np.random.default_rng(0)
    priced = 0
    for _ in range(150):
        fleet = _zero_min_fleet(rng, int(rng.integers(1, 6)))
        n, prefix = len(fleet), fleet.p_max_prefix
        demands = np.concatenate((rng.uniform(0.0, fleet.total_capacity, 3), prefix))
        batch = commit_batch(fleet, demands)
        for d, power, price in zip(demands, batch.power, batch.clearing_price):
            res = _highs(fleet.ask_prices, list(zip(np.zeros(n), fleet.p_maxs)),
                         np.ones((1, n)), [d])
            cost = float(fleet.ask_prices @ power)
            assert cost == pytest.approx(res.fun, rel=1e-9, abs=1e-9)
            if not np.isclose(d, prefix, rtol=0.0, atol=1e-7).any():
                assert price == pytest.approx(res.eqlin.marginals[0], abs=1e-9)
                priced += 1
    assert priced == 450


def _feeder_lp(grid, fleet, net):
    """Variables: the n outputs, then the flow on each line i -> i+1; bus i
    balances p_i + f_{i-1} - f_i = net_i."""
    n = grid.n_buses
    a_eq = np.zeros((n, 2 * n - 1))
    a_eq[:, :n] = np.eye(n)
    for i in range(n - 1):
        a_eq[i, n + i], a_eq[i + 1, n + i] = -1.0, 1.0
    bounds = ([(0.0, p) for p in fleet.p_maxs]
              + [(-grid.line_limit, grid.line_limit)] * (n - 1))
    return _highs(np.concatenate((fleet.ask_prices, np.zeros(n - 1))), bounds, a_eq, net)


def test_solve_deterministic_matches_the_dc_opf_lp():
    # random feeders with non-negative net loads and zero minimums, kept only
    # where the feeder recursion clears them; the LP's balance duals are the
    # LMPs and minus its flows' upper-bound marginals the line multipliers
    rng = np.random.default_rng(1)
    solved = congested = 0
    for _ in range(800):
        n = int(rng.integers(1, 6))
        loads = rng.uniform(0.0, 150.0, n)
        renewables = loads * rng.uniform(0.0, 1.0, n) * (rng.random() < 0.5)
        net = loads - renewables
        tails = np.cumsum(net[::-1])[::-1]
        p_max = tails * rng.uniform(0.8, 2.0, n) + rng.uniform(0.0, 20.0, n)
        asks = np.cumsum(rng.uniform(0.5, 80.0, n)) + 1.0
        fleet = Fleet(tuple(GeneratorSpec(f"b{i}", float(asks[i]), 0.0, float(p_max[i]))
                            for i in range(n)))
        grid = RadialGrid(n, float(rng.uniform(5.0, 200.0)))
        try:
            solution = solve_deterministic(grid, fleet, loads, renewables)
        except InfeasibleDispatchError:
            continue
        res = _feeder_lp(grid, fleet, net)
        assert solution.objective == pytest.approx(res.fun, rel=1e-9, abs=1e-9)
        assert solution.lmps == pytest.approx(res.eqlin.marginals, abs=1e-9)
        assert solution.line_mu == pytest.approx(-res.upper.marginals[n:], abs=1e-9)
        solved += 1
        congested += bool(solution.line_mu.any())
    # enough of both cases that neither is checked by accident alone
    assert solved > 500 and congested > 200
