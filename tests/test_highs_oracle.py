"""HiGHS as an independent oracle for the closed-form kernels.

``scipy.optimize.linprog(method="highs")`` solves the single-bus clearing LP
and the radial feeder's dispatch LP from scratch.  On fleets whose minimums
are all 0 the closed forms must reach the LP's optimal cost, and their
prices must be its duals wherever the dual is unique; HiGHS's own optimum,
priced at its duals, must pass the certificate.  With positive minimums
``scipy.optimize.milp`` solves the unit-commitment MILP: the closed form's
dispatch must be feasible and may cost more than the MILP's, never less.
A one-bus run's commitment, a CVaR followed by a merit order, is checked
whole against the paper's optimisation: one LP that minimises the cost
subject to the committed total covering the CVaR of the net load, in the
linear form of Rockafellar and Uryasev (*J. Risk*, 2000, section 3).  With
positive minimums the same program with on/off binaries is a MILP, for
which the commitment must be feasible and cost no less than its optimum.
A feeder run's congested hours are checked against the LP in which each
tail downstream of a line covers its own tail CVaR less the limit: it
commits the printed total, at a cost that is printed.  Between capacity
prefix sums, both LPs' duals give the clearing price as a step function of
the CVaR.  Only the tests import ``scipy.optimize``; the package does not.
"""

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

import oracles
from gridclear import (Fleet, GeneratorSpec, InfeasibleDispatchError, RadialGrid,
                       RunConfig, builtin_fleet, commit_batch, cvar_rows, dispatch_radial,
                       kkt_verify_network, run_grid)


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


def test_dispatch_radial_matches_the_feeder_lp():
    # random feeders with non-negative net loads and zero minimums, kept only
    # where the feeder recursion clears them; the LP's balance duals are the
    # LMPs, minus its flows' upper-bound marginals the price rises across the
    # lines, and its optimum priced at those duals certifies
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
            dispatch = dispatch_radial(grid, fleet, net, tails)
        except InfeasibleDispatchError:
            continue
        res = _feeder_lp(grid, fleet, net)
        rises = np.maximum(np.diff(dispatch.lmps), 0.0)
        assert float(fleet.ask_prices @ dispatch.power) == pytest.approx(res.fun, rel=1e-9,
                                                                        abs=1e-9)
        assert dispatch.lmps == pytest.approx(res.eqlin.marginals, abs=1e-9)
        assert rises == pytest.approx(-res.upper.marginals[n:], abs=1e-9)
        report = kkt_verify_network(grid, fleet, res.x[:n], res.eqlin.marginals, net)
        assert report.max_residual <= 1e-7, report
        solved += 1
        congested += bool(rises.any())
    # enough of both cases that neither is checked by accident alone
    assert solved > 500 and congested > 200


def _unit_commitment(fleet, demand):
    """The cheapest dispatch of ``demand`` over on/off patterns: outputs p and
    binaries u with p_min u <= p <= p_max u and sum(p) = demand."""
    n = len(fleet)
    eye = np.eye(n)
    rows = LinearConstraint(np.block([[np.ones((1, n)), np.zeros((1, n))],
                                      [eye, -np.diag(fleet.p_maxs)],
                                      [eye, -np.diag(fleet.p_mins)]]),
                            np.r_[demand, np.full(n, -np.inf), np.zeros(n)],
                            np.r_[demand, np.zeros(n), np.full(n, np.inf)])
    return milp(np.r_[fleet.ask_prices, np.zeros(n)], constraints=rows,
                integrality=np.r_[np.zeros(n), np.ones(n)],
                bounds=Bounds(0.0, np.r_[fleet.p_maxs, np.ones(n)]),
                options={"mip_rel_gap": 0.0})


def _committed_cost(fleet, demand):
    """Cost of ``commit_batch``'s dispatch of ``demand`` after checking that it
    balances and keeps every unit at 0 or inside [p_min, p_max]."""
    power = commit_batch(fleet, [demand]).power[0]
    assert power.sum() == pytest.approx(demand, rel=1e-12, abs=1e-9)
    on = power > 0.0
    assert np.all(power[on] >= fleet.p_mins[on] - 1e-9)
    assert np.all(power[on] <= fleet.p_maxs[on] + 1e-9)
    return float(fleet.ask_prices @ power)


def test_commit_batch_is_a_feasible_commitment_with_positive_minimums():
    # about half the minimums are positive; the closed form serves a demand
    # by merit order plus one unit's back-down, which is feasible but not
    # always the cheapest pattern, and rejects some demands the MILP serves
    rng = np.random.default_rng(2)
    served = cheaper = milp_only = 0
    for _ in range(400):
        n = int(rng.integers(1, 6))
        asks = np.cumsum(rng.uniform(0.5, 80.0, n)) + 1.0
        p_max = rng.uniform(1.0, 200.0, n)
        p_min = np.where(rng.random(n) < 0.5, p_max * rng.uniform(0.0, 1.0, n), 0.0)
        fleet = Fleet(tuple(GeneratorSpec(f"u{i}", float(asks[i]), float(p_min[i]),
                                          float(p_max[i])) for i in range(n)))
        for demand in rng.uniform(0.0, fleet.total_capacity, 2):
            res = _unit_commitment(fleet, demand)
            try:
                cost = _committed_cost(fleet, demand)
            except InfeasibleDispatchError:
                milp_only += res.status == 0
                continue
            assert res.status == 0, res.message
            assert cost >= res.fun * (1.0 - 1e-9) - 1e-9
            served += 1
            cheaper += cost > res.fun * (1.0 + 1e-9) + 1e-9
    # measured with scipy 1.17: 706 served, the MILP cheaper on 17 of them,
    # and 21 more served by the MILP alone
    assert served > 600


def test_positive_minimums_can_cost_more_than_the_milp():
    # the 166 $/MWh unit alone at 41.92 MW, where the 75 and 166 $/MWh units
    # together cost less: 23 MW is below the 70 MW and 42 MW minimums' reach
    fleet = Fleet(tuple(GeneratorSpec(f"u{i}", ask, lo, hi) for i, (ask, lo, hi) in
                        enumerate([(62.0, 70.0, 179.0), (75.0, 0.0, 23.0),
                                   (104.0, 42.0, 187.0), (166.0, 0.0, 110.0)])))
    assert _committed_cost(fleet, 41.92) == pytest.approx(6958.72, abs=1e-9)
    res = _unit_commitment(fleet, 41.92)
    assert res.status == 0 and res.fun == pytest.approx(4865.72, abs=1e-6)


def _cvar_commitment_lp(fleet, draws, probabilities, alpha):
    """Variables: the n outputs, eta and one z per draw X_k.  Minimise
    asks @ p with 0 <= p <= p_max, sum(p) >= eta + sum(pi_k z_k) / (1 - alpha)
    (the CVaR constraint, row 0), z_k >= X_k - eta and z >= 0."""
    n, k = len(fleet), len(draws)
    a_ub = np.zeros((1 + k, n + 1 + k))
    a_ub[0, :n], a_ub[0, n], a_ub[0, n + 1:] = -1.0, 1.0, probabilities / (1.0 - alpha)
    a_ub[1:, n] = -1.0
    a_ub[1:, n + 1:] = -np.eye(k)
    bounds = [(0.0, p) for p in fleet.p_maxs] + [(None, None)] + [(0.0, None)] * k
    res = linprog(np.r_[fleet.ask_prices, np.zeros(1 + k)], A_ub=a_ub,
                  b_ub=np.r_[0.0, -draws], bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return res


def _bus_rows_against_the_lp(**grid):
    """Check each (level, hour) of one-bus runs at seeds 7, 11 and 18, T 4
    and K 200 (tracking) on the ``grid`` against the LP; the rows checked and
    how many of them commit 0 MW."""
    fleet = builtin_fleet()
    asks = np.r_[0.0, fleet.ask_prices, np.inf]
    rows = idle = 0
    for seed in (7, 11, 18):
        run = RunConfig(horizon=4, n_scenarios=200, seed=seed, capacity_mode="tracking",
                        **grid)
        points = run_grid(run)
        assert len(points) == len(run.alphas) * len(run.penetrations)
        for point in points:
            load, renewable, probs = oracles.scenario_arrays(run, point.penetration)
            for t, draws in enumerate((load - renewable).sum(axis=0)):
                res = _cvar_commitment_lp(fleet, draws, probs, point.alpha)
                assert float(fleet.ask_prices @ point.committed[t]) == pytest.approx(
                    res.fun, rel=1e-9, abs=1e-9)
                dual = -res.ineqlin.marginals[0]
                prefix = np.flatnonzero(np.isclose(point.committed[t].sum(),
                                                   fleet.p_max_prefix, rtol=0.0, atol=1e-7))
                if prefix.size:
                    j = prefix[0]
                    assert asks[j] - 1e-9 <= dual <= asks[j + 1] + 1e-9
                else:
                    assert dual == pytest.approx(point.clearing_prices[t], abs=1e-9)
                rows += 1
                idle += int(point.committed[t].sum() == 0.0)
    return rows, idle


def test_bus_commitment_is_the_cvar_constrained_lp():
    # each (level, hour) of a one-bus run: the LP's optimal cost is the
    # printed commitment's, and the dual of its CVaR constraint is the
    # printed clearing price, except where the committed total sits at a
    # capacity prefix sum (0 included), where any price between the two
    # neighbouring asks is a dual
    rows, _ = _bus_rows_against_the_lp(alphas=(0.5, 0.9, 0.99),
                                       penetrations=(0.009, 0.5, 0.9))
    assert rows == 108


def test_bus_commitment_is_the_lp_where_the_cvar_is_negative():
    # renewables at 1.5 times the load leave a negative aggregate CVaR in
    # some hours: the kernel commits max(CVaR, 0) = 0 MW, the LP costs 0,
    # and any price in [0, the cheapest ask] is a dual (the prefix-0 case).
    # Without cost recovery, since H cannot be carried on no committed energy
    rows, idle = _bus_rows_against_the_lp(alphas=(0.5, 0.9), penetrations=(1.5,),
                                          cost_recovery=0)
    assert (rows, idle) == (24, 12)


def _cvar_commitment_milp(fleet, draws, probabilities, alpha):
    """``_cvar_commitment_lp`` with on/off binaries: variables the n outputs,
    n binaries u, eta and one z per draw, with p_min u <= p <= p_max u."""
    n, k = len(fleet), len(draws)
    rows = np.zeros((1 + k + 2 * n, 2 * n + 1 + k))
    rows[0, :n], rows[0, 2 * n], rows[0, 2 * n + 1:] = -1.0, 1.0, probabilities / (1.0 - alpha)
    rows[1:1 + k, 2 * n] = -1.0
    rows[1:1 + k, 2 * n + 1:] = -np.eye(k)
    rows[1 + k:, :n] = np.vstack((np.eye(n), np.eye(n)))
    rows[1 + k:, n:2 * n] = -np.vstack((np.diag(fleet.p_maxs), np.diag(fleet.p_mins)))
    res = milp(np.r_[fleet.ask_prices, np.zeros(n + 1 + k)],
               constraints=LinearConstraint(
                   rows, np.r_[np.full(1 + k + n, -np.inf), np.zeros(n)],
                   np.r_[0.0, -draws, np.zeros(n), np.full(n, np.inf)]),
               integrality=np.r_[np.zeros(n), np.ones(n), np.zeros(1 + k)],
               bounds=Bounds(np.r_[np.zeros(2 * n), -np.inf, np.zeros(k)],
                             np.r_[fleet.p_maxs, np.ones(n), np.full(1 + k, np.inf)]),
               options={"mip_rel_gap": 0.0})
    assert res.status == 0, res.message
    return res


def test_bus_commitment_with_positive_minimums_is_feasible_for_the_milp(tmp_path):
    # each (level, hour) of one-bus runs of a fleet with minimums 40/30/0/25
    # MW, at seeds 7, 11 and 18, alpha 0.5 and 0.9, T 4 and K 200 (tracking):
    # the printed commitment keeps each unit at 0 or inside [p_min, p_max],
    # covers the CVaR, and costs no less than the MILP optimum.  The MILP may
    # commit more than the CVaR: on the README's fleet at 41.92 MW it runs
    # the 62 $/MWh unit at its 70 MW minimum for $4,340/h, where the closed
    # form runs the 166 $/MWh unit alone for $6,958.72/h
    specs = [("m0", 12.0, 40.0, 300.0), ("m1", 25.0, 30.0, 200.0), ("m2", 40.0, 0.0, 150.0),
             ("m3", 70.0, 25.0, 120.0)]
    path = tmp_path / "fleet.csv"
    path.write_text("name,ask_price,p_min,p_max,rp_max,ramp_max,hot_start,cold_start,"
                    "no_load_cost\n" + "".join(f"{name},{ask},{lo},{hi},{hi},{hi},400,900,5\n"
                                               for name, ask, lo, hi in specs))
    fleet = Fleet(tuple(GeneratorSpec(*spec) for spec in specs))
    rows = []  # (fleet, draws, probabilities, alpha, committed power)
    for seed in (7, 11, 18):
        run = RunConfig(fleet_source=str(path), alphas=(0.5, 0.9),
                        penetrations=(0.009, 0.5, 0.9), horizon=4, n_scenarios=200,
                        seed=seed, capacity_mode="tracking")
        for point in run_grid(run):
            load, renewable, probs = oracles.scenario_arrays(run, point.penetration)
            rows += [(fleet, draws, probs, point.alpha, power) for draws, power in
                     zip((load - renewable).sum(axis=0), point.committed)]
    readme = Fleet(tuple(GeneratorSpec(f"u{i}", ask, lo, hi) for i, (ask, lo, hi) in
                         enumerate([(62.0, 70.0, 179.0), (75.0, 0.0, 23.0),
                                    (104.0, 42.0, 187.0), (166.0, 0.0, 110.0)])))
    draws, probs = np.full(200, 41.92), np.full(200, 1.0 / 200)
    _, cvar = cvar_rows(draws[None], probs, 0.9)
    rows.append((readme, draws, probs, 0.9, commit_batch(readme, np.maximum(cvar, 0.0)).power[0]))
    assert len(rows) == 3 * 2 * 3 * 4 + 1

    gaps = []
    for units, draws, probs, alpha, power in rows:
        on = power > 0.0
        assert np.all(power[on] >= units.p_mins[on] - 1e-9)
        assert np.all(power <= units.p_maxs + 1e-9)
        assert power.sum() >= oracles.cvar(draws, probs, alpha) - 1e-9
        res = _cvar_commitment_milp(units, draws, probs, alpha)
        cost = float(units.ask_prices @ power)
        assert cost >= res.fun * (1.0 - 1e-9) - 1e-9
        gaps.append((cost - res.fun) / max(res.fun, 1.0))
    print(f"worst relative gap over the runs' {len(rows) - 1} rows: {max(gaps[:-1]):.3g}")
    # the README row, checked last
    assert res.fun == pytest.approx(4340.0, abs=1e-6) and cost == pytest.approx(6958.72)


def test_clearing_price_is_a_step_function_of_the_cvar():
    # the paper's market clearing price of energy as a function of the
    # CVaR, on the built-in fleet: at CVaRs inside each open interval
    # between capacity prefix sums, the dual of the clearing LP's balance
    # and that of the CVaR-constrained LP's CVaR row are the interval's
    # marginal ask, and so is commit_batch's clearing price.  At a prefix
    # sum the dual is any price between two neighbouring asks
    # (test_commit_batch_matches_the_clearing_lp)
    fleet = builtin_fleet()
    n, prefix, asks = len(fleet), fleet.p_max_prefix, fleet.ask_prices
    alpha, base = 0.9, np.random.default_rng(3).normal(0.0, 30.0, 50)
    probabilities = np.full(base.size, 1.0 / base.size)
    base_cvar = cvar_rows(base[None], probabilities, alpha)[1][0]
    table = []
    for j in range(n):
        lo, hi = prefix[j], prefix[j + 1]
        # the draws shifted so that their CVaR lies near each end and in the middle
        draws = base + (lo + (hi - lo) * np.array([0.01, 0.5, 0.99]) - base_cvar)[:, None]
        cvars = cvar_rows(draws, probabilities, alpha)[1]
        assert np.all((lo < cvars) & (cvars < hi))
        for cvar, price, row in zip(cvars, commit_batch(fleet, cvars).clearing_price, draws):
            clearing = _highs(asks, list(zip(np.zeros(n), fleet.p_maxs)), np.ones((1, n)),
                              [cvar])
            constrained = _cvar_commitment_lp(fleet, row, probabilities, alpha)
            assert clearing.eqlin.marginals[0] == pytest.approx(asks[j], abs=1e-9)
            assert -constrained.ineqlin.marginals[0] == pytest.approx(asks[j], abs=1e-9)
            assert price == asks[j]
        table.append(f"  ({lo:6.1f}, {hi:6.1f}) MW  {asks[j]:6.2f} $/MWh")
    print("clearing price as a function of the CVaR (built-in fleet):", *table, sep="\n")


def _congested_commitment_lp(fleet, line_limit, tail_cvars):
    """Reading (a) of the congested commitment: minimise asks @ p with
    0 <= p <= p_max, each downstream tail covering its own tail CVaR less the
    line limit, sum(p[j:]) >= tail_cvars[j] - line_limit for j >= 1, and the
    whole feeder covering max(joint CVaR, 0), the joint CVaR being
    tail_cvars[0]."""
    n = len(fleet)
    a_ub = -np.triu(np.ones((n, n)))  # row j: -sum(p[j:])
    b_ub = -np.r_[max(tail_cvars[0], 0.0), tail_cvars[1:] - line_limit]
    res = linprog(fleet.ask_prices, A_ub=a_ub, b_ub=b_ub,
                  bounds=list(zip(np.zeros(n), fleet.p_maxs)), method="highs")
    assert res.status == 0, res.message
    return res


def test_feeder_commitment_total_is_the_congested_lp_total():
    # each congested hour of three-bus runs on the 80 MW feeder at seeds
    # 0-9, alpha 0.95, T 4 and K 200 (tracking): the LP that makes every
    # tail downstream of a line cover its own tail CVaR less the limit
    # commits the printed total, so that reading of the paper would move
    # power and cost, not the total.  The cost gap (LP - kernel) is printed,
    # not asserted; gaps within $1e-6/h are rounding
    congested, gaps = 0, []
    for seed in range(10):
        run = RunConfig(seed=seed, alphas=(0.95,), penetrations=(0.009, 0.5, 0.9),
                        horizon=4, n_scenarios=200, capacity_mode="tracking",
                        line_limit=80.0, load_mean_per_bus=(150.0, 75.0, 45.0))
        for point in run_grid(run):
            load, renewable, probs = oracles.scenario_arrays(run, point.penetration)
            net = load - renewable
            for t in range(run.horizon):
                if not np.ptp(point.lmps[t]) > 0.0:
                    continue
                tails = np.vstack([net[i:, t].sum(axis=0) for i in range(run.n_buses)])
                res = _congested_commitment_lp(point.fleet, run.line_limit,
                                               cvar_rows(tails, probs, point.alpha)[1])
                assert abs(res.x.sum() - point.committed[t].sum()) <= 1e-9
                gaps.append(res.fun - float(point.fleet.ask_prices @ point.committed[t]))
                congested += 1
    assert congested == 120
    print(f"cost gap (LP - kernel) over {congested} congested hours: median "
          f"${np.median(gaps):.2f}/h, max ${max(gaps):.2f}/h, positive in "
          f"{sum(g > 1e-6 for g in gaps)}")
