"""Harness behaviour: fleet IO, sweeps, CSV determinism, CLI exit codes."""

import dataclasses
import functools
import inspect
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import oracles
from gridclear import (ConfigurationError, Fleet, FleetParseError, GeneratorSpec,
                       InfeasibleDispatchError, RadialGrid, RunConfig, builtin_fleet, cli,
                       cvar_rows, dispatch_radial, emit_csv, experiment, load_fleet,
                       point_row, run_grid, scenario_config, scenarios, settlement)
from gridclear.cli import main
from gridclear.experiment import (ALPHA_SWEEP_COLUMNS, DEFAULT_LOAD_MEAN,
                                  DEFAULT_LOAD_STD_FRAC, PENETRATION_SWEEP_COLUMNS,
                                  derive_capacity)

from test_batch_equivalence import SETTLED
from test_messages import TOP, WIDE_LOADS
from test_scenarios import same_bits, thread_starts  # noqa: F401 (a fixture)

# ---------------------------------------------------------------------------
# fleet loading


def test_builtin_fleet_shape():
    fleet = load_fleet("builtin")
    assert len(fleet) == 7
    assert fleet.total_capacity == 960.0
    assert list(fleet.ask_prices) == [7.37, 22.23, 31.55, 176.05, 180.75, 241.91, 315.81]
    assert list(fleet.p_maxs) == [400, 155, 76, 197, 100, 12, 20]


def test_fleet_csv_roundtrip(tmp_path):
    path = tmp_path / "fleet.csv"
    path.write_text(
        "name,ask_price,p_min,p_max,rp_max,ramp_max,hot_start,cold_start,no_load_cost\n"
        "b,20,0,100,100,100,5,9,1\n"
        "a,10,0,200,200,200,0,0,0\n")
    fleet = load_fleet(str(path))
    assert [g.name for g in fleet.generators] == ["a", "b"]  # sorted by ask


def test_fleet_duplicate_prices_rejected(tmp_path):
    path = tmp_path / "fleet.csv"
    path.write_text(
        "name,ask_price,p_min,p_max,rp_max,ramp_max,hot_start,cold_start,no_load_cost\n"
        "a,5,0,100,100,100,0,0,0\n"
        "b,5,0,100,100,100,0,0,0\n")
    with pytest.raises(FleetParseError, match="strictly increasing"):
        load_fleet(str(path))


FLEET_HEADER = "name,ask_price,p_min,p_max,rp_max,ramp_max,hot_start,cold_start,no_load_cost\n"


def test_cli_fleet_with_tied_asks_is_config_error(tmp_path):
    path = tmp_path / "fleet.csv"
    path.write_text(FLEET_HEADER + "a,5,0,100,100,100,0,0,0\nb,5,0,100,100,100,0,0,0\n")
    result = CliRunner().invoke(main, ["dispatch", "--fleet", str(path),
                                       "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert result.output == (f"configuration error: {path}: ask prices must be strictly "
                             "increasing, got 5.0 then 5.0\n")


def test_cli_fleet_with_a_zero_ask_is_config_error(tmp_path):
    path = tmp_path / "fleet.csv"
    path.write_text(FLEET_HEADER + "b,5,0,100,100,100,0,0,0\na,0,0,100,100,100,0,0,0\n")
    result = CliRunner().invoke(main, ["dispatch", "--fleet", str(path),
                                       "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert result.output == (f"configuration error: {path}: the cheapest ask 0.0 "
                             "must be positive\n")


def test_fleet_duplicate_names_rejected(tmp_path):
    path = tmp_path / "fleet.csv"
    path.write_text(FLEET_HEADER + "a,5,0,100,100,100,0,0,0\n\n"
                    "b,6,0,100,100,100,0,0,0\na,7,0,100,100,100,0,0,0\n")
    message = f"{path}:5: unit name 'a' already used on line 2"
    with pytest.raises(FleetParseError, match=f"^{message}$"):
        load_fleet(str(path))
    result = CliRunner().invoke(main, ["dispatch", "--fleet", str(path),
                                       "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert result.output == f"configuration error: {message}\n"


def test_fleet_negative_capacity_rejected(tmp_path):
    path = tmp_path / "fleet.csv"
    path.write_text(
        "name,ask_price,p_min,p_max,rp_max,ramp_max,hot_start,cold_start,no_load_cost\n"
        "a,5,0,-100,100,100,0,0,0\n")
    with pytest.raises(FleetParseError) as err:
        load_fleet(str(path))
    assert str(err.value) == f"{path}:2: a: need 0 <= p_min <= p_max, got [0.0, -100.0]"


def test_fleet_malformed_row_names_line(tmp_path):
    path = tmp_path / "fleet.csv"
    path.write_text(
        "name,ask_price,p_min,p_max,rp_max,ramp_max,hot_start,cold_start,no_load_cost\n"
        "a,5,0,100,100,100,0,0,0\n"
        "b,oops,0,100,100,100,0,0,0\n")
    with pytest.raises(FleetParseError) as err:
        load_fleet(str(path))
    assert str(err.value) == f"{path}:3: could not convert string to float: 'oops'"


def test_fleet_error_names_physical_line_after_quoted_newline(tmp_path):
    path = tmp_path / "fleet.csv"
    path.write_text(
        "name,ask_price,p_min,p_max,rp_max,ramp_max,hot_start,cold_start,no_load_cost\n"
        'a,"5\n",0,100,100,100,0,0,0\n'
        "b,oops,0,100,100,100,0,0,0\n")
    with pytest.raises(FleetParseError, match=f"^{path}:4: could not convert"):
        load_fleet(str(path))


def test_fleet_file_may_start_with_a_byte_order_mark(tmp_path):
    text = FLEET_HEADER + "a,5,0,600,600,300,0,0,0\nb,9,0,900,900,900,0,0,0\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    assert load_fleet(str(marked)) == load_fleet(str(plain))
    written = []
    for path in (plain, marked):
        out = tmp_path / path.stem
        result = CliRunner().invoke(main, ["settle", "--fleet", str(path), "--scenarios", "20",
                                           "--horizon", "2", "--out", str(out)])
        assert result.exit_code == 0, result.output
        written.append((out / "settlement.csv").read_bytes())
    assert written[0] == written[1]


def test_fleet_not_utf8_is_parse_error(tmp_path):
    path = tmp_path / "fleet.csv"
    path.write_bytes(
        b"name,ask_price,p_min,p_max,rp_max,ramp_max,hot_start,cold_start,no_load_cost\n"
        b"\xff\xfe,5,0,100,100,100,0,0,0\n")
    with pytest.raises(FleetParseError, match="fleet file is not UTF-8 text"):
        load_fleet(str(path))
    result = CliRunner().invoke(main, ["settle", "--fleet", str(path),
                                       "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert result.output.startswith(f"configuration error: {path}: fleet file is not UTF-8")


@pytest.mark.parametrize("name", ["", "a,b", 'a"b', "a\tb", "a\x7f", "a\x85"])
def test_generator_spec_rejects_name_that_breaks_csv(name):
    with pytest.raises(ValueError, match="must be non-empty and free of commas"):
        GeneratorSpec(name, 5.0)


@pytest.mark.parametrize("field,shown", [
    ("a\x00", r"'a\x00'"),
    ('"big, coal"', "'big, coal'"),
    ('"peak\nx"', r"'peak\nx'"),
], ids=["nul", "comma", "newline"])
def test_cli_dispatch_rejects_unit_name_that_breaks_csv(field, shown, tmp_path):
    path = tmp_path / "fleet.csv"
    path.write_text(
        "name,ask_price,p_min,p_max,rp_max,ramp_max,hot_start,cold_start,no_load_cost\n"
        f"{field},5,0,100,100,100,0,0,0\n"
        "b,9,0,900,900,900,0,0,0\n", encoding="utf-8")
    with pytest.raises(FleetParseError) as err:
        load_fleet(str(path))
    assert str(err.value).startswith(f"{path}:2: unit name {shown} must be non-empty")
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["dispatch", "--fleet", str(path), "--out", str(out)])
    assert result.exit_code == 2
    assert result.output == (f"configuration error: {path}:2: unit name {shown} must be "
                             "non-empty and free of commas, double quotes and control "
                             "characters\n")
    assert not (out / "dispatch.csv").exists()


# ---------------------------------------------------------------------------
# config plumbing


def test_empty_alpha_grid_rejected():
    with pytest.raises(ConfigurationError):
        RunConfig(alphas=())


def test_unknown_capacity_mode_rejected():
    with pytest.raises(ConfigurationError, match="^unknown capacity mode 'tracked'$"):
        RunConfig(capacity_mode="tracked")


def test_capacity_modes():
    tracking = derive_capacity((100.0, 100.0), 0.5, "tracking")
    assert np.allclose(tracking, 0.5 * 100.0 / 0.85)
    buildout = derive_capacity((100.0, 100.0), 0.5, "buildout")
    assert np.allclose(buildout, 110.0)


# ---------------------------------------------------------------------------
# sweeps


def grid_rows(run, diagnostics=None):
    return [point_row(run, point) for point in run_grid(run, diagnostics)]


def aggregate_cvar(run, penetration, alpha):
    """The reference CVaR of a level's aggregate net load in hour 0."""
    load, renewable, probs = oracles.scenario_arrays(run, penetration)
    return oracles.cvar((load - renewable)[:, 0].sum(axis=0), probs, alpha)


def test_alpha_sweep_monotone_committed():
    run = RunConfig(capacity_mode="tracking", penetrations=(0.009,))
    rows = grid_rows(run)
    assert len(rows) == len(run.alphas)
    committed = [r["committed_mw"] for r in rows]
    assert all(b >= a for a, b in zip(committed, committed[1:]))


FEEDER_80 = dict(line_limit=80.0, load_mean_per_bus=(150.0, 75.0, 45.0))
FIFTY_ALPHAS = tuple(float(a) for a in np.linspace(0.5, 0.99, 50))


@pytest.mark.parametrize("market", [{}, FEEDER_80], ids=["bus", "feeder"])
def test_each_hours_commitment_does_not_fall_as_alpha_rises(market):
    # on fixed draws a CVaR is non-decreasing in alpha, and so is each hour's
    # committed total, the CVaR of the total net load on either market; on
    # one bus so is the clearing price, since the built-in fleet (no
    # minimums) prices a larger demand no lower.  A feeder's price can fall
    # (test_feeder_price_can_fall_as_alpha_rises), so only its totals are
    # asserted.  Exact: no tolerance
    pairs = 0
    for seed in (7, 11, 18):
        run = RunConfig(alphas=FIFTY_ALPHAS, penetrations=(0.009, 0.5, 0.9), horizon=4,
                        n_scenarios=200, seed=seed, capacity_mode="tracking", **market)
        points = run_grid(run)
        assert len(points) == 3 * len(FIFTY_ALPHAS)
        for level in range(3):
            sweep = points[level * len(FIFTY_ALPHAS):(level + 1) * len(FIFTY_ALPHAS)]
            assert [p.alpha for p in sweep] == list(FIFTY_ALPHAS)
            totals = np.array([p.committed.sum(axis=1) for p in sweep])  # (alphas, T)
            prices = np.array([p.clearing_prices for p in sweep])
            assert (totals[1:] >= totals[:-1]).all()
            if not market:
                assert (prices[1:] >= prices[:-1]).all()
            pairs += totals[1:].size
    assert pairs == 3 * 3 * 49 * 4


def test_feeder_price_can_fall_as_alpha_rises():
    # the feeder congests where CVaR(total) exceeds CVaR(bus 0) by more than
    # the line limit, and that gap is not monotone in alpha: over four
    # equiprobable draws it is 6.67 MW at alpha 0.25 and 0 at 0.75, so the
    # price is bus 1's ask at the lower alpha and bus 0's at the higher
    x, y = np.array([0.0, 0.0, 50.0, 100.0]), np.array([0.0, 10.0, 10.0, 0.0])
    probs = np.full(4, 0.25)
    grid = RadialGrid(2, 6.0)
    fleet = Fleet((GeneratorSpec("a", 10.0, 0.0, 200.0), GeneratorSpec("b", 20.0, 0.0, 200.0)))
    prices = []
    for alpha in (0.25, 0.75):
        own, joint, tail = cvar_rows(np.vstack([x, x + y, y]), probs, alpha)[1]
        prices.append(dispatch_radial(grid, fleet, [own, tail], [joint, tail]).lmps.max())
    assert prices == [20.0, 10.0]


# each point_row figure's degree in money and in size: a run is homogeneous
# of degree one in both, and a power-of-two factor changes only a float's
# exponent, so it rounds nothing
DEGREES = {"committed_mw": (0, 1), "curtailed_mwh": (0, 1), "price": (1, 0),
           "lambda_w": (1, 0), "H": (1, 1), "R": (1, 1), "R_tilde": (1, 1),
           "deviation_cost": (1, 1), "renewable_revenue": (1, 1)}


def scaled_fleet(path, fleet, money, size):
    """``fleet`` as a fleet file of ``repr`` floats: asks times ``money``, MW
    limits times ``size``, start and no-load costs times both."""
    units = [",".join([g.name] + [repr(v) for v in (
        g.ask_price * money, g.p_min * size, g.p_max * size, g.rp_max * size,
        g.ramp_max * size, g.start_cost_hot * money * size,
        g.start_cost_cold * money * size, g.no_load_cost * money * size)])
        for g in fleet.generators]
    path.write_text("name,ask_price,p_min,p_max,rp_max,ramp_max,hot_start,cold_start,"
                    "no_load_cost\n" + "".join(unit + "\n" for unit in units))
    return str(path)


@pytest.mark.parametrize("relation", ["money", "size"])
def test_point_rows_scale_exactly_by_powers_of_two(relation, monkeypatch, tmp_path):
    # money x 2^k scales the asks, the start and no-load costs and the reserve
    # and ramp rates; size x 2^k scales the load means, every MW limit of the
    # fleet, the line limit and the start and no-load costs.  Every figure
    # must then be exactly 2^(k * degree) times the unscaled one
    rates = settlement.RESERVE_RATE, settlement.RAMP_RATE
    checked = 0
    for means, limit in ((DEFAULT_LOAD_MEAN, None), ((150.0, 75.0, 45.0), 80.0)):
        for seed in (7, 11, 18):
            rows = {}
            for k in (0, -3, 2, 5):
                factor = 2.0 ** k
                money, size = (factor, 1.0) if relation == "money" else (1.0, factor)
                monkeypatch.setattr(settlement, "RESERVE_RATE", rates[0] * money)
                monkeypatch.setattr(settlement, "RAMP_RATE", rates[1] * money)
                run = RunConfig(
                    fleet_source=scaled_fleet(tmp_path / f"{k}.csv", builtin_fleet(),
                                              money, size),
                    alphas=(0.5, 0.9, 0.99), penetrations=(0.009, 0.5, 0.9), horizon=4,
                    n_scenarios=200, seed=seed, capacity_mode="tracking",
                    line_limit=None if limit is None else limit * size,
                    load_mean_per_bus=tuple(m * size for m in means))
                rows[k] = grid_rows(run)
                assert len(rows[k]) == 9
            for k in (-3, 2, 5):
                for got, want in zip(rows[k], rows[0]):
                    for name, (in_money, in_size) in DEGREES.items():
                        scale = 2.0 ** (k * (in_money if relation == "money" else in_size))
                        assert same_bits(np.float64(got[name]),
                                         np.float64(want[name] * scale)), (k, name)
                    checked += 1
    assert checked == 162


FEEDER_MEANS = (150.0, 75.0, 45.0)


@st.composite
def scaling_cases(draw):
    """A market (one bus, or the 80 MW feeder), a fleet of 3-7 units with
    strictly increasing asks, a seed and k.  On one bus a minimum is zero or
    positive; on the feeder each of the first three units has minimum 0 and
    a maximum that covers its bus's tail at the top load draws."""
    feeder = draw(st.booleans())
    n_units = draw(st.integers(3, 7))
    asks = sorted(draw(st.lists(st.floats(1.0, 400.0), min_size=n_units,
                                max_size=n_units, unique=True)))
    top = np.array(FEEDER_MEANS) * (1.0 + scenarios.LOAD_Z_MAX * DEFAULT_LOAD_STD_FRAC)
    tails = np.cumsum(top[::-1])[::-1]
    units = []
    for i, ask in enumerate(asks):
        if feeder and i < len(tails):
            p_min, p_max = 0.0, float(tails[i]) * draw(st.floats(1.0, 2.0))
        else:
            p_max = draw(st.floats(50.0, 500.0))
            p_min = draw(st.just(0.0) | st.floats(0.0, p_max / 2.0))
        costs = draw(st.lists(st.floats(0.0, 1000.0), min_size=3, max_size=3))
        units.append(GeneratorSpec(f"u{i}", ask, p_min, p_max, p_max, p_max, *costs))
    return feeder, Fleet(tuple(units)), draw(st.integers(0, 2**16)), draw(st.integers(-20, 20))


def test_point_rows_scale_exactly_by_powers_of_two_on_drawn_fleets(tmp_path):
    # both relations of the fixed config sets above, on drawn fleets and k:
    # the same points settle, and every figure is exactly 2^(k * degree)
    # times the unscaled one
    rates = settlement.RESERVE_RATE, settlement.RAMP_RATE
    settled = []

    @settings(max_examples=100, deadline=None)
    @given(scaling_cases())
    def check(case):
        feeder, fleet, seed, k = case
        rows = {}
        for relation, money, size in (("none", 1.0, 1.0), ("money", 2.0 ** k, 1.0),
                                      ("size", 1.0, 2.0 ** k)):
            settlement.RESERVE_RATE, settlement.RAMP_RATE = rates[0] * money, rates[1] * money
            try:
                run = RunConfig(
                    fleet_source=scaled_fleet(tmp_path / "fleet.csv", fleet, money, size),
                    alphas=(0.5, 0.9), penetrations=(0.009, 0.5, 0.9), horizon=3,
                    n_scenarios=60, seed=seed, capacity_mode="tracking",
                    line_limit=80.0 * size if feeder else None,
                    load_mean_per_bus=tuple(m * size for m in (
                        FEEDER_MEANS if feeder else DEFAULT_LOAD_MEAN)))
                rows[relation] = grid_rows(run, [])
            finally:
                settlement.RESERVE_RATE, settlement.RAMP_RATE = rates
        settled.append(bool(rows["none"]))
        for relation in ("money", "size"):
            points = [(row["alpha"], row["penetration"]) for row in rows[relation]]
            assert points == [(row["alpha"], row["penetration"]) for row in rows["none"]]
            for got, want in zip(rows[relation], rows["none"]):
                for name, (in_money, in_size) in DEGREES.items():
                    scale = 2.0 ** (k * (in_money if relation == "money" else in_size))
                    assert same_bits(np.float64(got[name]),
                                     np.float64(want[name] * scale)), (relation, name)

    check()
    assert sum(settled) > len(settled) / 2


def test_alpha_sweep_deterministic_load_rows_identical():
    run = RunConfig(capacity_mode="tracking", penetrations=(0.0,),
                    load_std_frac=0.0, alphas=(0.5, 0.9))
    rows = grid_rows(run)
    a, b = rows
    assert all(a[k] == b[k] for k in a if k != "alpha")


def test_alpha_sweep_committed_meets_requirement():
    run = RunConfig(capacity_mode="tracking", penetrations=(0.009,))
    for row in grid_rows(run):
        assert aggregate_cvar(run, 0.009, row["alpha"]) <= row["committed_mw"]


def test_penetration_sweep_committed_meets_requirement():
    run = RunConfig(capacity_mode="buildout", alphas=(0.95,))
    for row in grid_rows(run):
        assert aggregate_cvar(run, row["penetration"], 0.95) <= row["committed_mw"]


def test_multi_hour_horizon_runs():
    run = RunConfig(capacity_mode="tracking", penetrations=(0.009,), horizon=3,
                    alphas=(0.9,))
    point, = run_grid(run)
    assert point.committed.shape == (3, 7)
    assert point.realized.shape == (run.n_scenarios, 3, 7)
    assert point.deviation_cost == point.expected_profit - point.realized_profit
    assert point.h_total >= 0.0 and point.lambda_w >= 0.0


@pytest.mark.parametrize("line_limit,load_mean", [(None, (232.0, 174.0, 174.0)),
                                                   (80.0, (150.0, 75.0, 45.0))])
def test_evaluate_point_builds_envelopes_once(monkeypatch, line_limit, load_mean):
    # the reserve check and the recovery rate share one pair of envelopes
    import gridclear.experiment as experiment
    import gridclear.settlement as settlement
    calls = []
    real = settlement.deviation_envelopes

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(settlement, "deviation_envelopes", counting)
    monkeypatch.setattr(experiment, "deviation_envelopes", counting)
    run = RunConfig(capacity_mode="tracking", penetrations=(0.009,), horizon=3,
                    alphas=(0.9,), n_scenarios=20, line_limit=line_limit,
                    load_mean_per_bus=load_mean)
    run_grid(run)
    assert len(calls) == 1


def test_feeder_builds_bus_prices_only_for_its_commitment(monkeypatch):
    # the balancing bus fixes every bus price, so a grid builds prices where
    # it reads them: the A*L*T commitment rows of every alpha at once, never
    # a re-dispatch block
    from gridclear.congestion import RadialDispatchBatch
    built = []
    real = RadialDispatchBatch.lmps

    def counting(batch):
        built.append(len(batch.power))
        return real.fget(batch)

    monkeypatch.setattr(RadialDispatchBatch, "lmps", property(counting))
    run = RunConfig(alphas=(0.95, 0.5), penetrations=(0.0, 0.4, 0.9), horizon=3,
                    n_scenarios=40, line_limit=80.0, load_mean_per_bus=(150.0, 75.0, 45.0))
    points = run_grid(run)
    assert len(points) == 6
    assert built == [2 * 3 * 3]


@pytest.mark.parametrize("market", [{}, dict(line_limit=80.0,
                                             load_mean_per_bus=(150.0, 75.0, 45.0))],
                         ids=["bus", "feeder"])
def test_alpha_free_work_runs_once_per_grid(market, monkeypatch):
    # the envelopes and the reserve check take every (alpha, level) point in
    # one call, each level's renewables are built once for the clearing and
    # once for the payment, and one kernel call commits all A*L*T rows; only
    # the CVaR runs once per alpha
    import gridclear.experiment as experiment
    from gridclear.scenarios import Scenarios
    calls = {"deviation_envelopes": 0, "reserve_and_ramp_check": 0, "cvar_rows": 0,
             "renewable": 0}
    kernel = "_commit_rows" if not market else "_radial_rows"
    rows = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in ("deviation_envelopes", "reserve_and_ramp_check", "cvar_rows"):
        monkeypatch.setattr(experiment, name, counting(name, getattr(experiment, name)))
    monkeypatch.setattr(Scenarios, "renewable", counting("renewable", Scenarios.renewable))
    real_kernel = getattr(experiment, kernel)

    def recording(*args):
        out = real_kernel(*args)
        rows.append(len(out[1]))
        return out

    monkeypatch.setattr(experiment, kernel, recording)
    run = RunConfig(alphas=(0.5, 0.9, 0.99), penetrations=(0.0, 0.4, 0.9), horizon=3,
                    n_scenarios=40, **market)
    points = run_grid(run)
    n_alphas, n_levels, t_len = 3, 3, 3
    assert len(points) == n_alphas * n_levels
    assert calls == {"deviation_envelopes": 1, "reserve_and_ramp_check": 1,
                     "cvar_rows": n_alphas, "renewable": 2 * n_levels}
    # the commitment, then the re-dispatch of every level in one block
    assert rows == [n_alphas * n_levels * t_len, n_levels * 40 * t_len]


def test_penetration_sweep_zero_point_matches_load_tail():
    run = RunConfig(capacity_mode="buildout", alphas=(0.95,))
    rows = grid_rows(run)
    want = aggregate_cvar(run, 0.0, 0.95)
    assert rows[0]["committed_mw"] == pytest.approx(want, abs=1e-9)


def test_penetration_sweep_no_uncertainty_monotone():
    run = RunConfig(capacity_mode="buildout", alphas=(0.95,), uncertainty_growth=0.0)
    rows = grid_rows(run)
    committed = [r["committed_mw"] for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(committed, committed[1:]))


def test_sweep_rows_are_deterministic():
    run = RunConfig(capacity_mode="buildout", alphas=(0.95,))
    a = grid_rows(run)
    b = grid_rows(run)
    assert a == b


def test_infeasible_point_becomes_diagnostic(tmp_path):
    # a tiny fleet cannot carry the default load; rows are skipped, not fatal
    path = tmp_path / "fleet.csv"
    path.write_text(
        "name,ask_price,p_min,p_max,rp_max,ramp_max,hot_start,cold_start,no_load_cost\n"
        "a,5,0,10,10,10,0,0,0\n")
    run = RunConfig(fleet_source=str(path), capacity_mode="tracking",
                    penetrations=(0.0,), alphas=(0.5, 0.9))
    notes: list[str] = []
    rows = grid_rows(run, diagnostics=notes)
    assert rows == [] and len(notes) == 2
    assert notes[0].startswith("alpha=0.5, penetration=0.0: ")
    assert notes[1].startswith("alpha=0.9, penetration=0.0: ")
    # without a diagnostics list the first infeasible point is raised
    with pytest.raises(InfeasibleDispatchError) as err:
        run_grid(run)
    assert notes[0] == f"alpha=0.5, penetration=0.0: {err.value}"


def test_grid_skips_undrawable_level_and_keeps_the_rest():
    # buildout capacity is 1.1x the mean load, so a penetration of 2 cannot be
    # drawn; the levels on either side keep the rows they have when run alone
    run = RunConfig(capacity_mode="buildout", alphas=(0.95, 0.5),
                    penetrations=(0.0, 2.0, 0.5), n_scenarios=20)
    notes: list[str] = []
    rows = grid_rows(run, diagnostics=notes)
    assert [(r["penetration"], r["alpha"]) for r in rows] == [
        (0.0, 0.95), (0.0, 0.5), (0.5, 0.95), (0.5, 0.5)]
    alone = [row for penetration in (0.0, 0.5)
             for row in grid_rows(dataclasses.replace(run, penetrations=(penetration,)))]
    assert rows == alone
    assert len(notes) == 1 and notes[0].startswith("penetration=2.0: hour 0: ")
    with pytest.raises(ConfigurationError) as err:
        run_grid(run)
    assert notes == [f"penetration=2.0: {err.value}"]


def test_run_grid_draws_the_loads_once(monkeypatch):
    # one generator per grid: the uniforms, and so the loads, are drawn once
    calls = []
    real = scenarios._generator

    def counting(seed):
        calls.append(seed)
        return real(seed)

    monkeypatch.setattr(scenarios, "_generator", counting)
    run = RunConfig(capacity_mode="buildout", alphas=(0.95, 0.5),
                    penetrations=(0.0, 0.3, 2.0, 0.6, 1.0), n_scenarios=20)
    notes: list[str] = []
    assert len(run_grid(run, diagnostics=notes)) == 8 and len(notes) == 1
    assert len(calls) == 1


def test_grid_levels_share_one_read_only_load_array(monkeypatch):
    # every level is cleared against the one load array drawn for the grid;
    # only its renewables are built per level
    import gridclear.experiment as experiment
    seen = []
    real = experiment._evaluate_levels

    def recording(fleet, run, load, probabilities, renewable, penetrations, alphas):
        seen.extend((load, renewable(level)) for level in range(len(penetrations)))
        return real(fleet, run, load, probabilities, renewable, penetrations, alphas)

    monkeypatch.setattr(experiment, "_evaluate_levels", recording)
    run = RunConfig(capacity_mode="buildout", alphas=(0.95,),
                    penetrations=(0.0, 0.5, 1.0), n_scenarios=20)
    run_grid(run)
    assert len(seen) == 3
    (first_load, first_renewable), *rest = seen
    for load, renewable in rest:
        assert np.array_equal(load, first_load)
        assert np.shares_memory(load, first_load)
        assert not np.array_equal(renewable, first_renewable)
    with pytest.raises(ValueError, match="read-only"):
        first_load[0, 0, 0] = 0.0


# ---------------------------------------------------------------------------
# CSV emission


def test_emit_csv_empty_rows_header_only(tmp_path):
    path = emit_csv([], tmp_path / "x.csv", ("a", "b"))
    assert path.read_text() == "a,b\n"


def test_emit_csv_one_row(tmp_path):
    path = emit_csv([{"a": 1.0, "b": 2}], tmp_path / "x.csv", ("a", "b"))
    assert path.read_text() == "a,b\n1.000000,2\n"


def test_emit_csv_bit_identical(tmp_path):
    rows = [{"a": 0.1234567, "b": 7}, {"a": 2.5, "b": 8}]
    p1 = emit_csv(rows, tmp_path / "x1.csv", ("a", "b"))
    p2 = emit_csv(rows, tmp_path / "x2.csv", ("a", "b"))
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_csv_schema_mismatch(tmp_path):
    with pytest.raises(ConfigurationError):
        emit_csv([{"a": 1.0}], tmp_path / "x.csv", ("a", "b"))


# ---------------------------------------------------------------------------
# CLI


def test_cli_sweep_alpha_writes_csv(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["sweep-alpha", "--alpha", "0.5,0.9",
                                  "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "alpha_sweep.csv").read_text().splitlines()
    assert lines[0] == ",".join(ALPHA_SWEEP_COLUMNS)
    assert len(lines) == 3


def test_cli_sweep_penetration_writes_csv(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["sweep-penetration", "--penetration", "0.0,0.5",
                                  "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "penetration_sweep.csv").read_text().splitlines()
    assert lines[0] == ",".join(PENETRATION_SWEEP_COLUMNS)
    assert len(lines) == 3


def test_cli_end_to_end_determinism(tmp_path):
    runner = CliRunner()
    args = ["sweep-penetration", "--seed", "9", "--scenarios", "100"]
    r1 = runner.invoke(main, args + ["--out", str(tmp_path / "a")])
    r2 = runner.invoke(main, args + ["--out", str(tmp_path / "b")])
    assert r1.exit_code == 0 and r2.exit_code == 0
    a = (tmp_path / "a" / "penetration_sweep.csv").read_bytes()
    b = (tmp_path / "b" / "penetration_sweep.csv").read_bytes()
    assert a == b


def test_cli_empty_alpha_grid_is_usage_error(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["sweep-alpha", "--alpha", "", "--out", str(tmp_path)])
    assert result.exit_code == 2


def test_cli_bad_fleet_is_config_error(tmp_path):
    fleet = tmp_path / "fleet.csv"
    fleet.write_text("wrong,header\n")
    runner = CliRunner()
    result = runner.invoke(main, ["sweep-alpha", "--fleet", str(fleet),
                                  "--out", str(tmp_path)])
    assert result.exit_code == 2


def test_cli_missing_fleet_is_config_error(tmp_path):
    missing = tmp_path / "missing.csv"
    result = CliRunner().invoke(main, ["settle", "--fleet", str(missing),
                                       "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert result.output.startswith(f"configuration error: {missing}: cannot read")


def test_cli_negative_seed_is_config_error(tmp_path):
    result = CliRunner().invoke(main, ["settle", "--seed", "-1", "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert result.output == "configuration error: seed -1 must be non-negative\n"


def test_cli_invalid_config_creates_no_out_dir(tmp_path):
    out = tmp_path / "D"
    result = CliRunner().invoke(main, ["settle", "--seed", "-1", "--out", str(out)])
    assert result.exit_code == 2
    assert not out.exists()


@pytest.mark.parametrize("argv,code", [
    (["--line-limit", "80", "--load-mean", ",".join(["10"] * 8)], 2),
    (["--fleet", "missing.csv"], 2),
    (["--load-mean", "400,300,300"], 3),
], ids=["feeder-larger-than-fleet", "missing-fleet", "infeasible"])
def test_cli_failed_run_creates_no_out_dir(tmp_path, argv, code):
    out = tmp_path / "D"
    argv = [str(tmp_path / a) if a == "missing.csv" else a for a in argv]
    result = CliRunner().invoke(main, ["settle"] + argv + ["--out", str(out)])
    assert result.exit_code == code
    assert not out.exists()


def test_cli_out_naming_a_file_is_config_error(tmp_path):
    out = tmp_path / "F"
    out.write_text("")
    result = CliRunner().invoke(main, ["settle", "--out", str(out)])
    assert result.exit_code == 2
    assert result.output.startswith("configuration error: ")
    assert str(out) in result.output and "Traceback" not in result.output


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-a-file"])
def test_cli_out_that_cannot_be_created_exits_before_the_run(tmp_path, below):
    # penetration 2.0 cannot be drawn, so a sweep that ran would print a skip
    f = tmp_path / "F"
    f.write_text("keep")
    out = f / below if below else f
    result = CliRunner().invoke(main, ["sweep-penetration", "--penetration", "0.5,2.0",
                                       "--out", str(out)])
    assert result.exit_code == 2
    assert result.output == (f"configuration error: --out {out}: {f} is not a writable "
                             "directory\n")
    assert "skipped:" not in result.output and "wrote" not in result.output
    assert f.read_text() == "keep"


@pytest.mark.parametrize("argv,message", [
    (["sweep-alpha", "--alpha", "0.5,abc"], "alpha grid entry 'abc' is not a number"),
    (["settle", "--load-mean", "100,abc"], "load mean grid entry 'abc' is not a number"),
])
def test_cli_non_numeric_grid_entry_is_usage_error(argv, message, tmp_path):
    result = CliRunner().invoke(main, argv + ["--out", str(tmp_path)])
    assert result.exit_code == 2
    assert f"Error: {message}" in result.output


def test_run_config_bus_count_follows_the_loads():
    loads = (100.0, 80.0)
    assert RunConfig(load_mean_per_bus=loads).n_buses == 2
    assert dataclasses.replace(RunConfig(), load_mean_per_bus=loads).n_buses == 2
    assert RunConfig().n_buses == 3


@pytest.mark.parametrize("field", ["horizon", "n_scenarios"])
@pytest.mark.parametrize("value", [0, -1])
def test_run_config_rejects_empty_dimensions(field, value):
    with pytest.raises(ConfigurationError, match=f"^{field} {value} must be at least 1$"):
        RunConfig(**{field: value})


@pytest.mark.parametrize("field", ["horizon", "n_scenarios", "seed"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 1.5, 2.0, True,
                                   "3"])
def test_run_config_rejects_non_integer_dimensions(field, value):
    # numpy would otherwise fail later with a bare TypeError or ValueError
    with pytest.raises(ConfigurationError, match=f"^{field} {re.escape(repr(value))} "
                                                 f"must be an integer$"):
        RunConfig(**{field: value})


def test_run_config_numpy_integer_below_minimum_keeps_its_message():
    with pytest.raises(ConfigurationError, match="^horizon 0 must be at least 1$"):
        RunConfig(horizon=np.int64(0))


def test_run_config_accepts_numpy_integers():
    numpy_ints = RunConfig(horizon=np.int64(2), n_scenarios=np.int32(20), seed=np.uint8(3),
                           alphas=(0.9,), penetrations=(0.1, 0.5))
    python_ints = dataclasses.replace(numpy_ints, horizon=2, n_scenarios=20, seed=3)
    got, want = run_grid(numpy_ints), run_grid(python_ints)
    assert [point_row(numpy_ints, p) for p in got] == [point_row(python_ints, p)
                                                       for p in want]


@pytest.mark.parametrize("flag,field", [("--horizon", "horizon"),
                                        ("--scenarios", "n_scenarios")])
def test_cli_negative_dimension_is_config_error(flag, field, tmp_path):
    result = CliRunner().invoke(main, ["settle", flag, "-1", "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert result.output == f"configuration error: {field} -1 must be at least 1\n"


@pytest.mark.parametrize("command", ["dispatch", "settle", "sweep-penetration"])
def test_cli_feeder_larger_than_fleet_is_config_error(tmp_path, command):
    result = CliRunner().invoke(main, [command, "--line-limit", "80",
                                       "--load-mean", ",".join(["10"] * 8),
                                       "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert result.output == ("configuration error: a feeder of 8 buses needs 8 units, "
                             "but the fleet has 7\n")


def test_cli_infeasible_single_run_exits_3(tmp_path):
    fleet = tmp_path / "fleet.csv"
    fleet.write_text(
        "name,ask_price,p_min,p_max,rp_max,ramp_max,hot_start,cold_start,no_load_cost\n"
        "a,5,0,10,10,10,0,0,0\n")
    runner = CliRunner()
    result = runner.invoke(main, ["settle", "--fleet", str(fleet),
                                  "--out", str(tmp_path)])
    assert result.exit_code == 3


# every hour's CVaR at penetration 3 is <= 0, so nothing is committed, yet the
# re-dispatch ramps units and H > 0: cost recovery has no energy to carry H
_NOTHING_COMMITTED = ["--alpha", "0.5", "--penetration", "3", "--horizon", "2"]
_UNRECOVERABLE = "cost recovery requested but no committed energy to carry H = 3050"


def _settlement_row(out):
    header, row = (out / "settlement.csv").read_text().splitlines()
    return dict(zip(header.split(","), row.split(",")))


@pytest.mark.parametrize("command", ["dispatch", "settle"])
def test_cli_unrecoverable_cost_single_run_exits_3(tmp_path, command):
    result = CliRunner().invoke(main, [command, *_NOTHING_COMMITTED, "--out", str(tmp_path)])
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.output == f"infeasible dispatch: {_UNRECOVERABLE}\n"
    assert list(tmp_path.iterdir()) == []


def test_cli_unrecoverable_cost_sweep_skips_the_point(tmp_path):
    result = CliRunner().invoke(main, ["sweep-alpha", "--alpha", "0.5,0.9", "--penetration",
                                       "3", "--horizon", "2", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert result.output.startswith(f"skipped: alpha=0.5, penetration=3.0: {_UNRECOVERABLE}\n")
    lines = (tmp_path / "alpha_sweep.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines] == ["alpha", "0.900000"]


def test_cli_nothing_committed_settles_without_cost_recovery(tmp_path):
    result = CliRunner().invoke(main, ["settle", *_NOTHING_COMMITTED, "--cost-recovery", "0",
                                       "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    row = _settlement_row(tmp_path)
    assert row["CR"] == "0" and row["lambda_w"] == "0.000000"
    assert float(row["H"]) > 0.0


def test_cli_cost_recovery_changes_only_its_own_columns(tmp_path):
    # neither profit includes the uplift that recovers H from consumers, so
    # only the CR and lambda_w columns can differ
    tables = []
    for cr in ("0", "1"):
        out = tmp_path / cr
        result = CliRunner().invoke(main, ["settle", "--cost-recovery", cr, "--out", str(out)])
        assert result.exit_code == 0, result.output
        tables.append(_settlement_row(out))
    without, with_ = tables
    assert [c for c in without if without[c] != with_[c]] == ["CR", "lambda_w"]
    assert without["lambda_w"] == "0.000000" and float(with_["lambda_w"]) > 0.0
    assert (without["R"], without["R_tilde"]) == ("11116.600000", "11098.992368")


def test_cli_dispatch_uncongested(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["dispatch", "--alpha", "0.9",
                                  "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "dispatch.csv").read_text().splitlines()
    assert lines[0] == "generator,committed_mw,ask_price,lmp"
    assert len(lines) == 8  # 7 units


def test_cli_dispatch_radial(tmp_path):
    # modest loads keep the feeder inside each unit's reach
    runner = CliRunner()
    result = runner.invoke(main, [
        "dispatch", "--alpha", "0.9", "--line-limit", "80",
        "--load-mean", "150,80,50", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "dispatch.csv").read_text().splitlines()
    assert len(lines) == 4  # 3 feeder buses


def test_cli_dispatch_radial_default_load_infeasible(tmp_path):
    # the default aggregate load exceeds what bus 0's unit can serve alone
    runner = CliRunner()
    result = runner.invoke(main, [
        "dispatch", "--alpha", "0.9", "--line-limit", "80", "--out", str(tmp_path)])
    assert result.exit_code == 3


def test_cli_settle_radial_infeasible_scenario_exits_3(tmp_path):
    # the commitment fits, but eight realized scenario-hours need more than
    # bus 1's 155 MW unit; the first in (scenario, hour) order is reported
    runner = CliRunner()
    result = runner.invoke(main, [
        "settle", "--alpha", "0.5", "--line-limit", "80", "--load-mean", "150,80,65",
        "--horizon", "4", "--scenarios", "50", "--out", str(tmp_path)])
    assert result.exit_code == 3
    assert result.output == ("infeasible dispatch: bus 1: tail requirement 156.194 MW "
                             "exceeds generator capacity 155\n")
    assert not (tmp_path / "settlement.csv").exists()


def test_cli_settle_writes_settlement(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["settle", "--alpha", "0.9", "--cost-recovery", "1",
                                  "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "settlement.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["run_id", "alpha", "penetration", "CR"]
    assert len(lines) == 2


def test_cli_settle_radial(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["settle", "--alpha", "0.9", "--line-limit", "80",
                                  "--load-mean", "150,80,50", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "settlement.csv").read_text().splitlines()
    assert len(lines) == 2


# run_grid on this grid peaked at 27.9 MB of traced memory once the realized
# re-dispatch ran in row blocks and the reserve envelope was taken without a
# (L, K, T, n) deviation array, against 61.1 MB when the re-dispatch was one
# kernel call over all 264,000 rows; the bound leaves about 30% of margin
GRID_PEAK_BOUND_MB = 36.0


def test_default_size_feeder_grid_peak_memory_is_bounded():
    run = RunConfig(alphas=(0.95,), horizon=24, n_scenarios=1000, line_limit=80.0,
                    load_mean_per_bus=(150.0, 75.0, 45.0))
    assert len(run.penetrations) == 11
    tracemalloc.start()
    try:
        points = run_grid(run, [])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(points) == 11
    assert peak / 1e6 < GRID_PEAK_BOUND_MB


# ---------------------------------------------------------------------------
# the load draw overlapped with the renewables' row blocks


# the benchmark workloads' grids, and one with an undrawable and a
# zero-penetration level; each has enough Beta elements for several blocks
OVERLAP_GRIDS = {
    "settle-bus": RunConfig(alphas=(0.9,), penetrations=(0.009,), horizon=24,
                            n_scenarios=1000, capacity_mode="tracking"),
    "settle-feeder": RunConfig(alphas=(0.9,), penetrations=(0.009,), horizon=24,
                               n_scenarios=1000, capacity_mode="tracking", line_limit=80.0,
                               load_mean_per_bus=(150.0, 75.0, 45.0)),
    "wide": RunConfig(alphas=(0.95,), horizon=12, n_scenarios=50,
                      load_mean_per_bus=(25.0,) * 24),
    "skipping": RunConfig(alphas=(0.95, 0.5), penetrations=(0.0, 2.0, 0.5, 1.0),
                          horizon=24, n_scenarios=200),
}


def grid_outcome(run, monkeypatch):
    """``run_grid(run, notes)``'s points and notes, and the load, renewables
    and probabilities it clears each drawable level against."""
    seen = []
    real = experiment._evaluate_levels

    def recording(fleet, run, load, probabilities, renewable, penetrations, alphas):
        seen.extend((p, load, renewable(level), probabilities)
                    for level, p in enumerate(penetrations))
        return real(fleet, run, load, probabilities, renewable, penetrations, alphas)

    monkeypatch.setattr(experiment, "_evaluate_levels", recording)
    notes = []
    points = run_grid(run, notes)
    monkeypatch.setattr(experiment, "_evaluate_levels", real)
    return points, notes, seen


@pytest.mark.parametrize("name", list(OVERLAP_GRIDS))
def test_run_grid_bits_do_not_depend_on_the_worker_count(name, monkeypatch, thread_starts):
    run = OVERLAP_GRIDS[name]
    outcomes = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(scenarios, "_workers", lambda: workers)
        outcomes[workers] = grid_outcome(run, monkeypatch)
    assert thread_starts() >= 2  # one for each run on more than one worker
    points, notes, seen = outcomes[1]
    assert points and len(seen) == len(run.penetrations) - len(notes)
    for workers in (2, 3):
        other_points, other_notes, other_seen = outcomes[workers]
        assert other_notes == notes
        assert len(other_points) == len(points)
        for got, want in zip(other_points, points):
            assert point_row(run, got) == point_row(run, want)
            for figure in SETTLED:
                assert getattr(got, figure) == getattr(want, figure), figure
            for field in ("committed", "realized", "lmps", "clearing_prices"):
                assert same_bits(getattr(got, field), getattr(want, field)), field
        for got, want in zip(other_seen, seen):
            assert got[0] == want[0]
            assert all(same_bits(g, w) for g, w in zip(got[1:], want[1:]))
    # and the draws are those of each level drawn on its own
    for penetration, load, renewable, probabilities in seen:
        want = oracles.scenario_arrays(run, penetration)
        assert all(same_bits(g, w) for g, w in zip((load, renewable, probabilities), want))
    if name == "skipping":
        assert [note.split(":")[0] for note in notes] == ["penetration=2.0"]
        assert not seen[0][2].any()  # penetration 0 draws no renewable output


# a settle run whose drawn loads are wide enough for a top uniform to give inf
WIDE_SETTLE = dataclasses.replace(OVERLAP_GRIDS["settle-bus"], **WIDE_LOADS)


@pytest.fixture
def threads_left(monkeypatch):
    """``threads_left()``: the threads alive beyond those alive at the
    fixture's start; the test fails if a thread ends by an exception."""
    unhandled = []
    monkeypatch.setattr(threading, "excepthook", unhandled.append)
    before = threading.active_count()
    yield lambda: threading.active_count() - before
    assert unhandled == []


def test_a_failed_load_draw_is_raised_after_the_renewable_threads_join(
        force_load_uniforms, monkeypatch, thread_starts, threads_left, tmp_path):
    # the one thread has seven of the eight Beta blocks, far more work than
    # the load draw, so it would still run if the failed draw did not join it
    monkeypatch.setattr(scenarios, "_workers", lambda: 2)
    force_load_uniforms({(4, 1, 1): TOP})
    with pytest.raises(ConfigurationError) as alone:
        oracles.loads(scenario_config(WIDE_SETTLE))
    assert str(alone.value).startswith("the load draw of bus 1, hour 1, scenario 4 ")
    with pytest.raises(ConfigurationError) as overlapped:
        run_grid(WIDE_SETTLE)
    assert threads_left() == 0
    assert str(overlapped.value) == str(alone.value)
    monkeypatch.setattr(cli, "RunConfig", functools.partial(RunConfig, **WIDE_LOADS))
    result = CliRunner().invoke(main, ["settle", "--horizon", "24", "--scenarios", "1000",
                                       "--out", str(tmp_path / "out")])
    assert threads_left() == 0
    assert result.exit_code == 2
    assert result.output == f"configuration error: {alone.value}\n"
    assert thread_starts() == 2  # one for each of the two runs


def test_a_failed_renewable_block_is_raised_in_the_caller(monkeypatch, thread_starts,
                                                          threads_left):
    monkeypatch.setattr(scenarios, "_workers", lambda: 2)
    real = scenarios.special.betaincinv

    def failing_on_threads(a, b, u, out):
        if threading.current_thread() is not threading.main_thread():
            raise LookupError("a renewable block failed")
        return real(a, b, u, out=out)

    monkeypatch.setattr(scenarios.special, "betaincinv", failing_on_threads)
    with pytest.raises(LookupError, match="a renewable block failed"):
        run_grid(OVERLAP_GRIDS["settle-bus"])
    assert threads_left() == 0
    assert thread_starts() == 1


def test_every_cross_module_call_of_a_run_comes_from_the_callers_thread(monkeypatch,
                                                                       thread_starts):
    # perfbench's tracer wraps each function a gridclear module binds from
    # another one, and keeps one span stack that is not thread-safe
    monkeypatch.setattr(scenarios, "_workers", lambda: 2)
    calls = []

    def recorded(function):
        @functools.wraps(function)
        def call(*args, **kwargs):
            calls.append((function.__qualname__, threading.get_ident()))
            return function(*args, **kwargs)
        return call

    for module_name, module in list(sys.modules.items()):
        if module_name == "gridclear" or module_name.startswith("gridclear."):
            for attr, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and obj.__module__ != module_name
                        and obj.__module__.startswith("gridclear.")):
                    monkeypatch.setattr(module, attr, recorded(obj))
    for name in ("settle-bus", "settle-feeder"):
        run_grid(OVERLAP_GRIDS[name])
    assert thread_starts() == 2
    assert {"draw_and_build", "_commit_rows", "_radial_rows"} <= {name for name, _ in calls}
    assert {ident for _, ident in calls} == {threading.get_ident()}
