"""Every constructor the batched paths trust, and every settlement function, rejects
NaN and infinities by name."""

import re

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from gridclear import (ConfigurationError, Fleet, FleetParseError, GeneratorSpec,
                       InfeasibleDispatchError, RadialGrid, RunConfig, ScenarioConfig,
                       curtail_and_pay_renewables, deviation_envelopes,
                       dispatch_radial_batch, expected_profit, fleet_from_csv,
                       realized_profit, dispatch_radial, reserve_and_ramp_check, run_grid)
from gridclear.cli import main

from test_scenarios import fresh_python
from test_settlement import recovery_rate

NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])
SPEC_FIELDS = ("ask_price", "p_min", "p_max", "rp_max", "ramp_max", "start_cost_hot",
               "start_cost_cold", "no_load_cost")


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SPEC_FIELDS), NON_FINITE,
       st.floats(0.0, 50.0), st.floats(0.0, 100.0))
def test_generator_spec_rejects_non_finite(name, bad, p_min, width):
    spec = dict(name="g", ask_price=10.0, p_min=p_min, p_max=p_min + width,
                rp_max=width, ramp_max=width)
    spec[name] = bad
    with pytest.raises(ValueError, match=f"^g: {name} must be finite, got {bad}$"):
        GeneratorSpec(**spec)


def test_fleet_csv_names_the_non_finite_field(tmp_path):
    path = tmp_path / "fleet.csv"
    path.write_text(
        "name,ask_price,p_min,p_max,rp_max,ramp_max,hot_start,cold_start,no_load_cost\n"
        "a,nan,0,100,100,100,0,0,0\n")
    with pytest.raises(FleetParseError) as err:
        fleet_from_csv(path)
    assert str(err.value) == f"{path}:2: a: ask_price must be finite, got nan"


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), NON_FINITE)
def test_radial_grid_rejects_non_finite_line_limit(n_buses, bad):
    with pytest.raises(ValueError, match=f"line_limit must be finite, got {bad}"):
        RadialGrid(n_buses, bad)


@pytest.mark.parametrize("bad", [True, False, 2.0, np.float64(3.0), 1.5, "3", None, np.nan])
def test_radial_grid_rejects_non_integer_bus_count(bad):
    with pytest.raises(ValueError, match=f"^n_buses {re.escape(repr(bad))} must be an integer$"):
        RadialGrid(bad, 80.0)


@pytest.mark.parametrize("n_buses", [1, 3, np.int64(2), np.int32(4)])
def test_radial_grid_accepts_python_and_numpy_integers(n_buses):
    assert RadialGrid(n_buses, 80.0).n_buses == n_buses


def _scenario_fields(n_buses, horizon):
    return dict(load_mean=np.full((n_buses, horizon), 100.0),
                load_std=np.full((n_buses, horizon), 8.0))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4),
       st.sampled_from(["load_mean", "load_std"]),
       NON_FINITE, st.data())
def test_scenario_config_rejects_non_finite(n_buses, horizon, name, bad, data):
    fields = _scenario_fields(n_buses, horizon)
    value = fields[name]
    if isinstance(value, np.ndarray):
        index = tuple(data.draw(st.integers(0, d - 1)) for d in value.shape)
        value[index] = bad
    else:
        fields[name] = bad
    with pytest.raises(ConfigurationError, match=f"^{name} must be finite$"):
        ScenarioConfig(n_buses=n_buses, horizon=horizon, n_scenarios=4, seed=0, **fields)


@pytest.mark.parametrize("name", ["n_buses", "horizon", "n_scenarios", "seed"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1.5, np.float64(2.0), True])
def test_scenario_config_rejects_non_integer_counts(name, bad):
    fields = dict(n_buses=2, horizon=2, n_scenarios=4, seed=0, **_scenario_fields(2, 2))
    fields[name] = bad
    with pytest.raises(ConfigurationError,
                       match=f"^{name} {re.escape(repr(bad))} must be an integer$"):
        ScenarioConfig(**fields)


@pytest.mark.parametrize("name", ["n_buses", "horizon", "n_scenarios"])
@pytest.mark.parametrize("bad", [0, -2, np.int64(0)])
def test_scenario_config_names_a_dimension_below_one(name, bad):
    fields = dict(n_buses=2, horizon=2, n_scenarios=4, seed=0, **_scenario_fields(2, 2))
    fields[name] = bad
    with pytest.raises(ConfigurationError, match=f"^{name} {bad} must be at least 1$"):
        ScenarioConfig(**fields)


def test_scenario_config_rejects_negative_seed():
    # numpy's own error for it would be a bare ValueError
    with pytest.raises(ConfigurationError, match="^seed -3 must be non-negative$"):
        ScenarioConfig(n_buses=2, horizon=2, n_scenarios=4, seed=-3, **_scenario_fields(2, 2))


def _feeder():
    fleet = Fleet(tuple(GeneratorSpec(f"b{i}", ask, 0.0, cap)
                        for i, (ask, cap) in enumerate([(10.0, 400.0), (20.0, 300.0),
                                                        (30.0, 200.0)])))
    return RadialGrid(3, 50.0), fleet


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind,which", [("local", 0), ("tail", 1)])
def test_feeder_kernel_rejects_non_finite_requirement(bad, kind, which):
    grid, fleet = _feeder()
    rows = [np.array([[60.0, 40.0, 30.0]] * 3), np.array([[130.0, 70.0, 30.0]] * 3)]
    rows[which][1, 1] = bad
    with pytest.raises(InfeasibleDispatchError,
                       match=f"^bus 1: {kind} requirement {bad} MW must be finite$"):
        dispatch_radial_batch(grid, fleet, *rows)
    # the non-finite row is the first to fail only when no earlier row does
    rows[1][0, 0] = 500.0
    with pytest.raises(InfeasibleDispatchError,
                       match="^bus 0: tail requirement 500 MW exceeds generator capacity"):
        dispatch_radial_batch(grid, fleet, *rows)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["loads", "renewables"])
def test_deterministic_dispatch_rejects_non_finite_input(bad, field):
    # a deterministic feeder dispatch is the kernel on one net-load row
    grid, fleet = _feeder()
    inputs = dict(loads=np.array([60.0, 40.0, 30.0]), renewables=np.zeros(3))
    inputs[field][2] = bad
    net = inputs["loads"] - inputs["renewables"]
    with pytest.raises(InfeasibleDispatchError, match="requirement .* MW must be finite$"):
        dispatch_radial(grid, fleet, net, np.cumsum(net[::-1])[::-1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -5.0])
def test_run_config_rejects_bad_line_limit(bad):
    with pytest.raises(ConfigurationError, match="line_limit must be positive and finite"):
        RunConfig(line_limit=bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_run_config_rejects_non_finite_penetration(bad):
    with pytest.raises(ConfigurationError,
                       match=f"^penetration {bad} must be non-negative and finite$"):
        RunConfig(penetrations=(0.1, bad))


@pytest.mark.parametrize("limit", ["nan", "-5"])
def test_cli_nan_line_limit_is_config_error(tmp_path, limit):
    result = CliRunner().invoke(main, ["dispatch", "--line-limit", limit,
                                       "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert "line_limit must be positive and finite" in result.output


@pytest.mark.parametrize("argv,bad", [
    (["sweep-penetration", "--penetration", "nan,0.1"], "nan"),
    (["settle", "--penetration", "inf"], "inf"),
    (["settle", "--penetration", "-inf"], "-inf"),
])
def test_cli_non_finite_penetration_is_config_error(tmp_path, argv, bad):
    result = CliRunner().invoke(main, argv + ["--out", str(tmp_path)])
    assert result.exit_code == 2
    assert result.output == (f"configuration error: penetration {bad} must be "
                             f"non-negative and finite\n")


@pytest.mark.parametrize("field,bad", [
    ("load_mean_per_bus", (100.0, -5.0, 10.0)), ("load_mean_per_bus", (100.0, np.nan, 10.0)),
    ("load_std_frac", -0.1), ("load_std_frac", np.inf),
    ("uncertainty_growth", -0.1), ("uncertainty_growth", np.nan),
])
def test_run_config_rejects_what_every_level_would_reject(field, bad):
    with pytest.raises(ConfigurationError, match="must be non-negative and finite$"):
        RunConfig(**{field: bad})


def test_run_config_rejects_no_buses():
    with pytest.raises(ConfigurationError, match="^n_buses 0 must be at least 1$"):
        RunConfig(load_mean_per_bus=())


@pytest.mark.parametrize("command", ["sweep-alpha", "sweep-penetration", "dispatch", "settle"])
@pytest.mark.parametrize("bad", ["-5", "nan"])
def test_cli_bad_load_mean_is_config_error(tmp_path, command, bad):
    # one bad bus load is fatal to the run, not a skip per penetration level
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [command, "--load-mean", f"{bad},10,10",
                                       "--out", str(out)])
    assert result.exit_code == 2
    assert result.output == (f"configuration error: load mean {float(bad)} must be "
                             "non-negative and finite\n")
    assert not out.exists()


def test_run_config_rejects_load_means_whose_total_overflows():
    with pytest.raises(ConfigurationError,
                       match=r"^load means 1e\+308, 1e\+308 overflow their bus total$"):
        RunConfig(load_mean_per_bus=(1e308, 1e308))
    # finite totals whose top draws (mean plus LOAD_Z_MAX stds) or renewable
    # capacities (1.1 means, or penetration * mean / 0.85 when tracking) do not
    with pytest.raises(ConfigurationError,
                       match=r"^load means 8e\+307, 8e\+307 overflow their top draws$"):
        RunConfig(load_mean_per_bus=(8e307, 8e307))
    with pytest.raises(ConfigurationError, match=r"^load means 8.5e\+307, 8.5e\+307 overflow "
                                                 r"their renewable capacity at penetration 1$"):
        RunConfig(load_mean_per_bus=(8.5e307, 8.5e307), load_std_frac=0.0)
    with pytest.raises(ConfigurationError, match=r"overflow their renewable capacity at "
                                                 r"penetration 1e\+307$"):
        RunConfig(capacity_mode="tracking", penetrations=(0.5, 1e307))
    # finite totals of the means, their top draws and their capacities pass
    RunConfig(load_mean_per_bus=(5e307, 5e307))
    RunConfig(capacity_mode="tracking", penetrations=(0.5, 1e300))


@pytest.mark.parametrize("command", ["sweep-alpha", "sweep-penetration", "dispatch", "settle"])
def test_cli_load_mean_whose_total_overflows_is_config_error(tmp_path, command):
    # the load is named before any sum over its buses warns or turns to inf
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [command, "--load-mean", "1e308,1e308",
                                       "--scenarios", "5", "--out", str(out)])
    assert result.exit_code == 2
    assert result.output == ("configuration error: load means 1e+308, 1e+308 overflow "
                             "their bus total\n")
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["sweep-alpha", "--load-mean", "1.7e308"], "load means 1.7e+308 overflow their top draws"),
    (["sweep-penetration", "--load-mean", "1.7e308"],
     "load means 1.7e+308 overflow their top draws"),
    (["sweep-alpha", "--penetration", "1e307"],
     "load means 232, 174, 174 overflow their renewable capacity at penetration 1e+307"),
], ids=["sweep-alpha-load", "sweep-penetration-load", "sweep-alpha-penetration"])
def test_cli_load_whose_derived_totals_overflow_is_config_error(tmp_path, argv, message):
    # the draws and the capacities are bounded before numpy computes either
    out = tmp_path / "out"
    result = CliRunner().invoke(main, argv + ["--scenarios", "5", "--out", str(out)])
    assert result.exit_code == 2
    assert result.output == f"configuration error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("line_limit,load_mean", [("unlimited", "1e306"),
                                                  ("80", "1e306,1e306,1e306")])
def test_cli_huge_finite_load_fails_its_points_without_warnings(tmp_path, line_limit,
                                                                load_mean):
    # a failed point's rows hold the huge demand; they are settled as zeros,
    # so no overflow warning (an error under pytest) reaches the output
    argv = ["--load-mean", load_mean, "--line-limit", line_limit, "--scenarios", "5",
            "--out", str(tmp_path)]
    result = CliRunner().invoke(main, ["settle"] + argv)
    assert result.exit_code == 3, result.output
    assert re.fullmatch(r"infeasible dispatch: (demand|bus 0: tail requirement) "
                        r"\S+e\+306 MW [^\n]*\n", result.output)
    result = CliRunner().invoke(main, ["sweep-penetration"] + argv)
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert lines[-1].startswith("wrote ")
    assert lines[:-1] and all(line.startswith("skipped: alpha=0.95, penetration=")
                              for line in lines[:-1])


OVERFLOW = ": the point's figures overflow the float range"


def test_cli_overflowing_payment_skips_its_point(tmp_path):
    # the renewable payment at full penetration overflows; the other levels
    # fail their re-dispatch first
    result = CliRunner().invoke(main, ["sweep-penetration", "--load-mean", "5e307,5e307",
                                       "--scenarios", "5", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert lines[-2] == ("skipped: alpha=0.95, penetration=1.0: renewable_revenue is inf"
                         + OVERFLOW)
    assert lines[-1].startswith("wrote ") and lines[-1].endswith("(0 rows)")
    assert (tmp_path / "penetration_sweep.csv").read_text().count("\n") == 1


def test_cli_penetration_whose_target_overflows_skips_its_level(tmp_path):
    # in buildout mode the capacity does not grow with the penetration, so
    # RunConfig's overflow check never sees penetration x load; the level's
    # mean output is inf, which fails its share check without a warning
    argv = ["sweep-penetration", "--load-mean", "1e6,198.7", "--penetration", "1e308,0.0",
            "--out", str(tmp_path)]
    skipped = ("skipped: penetration=1e+308: hour 0: required system-wide mean share inf "
               "of capacity exceeds 1; infeasible Beta mean on [0, w]\n"
               "skipped: alpha=0.95, penetration=0.0: demand 1.1189e+06 MW outside the "
               "servable range [0, 960]\n")
    result = CliRunner().invoke(main, argv)
    assert (result.exit_code, result.stderr) == (0, skipped)
    fresh = fresh_python("import sys\nfrom gridclear.cli import main\nmain(sys.argv[1:])\n",
                         *argv)
    assert fresh.stderr == skipped


def test_cli_feeder_whose_requirement_plus_limit_overflows_skips_its_point(tmp_path):
    # the bus's CVaR plus the line limit is inf, which the feeder kernel
    # compares without a warning; the point fails on the unit's capacity
    result = CliRunner().invoke(main, ["sweep-alpha", "--load-mean", "1e308", "--scenarios", "1",
                                       "--alpha", "0.5", "--penetration", "0.0",
                                       "--line-limit", "1e308", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert result.stderr == ("skipped: alpha=0.5, penetration=0.0: bus 0: tail requirement "
                             "1.01913e+308 MW exceeds generator capacity 400\n")
    # a served row: the overflowing sums clear as the exact ones would
    grid = RadialGrid(2, 1e308)
    fleet = Fleet((GeneratorSpec("a", 10.0, 0.0, 1e308), GeneratorSpec("b", 20.0, 0.0, 5e307)))
    d = dispatch_radial_batch(grid, fleet, [[1e308, -1e308], [1e308, 5.0]],
                              [[1e308, -1e308], [1e308, 5.0]])
    assert d.power.tolist() == [[1e308, 0.0], [1e308, 0.0]]


def test_cli_fleet_whose_capacities_overflow_their_total_is_config_error(tmp_path):
    # each capacity is finite, their sum is not
    path = tmp_path / "fleet.csv"
    path.write_text("name,ask_price,p_min,p_max,rp_max,ramp_max,hot_start,cold_start,"
                    "no_load_cost\nu0,1.0,0,1e308,1e308,1e308,0,0,0\n"
                    "u1,2.0,0,1e308,1e308,1e308,0,0,0\n")
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["sweep-alpha", "--load-mean", "0.0", "--scenarios", "1",
                                       "--alpha", "0.5", "--penetration", "0.0",
                                       "--fleet", str(path), "--out", str(out)])
    assert result.exit_code == 2
    assert result.output == (f"configuration error: {path}: the units' capacities "
                             "overflow their total\n")
    assert not out.exists()


@pytest.mark.parametrize("units,message", [
    # asks near the float maximum: the expected profit is inf - inf
    (["a,1e306,0,400,400,400,0,0,0", "b,1.5e307,0,400,400,400,0,0,0"], "R is nan"),
    # start costs whose sum overflows H
    ([f"{name},{ask},0,400,400,400,1e308,1e308,0" for name, ask in zip("abc", (10, 20, 30))],
     "H is inf"),
], ids=["asks", "start-costs"])
def test_cli_settle_with_an_overflowing_figure_is_config_error(tmp_path, units, message):
    path = tmp_path / "fleet.csv"
    path.write_text("name,ask_price,p_min,p_max,rp_max,ramp_max,hot_start,cold_start,"
                    "no_load_cost\n" + "\n".join(units) + "\n")
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["settle", "--fleet", str(path), "--out", str(out)])
    assert result.exit_code == 2
    assert result.output == f"configuration error: {message}{OVERFLOW}\n"
    assert not out.exists()
    run = RunConfig(fleet_source=str(path), capacity_mode="tracking", alphas=(0.9,),
                    penetrations=(0.009,))
    with pytest.raises(ConfigurationError, match=f"^{message}"):
        run_grid(run)


def _settlement_inputs(fleet):
    """Finite arguments for each settlement function: T 2, K 3, and the fleet's units."""
    n = len(fleet)
    committed = np.full((2, n), 40.0)
    realized = np.full((3, 2, n), 35.0)
    lmps = np.full((2, n), 30.0)
    return {
        deviation_envelopes: dict(committed=committed, realized=realized),
        recovery_rate: dict(committed=committed, rp=np.full((2, n), 5.0),
                            dp=np.full((2, n), 2.0), fleet=fleet, cost_recovery=1),
        reserve_and_ramp_check: dict(committed=committed, realized=realized,
                                     rp=np.full((2, n), 5.0), dp=np.full((2, n), 2.0),
                                     fleet=fleet),
        expected_profit: dict(committed=committed, lmps=lmps, fleet=fleet),
        realized_profit: dict(realized=realized, probabilities=np.full(3, 1.0 / 3.0),
                              lmps=lmps, fleet=fleet),
        curtail_and_pay_renewables: dict(load_totals=np.full((3, 2), 50.0 * n),
                                         renewables=np.full((3, 2, n), 20.0), lmps=lmps),
    }


SETTLEMENT_ARGUMENTS = [
    (deviation_envelopes, "committed"), (deviation_envelopes, "realized"),
    (recovery_rate, "committed"), (recovery_rate, "rp"), (recovery_rate, "dp"),
    (reserve_and_ramp_check, "committed"), (reserve_and_ramp_check, "realized"),
    (reserve_and_ramp_check, "rp"), (reserve_and_ramp_check, "dp"),
    (expected_profit, "committed"), (expected_profit, "lmps"),
    (realized_profit, "realized"), (realized_profit, "lmps"),
    (curtail_and_pay_renewables, "load_totals"), (curtail_and_pay_renewables, "renewables"),
    (curtail_and_pay_renewables, "lmps"),
]


@pytest.mark.parametrize("function,name", SETTLEMENT_ARGUMENTS,
                         ids=[f"{f.__name__}-{name}" for f, name in SETTLEMENT_ARGUMENTS])
@settings(max_examples=15, deadline=None)
@given(bad=NON_FINITE, data=st.data())
def test_settlement_names_a_non_finite_argument(function, name, bad, data):
    _, fleet = _feeder()
    inputs = _settlement_inputs(fleet)[function]
    function(**inputs)  # finite inputs settle
    value = np.array(inputs[name], dtype=float)
    index = tuple(data.draw(st.integers(0, d - 1)) for d in value.shape)
    value[index] = bad
    inputs[name] = value
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        function(**inputs)


def _level_inputs(fleet):
    """The finite arguments of each function that takes a leading level axis,
    with two levels; the scenario probabilities have none."""
    inputs = _settlement_inputs(fleet)
    return {function: {name: np.stack([value, value])
                       if isinstance(value, np.ndarray) and name != "probabilities"
                       else value for name, value in inputs[function].items()}
            for function in (deviation_envelopes, reserve_and_ramp_check, expected_profit,
                             realized_profit)}


LEVEL_ARGUMENTS = [(function, name) for function, name in SETTLEMENT_ARGUMENTS
                   if function in (deviation_envelopes, reserve_and_ramp_check,
                                   expected_profit, realized_profit)]


@pytest.mark.parametrize("function,name", LEVEL_ARGUMENTS,
                         ids=[f"{f.__name__}-{name}" for f, name in LEVEL_ARGUMENTS])
@settings(max_examples=15, deadline=None)
@given(bad=NON_FINITE, data=st.data())
def test_settlement_with_a_level_axis_names_a_non_finite_argument(function, name, bad,
                                                                  data):
    _, fleet = _feeder()
    inputs = _level_inputs(fleet)[function]
    function(**inputs)  # finite inputs settle
    value = np.array(inputs[name], dtype=float)
    index = tuple(data.draw(st.integers(0, d - 1)) for d in value.shape)
    value[index] = bad
    inputs[name] = value
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        function(**inputs)


def test_payment_rejects_nan_loads():
    # all-NaN load totals once paid every unit of renewable output in full
    with pytest.raises(ValueError, match="^load_totals must be finite$"):
        curtail_and_pay_renewables(np.full(2, np.nan), np.ones((2, 3)),
                                   np.full((2, 3), 30.0))
