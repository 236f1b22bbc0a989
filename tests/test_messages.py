"""Each validation error states its fault: the type and text of every message
that the other modules' tests leave unreached, and the command line's exit
code for its usage and output-directory errors."""

import dataclasses
import errno
import os

import numpy as np
import pytest
from click.testing import CliRunner

from gridclear import (ConfigurationError, EmpiricalSample, Fleet, FleetParseError,
                       GeneratorSpec, RadialGrid, RunConfig, ScenarioSet, builtin_fleet,
                       fleet_from_csv, recovery_rate, scenario_config)
from gridclear import cli
from gridclear.cli import main
from gridclear.scenarios import build_levels, draw_loads

HEADER = "name,ask_price,p_min,p_max,rp_max,ramp_max,hot_start,cold_start,no_load_cost\n"


def raises(exc_type, message, build):
    with pytest.raises(exc_type) as err:
        build()
    assert type(err.value) is exc_type
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# command line


def test_cli_rejects_a_line_limit_that_is_no_number():
    result = CliRunner().invoke(main, ["settle", "--line-limit", "eighty"])
    assert result.exit_code == 2
    assert "line limit must be a number or 'unlimited', got 'eighty'" in result.output


def test_cli_exits_2_when_the_output_directory_cannot_be_made(tmp_path, monkeypatch):
    # the nearest existing ancestor is writable, but a missing component too
    # long for its file system could never be made, so the run never starts
    def started(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run_grid", started)
    out = tmp_path / ("x" * 300) / "out"
    result = CliRunner().invoke(main, ["settle", "--scenarios", "20", "--out", str(out)])
    assert result.exit_code == 2
    assert result.output.startswith(
        f"configuration error: [Errno {errno.ENAMETOOLONG}] "
        f"{os.strerror(errno.ENAMETOOLONG)}: ")
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# constructors


@pytest.mark.parametrize("build,message", [
    (lambda: RadialGrid(0, 50.0), "a grid needs at least one bus"),
    (lambda: RadialGrid(-2, 50.0), "a grid needs at least one bus"),
    (lambda: RadialGrid(3, 0.0), "line limit must be positive"),
    (lambda: RadialGrid(3, -5.0), "line limit must be positive"),
    (lambda: GeneratorSpec("g", 10.0, 0.0, 100.0, rp_max=-1.0),
     "g: reserve and ramp caps must be non-negative"),
    (lambda: GeneratorSpec("g", 10.0, 0.0, 100.0, ramp_max=-0.5),
     "g: reserve and ramp caps must be non-negative"),
    (lambda: GeneratorSpec("g", -1.0, 0.0, 100.0), "g: costs and prices must be non-negative"),
    (lambda: GeneratorSpec("g", 10.0, 0.0, 100.0, start_cost_cold=-3.0),
     "g: costs and prices must be non-negative"),
    (lambda: GeneratorSpec("g", 10.0, 0.0, 100.0, no_load_cost=-1.0),
     "g: costs and prices must be non-negative"),
    (lambda: Fleet(()), "a fleet needs at least one generator"),
    (lambda: builtin_fleet().head(8), "fleet has 7 units, need 8"),
    (lambda: EmpiricalSample([2.0, 1.0], [0.5, 0.5]),
     "values must be strictly increasing; merge ties first"),
    (lambda: EmpiricalSample([1.0, 1.0], [0.5, 0.5]),
     "values must be strictly increasing; merge ties first"),
    (lambda: EmpiricalSample.from_points([1.0, 2.0]), "points must be (value, probability) pairs"),
    (lambda: EmpiricalSample.from_points([(1.0, 0.5, 0.5)]),
     "points must be (value, probability) pairs"),
], ids=["no-bus", "negative-buses", "zero-limit", "negative-limit", "reserve-cap", "ramp-cap",
        "ask", "cold-start", "no-load", "empty-fleet", "head-past-fleet", "decreasing-values",
        "tied-values", "flat-points", "triples"])
def test_constructor_names_its_fault(build, message):
    raises(ValueError, message, build)


@pytest.mark.parametrize("fields,message", [
    (dict(penetrations=()), "the penetration grid must not be empty"),
    (dict(alphas=(0.9, 1.0)), "confidence level 1.0 outside (0, 1)"),
    (dict(alphas=(0.0,)), "confidence level 0.0 outside (0, 1)"),
    (dict(alphas=(-0.5,)), "confidence level -0.5 outside (0, 1)"),
    (dict(cost_recovery=2), "cost_recovery must be 0 or 1"),
], ids=["empty-penetrations", "alpha-one", "alpha-zero", "alpha-negative", "cost-recovery"])
def test_run_config_names_its_fault(fields, message):
    raises(ConfigurationError, message, lambda: RunConfig(**fields))


@pytest.mark.parametrize("field,value,message", [
    ("load_mean", -1.0, "load means and stds must be non-negative"),
    ("load_std", -0.1, "load means and stds must be non-negative"),
    ("renewable_capacity", [10.0, -1.0, 10.0], "renewable capacities must be non-negative"),
    ("penetration", -0.1, "penetration must be non-negative"),
    ("uncertainty_growth", -0.27, "uncertainty_growth must be non-negative"),
])
def test_scenario_config_rejects_negative_inputs(field, value, message):
    config = scenario_config(RunConfig(), 0.5)
    raises(ConfigurationError, message, lambda: dataclasses.replace(config, **{field: value}))


@pytest.mark.parametrize("probabilities,load_shape,renewable_shape,message", [
    ([0.5, 0.6], (1, 1, 2), (1, 1, 2), "scenario probabilities must be positive and sum to 1"),
    ([1.0, 0.0], (1, 1, 2), (1, 1, 2), "scenario probabilities must be positive and sum to 1"),
    ([0.5, 0.5], (1, 1, 2), (1, 2, 2), "load and renewable must share shape (buses, horizon, K)"),
    ([0.5, 0.5], (1, 2), (1, 2), "load and renewable must share shape (buses, horizon, K)"),
    ([0.25] * 4, (1, 1, 2), (1, 1, 2), "one probability per scenario required"),
], ids=["sum", "zero", "shape-mismatch", "two-axes", "probability-count"])
def test_scenario_set_names_its_fault(probabilities, load_shape, renewable_shape, message):
    raises(ConfigurationError, message,
           lambda: ScenarioSet(np.array(probabilities), np.ones(load_shape),
                               np.ones(renewable_shape)))


# ---------------------------------------------------------------------------
# fleet files


@pytest.mark.parametrize("text,message", [
    ("", "{path}: empty fleet file"),
    (HEADER + "a,5,0,100\n", "{path}:2: expected 9 fields, got 4"),
    (HEADER + "a,5,0,100,100,100,0,0,0,7\n", "{path}:2: expected 9 fields, got 10"),
    (HEADER, "{path}: no generator rows"),
    (HEADER + "\n , \n", "{path}: no generator rows"),
], ids=["empty", "short-row", "long-row", "header-only", "blank-rows"])
def test_fleet_file_names_its_fault(text, message, tmp_path):
    path = tmp_path / "fleet.csv"
    path.write_text(text)
    raises(FleetParseError, message.format(path=path), lambda: fleet_from_csv(path))
    result = CliRunner().invoke(main, ["settle", "--fleet", str(path),
                                       "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert result.output == f"configuration error: {message.format(path=path)}\n"


# ---------------------------------------------------------------------------
# renewable levels and settlement


@pytest.fixture(scope="module")
def draws():
    return draw_loads(scenario_config(RunConfig(n_scenarios=5, horizon=2), 0.0))


@pytest.mark.parametrize("penetrations,capacities,growth,message", [
    ([-0.1], [[10.0] * 3], 0.27, "penetration must be non-negative and finite"),
    ([np.inf], [[10.0] * 3], 0.27, "penetration must be non-negative and finite"),
    ([0.5], [[10.0, -1.0, 10.0]], 0.27, "renewable capacities must be non-negative and finite"),
    ([0.5], [[10.0, np.nan, 10.0]], 0.27,
     "renewable capacities must be non-negative and finite"),
    ([0.5], [[10.0] * 3], -0.27, "uncertainty_growth must be non-negative and finite"),
    ([0.5], [[10.0] * 3], np.nan, "uncertainty_growth must be non-negative and finite"),
    ([0.5], [[10.0] * 2], 0.27, "need one capacity per bus for each of the 1 levels, "
                                "got shape (1, 2)"),
    ([0.5, 0.6], [10.0] * 3, 0.27, "need one capacity per bus for each of the 2 levels, "
                                   "got shape (3,)"),
], ids=["negative-penetration", "infinite-penetration", "negative-capacity", "nan-capacity",
        "negative-growth", "nan-growth", "capacity-per-bus", "capacity-per-level"])
def test_build_levels_names_its_fault(draws, penetrations, capacities, growth, message):
    raises(ConfigurationError, message,
           lambda: build_levels(draws, penetrations, capacities, growth))


@pytest.mark.parametrize("cost_recovery", [2, -1, 0.5])
def test_recovery_rate_names_a_cost_recovery_other_than_0_or_1(cost_recovery):
    fleet = builtin_fleet()
    zeros = np.zeros((2, len(fleet)))
    raises(ValueError, "cost_recovery must be 0 or 1",
           lambda: recovery_rate(zeros + 10.0, zeros, zeros, fleet, cost_recovery))
