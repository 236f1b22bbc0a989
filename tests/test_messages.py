"""Each validation error states its fault: the type and text of every message
that the other modules' tests leave unreached, and the command line's exit
code for its usage and output-directory errors."""

import dataclasses
import errno
import functools
import os

import numpy as np
import pytest
from click.testing import CliRunner
from numpy._core._exceptions import _ArrayMemoryError

from gridclear import (ConfigurationError, Fleet, FleetParseError, GeneratorSpec, RadialGrid,
                       RunConfig, builtin_fleet, fleet_from_csv, scenario_config)
from gridclear import cli
from gridclear.cli import main
from gridclear.scenarios import draw_and_build
from gridclear.settlement import _recovery_rows

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


# the most load draws numpy's largest float array holds
MOST_DRAWS = np.iinfo(np.intp).max // 8


@pytest.mark.parametrize("integer", [int, np.int64], ids=["python", "numpy"])
def test_run_config_rejects_more_load_draws_than_an_array_holds(integer):
    # the largest fitting draw is accepted; numpy would otherwise fail at the
    # first draw with "array is too big", and its integers would wrap
    most = RunConfig(n_scenarios=integer(MOST_DRAWS // 6), horizon=2)
    assert 3 * most.horizon * most.n_scenarios <= MOST_DRAWS
    raises(ConfigurationError,
           f"n_scenarios {MOST_DRAWS // 6 + 1} x n_buses 3 x horizon 2 = "
           f"{6 * (MOST_DRAWS // 6 + 1)} load draws, more than numpy's largest float "
           "array holds",
           lambda: RunConfig(n_scenarios=integer(MOST_DRAWS // 6 + 1), horizon=2))


def test_cli_exits_2_on_more_load_draws_than_an_array_holds(tmp_path):
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["settle", "--scenarios", str(2**62),
                                       "--out", str(out)])
    assert result.exit_code == 2
    assert result.output == (f"configuration error: n_scenarios {2**62} x n_buses 3 x "
                             f"horizon 1 = {3 * 2**62} load draws, more than numpy's "
                             "largest float array holds\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["settle", "sweep-penetration"])
@pytest.mark.parametrize("error,message", [
    (_ArrayMemoryError((400_000_000, 3, 1), np.dtype(float)),
     "Unable to allocate 8.94 GiB for an array with shape (400000000, 3, 1) and data type "
     "float64"),
    (MemoryError(), "out of memory"),
], ids=["numpy", "bare"])
def test_cli_exits_2_on_a_run_too_large_for_memory(command, error, message, tmp_path,
                                                   monkeypatch):
    # raised, not allocated: under overcommit a real oversized allocation can
    # be granted and then filled
    def too_large(run, diagnostics=None):
        raise error

    monkeypatch.setattr(cli, "run_grid", too_large)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [command, "--scenarios", "400000000",
                                       "--out", str(out)])
    assert result.exit_code == 2
    assert result.output == f"configuration error: {message}\n"
    assert not out.exists()


# a standardised lower bound of -0.1: the quantile of 1 - 2**-53 rounds to inf
TOP = 1.0 - 2.0**-53
WIDE_LOADS = dict(load_std_frac=10.0, load_mean_per_bus=(3.0, 2.0, 1.0))


@pytest.mark.parametrize("argv", [[], ["--line-limit", "80"]], ids=["bus", "feeder"])
def test_cli_exits_2_on_a_load_draw_that_is_not_finite(argv, tmp_path, monkeypatch,
                                                       force_load_uniforms):
    force_load_uniforms({(0, 0, 0): TOP})
    monkeypatch.setattr(cli, "RunConfig", functools.partial(RunConfig, **WIDE_LOADS))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["settle", "--horizon", "2", "--scenarios", "5",
                                       "--out", str(out), *argv])
    assert result.exit_code == 2
    assert result.output == (
        "configuration error: the load draw of bus 0, hour 0, scenario 0 is not finite "
        "(inf): the truncated-normal quantile of uniform 0.9999999999999999 at mean 3 MW, "
        "std 30 MW\n")
    assert not out.exists()


def test_draw_loads_names_its_first_draw_that_is_not_finite(force_load_uniforms):
    # bus 0's hour 0 is degenerate, so bus 1's hour 1 is the third drawn row;
    # in (bus, hour, scenario) order it comes before bus 2's hour 0
    config = scenario_config(RunConfig(horizon=2, n_scenarios=6, **WIDE_LOADS))
    std = config.load_std.copy()
    std[0, 0] = 0.0
    config = dataclasses.replace(config, load_std=std)
    force_load_uniforms({(5, 2, 0): TOP, (4, 1, 1): TOP, (0, 0, 0): TOP})
    raises(ConfigurationError,
           "the load draw of bus 1, hour 1, scenario 4 is not finite (inf): the "
           "truncated-normal quantile of uniform 0.9999999999999999 at mean 2 MW, std 20 MW",
           lambda: draw_and_build(config, [], np.empty((0, config.n_buses)), 0.0))


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
], ids=["no-bus", "negative-buses", "zero-limit", "negative-limit", "reserve-cap", "ramp-cap",
        "ask", "cold-start", "no-load", "empty-fleet", "head-past-fleet"])
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
])
def test_scenario_config_rejects_negative_inputs(field, value, message):
    config = scenario_config(RunConfig())
    raises(ConfigurationError, message, lambda: dataclasses.replace(config, **{field: value}))


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
def config():
    return scenario_config(RunConfig(n_scenarios=5, horizon=2))


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
def test_build_levels_names_its_fault(config, penetrations, capacities, growth, message):
    raises(ConfigurationError, message,
           lambda: draw_and_build(config, penetrations, capacities, growth))


@pytest.mark.parametrize("cost_recovery", [2, -1, 0.5])
def test_recovery_rate_names_a_cost_recovery_other_than_0_or_1(cost_recovery):
    fleet = builtin_fleet()
    zeros = np.zeros((1, 2, len(fleet)))
    raises(ValueError, "cost_recovery must be 0 or 1",
           lambda: _recovery_rows(zeros + 10.0, zeros, zeros, fleet, cost_recovery))
