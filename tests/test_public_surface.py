"""The package's public surface: every exported name resolves, once, every
exported function runs in a CLI shape or is listed with its reason, the
README's library and CLI examples run, and the CLI's defaults are
``RunConfig``'s."""

import inspect
import re
import shlex
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner

import gridclear
from gridclear import RunConfig, cli
from gridclear.cli import main
from gridclear.experiment import (ALPHA_GRID_DEFAULT, DEFAULT_LOAD_MEAN,
                                  PENETRATION_GRID_DEFAULT)

from test_batch_equivalence import fleet_file

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves_once():
    assert len(set(gridclear.__all__)) == len(gridclear.__all__)
    missing = [name for name in gridclear.__all__ if not hasattr(gridclear, name)]
    assert missing == []


# exported functions that no CLI shape calls, each with the reason it is kept
NOT_RUN_BY_THE_CLI = {
    "commit": "the README's one-row API; a run calls commit_batch's rows",
    "commit_batch": "the README's clearing kernel API; a run calls its rows unraised",
    "dispatch_radial": "the README's one-row feeder API",
    "dispatch_radial_batch": "the README's feeder kernel API; a run calls its rows unraised",
    "kkt_residuals": "the optimality certificate, not yet run on a run (ROADMAP item 13)",
    "kkt_verify_network": "the optimality certificate, not yet run on a run (ROADMAP item 13)",
    "committed_upper_bound": "the congestion bound, waiting on ROADMAP item 2",
}

FEEDER = ("--line-limit", "80", "--load-mean", "150,75,45")
SMALL = ("--horizon", "2", "--scenarios", "50")


def test_every_exported_function_runs_in_a_cli_shape_or_is_listed(tmp_path):
    # each command on one bus and on the feeder, and a fleet read from a file
    fleet = fleet_file(tmp_path / "fleet.csv", gridclear.builtin_fleet())
    shapes = [[command, *SMALL, *extra]
              for command in ("settle", "sweep-penetration", "sweep-alpha", "dispatch")
              for extra in ((), FEEDER)]
    shapes.append(["settle", *SMALL, "--fleet", fleet])
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        results = [CliRunner().invoke(main, [*argv, "--out", str(tmp_path / str(i))])
                   for i, argv in enumerate(shapes)]
    finally:
        sys.setprofile(previous)
    assert [r.exit_code for r in results] == [0] * len(shapes), [r.output for r in results]
    functions = {name: getattr(gridclear, name) for name in gridclear.__all__
                 if inspect.isfunction(getattr(gridclear, name))}
    not_run = {name for name, function in functions.items()
               if function.__code__ not in called}
    assert not_run == set(NOT_RUN_BY_THE_CLI)


def test_readme_python_example_runs():
    # the README's library example uses public names only, so a removed or
    # renamed name fails here instead of leaving the README stale
    readme = README.read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "readme_example"})


def readme_cli_examples():
    """Each ``gridclear ...`` command of the README's plain code blocks, with
    backslash continuations joined."""
    blocks = re.findall(r"^```\n(.*?)^```$", README.read_text(), flags=re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("gridclear ")]


def test_readme_cli_examples_run(tmp_path):
    examples = readme_cli_examples()
    assert examples
    for i, argv in enumerate(examples):
        out = tmp_path / str(i)
        argv = [str(out) if prev == "--out" else arg for prev, arg in zip([None, *argv], argv)]
        result = CliRunner().invoke(main, argv)
        assert result.exit_code == 0, (argv, result.output)
        assert any(out.iterdir()), argv


def _grid(text):
    return tuple(float(v) for v in text.split(","))


def test_cli_defaults_are_run_config_defaults():
    defaults = RunConfig()
    for name, command in main.commands.items():
        params = {p.name: p.default for p in command.params}
        assert params["fleet_source"] == defaults.fleet_source, name
        assert params["n_scenarios"] == defaults.n_scenarios, name
        assert params["seed"] == defaults.seed, name
        assert params["horizon"] == defaults.horizon, name
        assert int(params["cost_recovery"]) == defaults.cost_recovery, name
        load_help = next(p.help for p in command.params if p.name == "load_mean")
        shown = re.search(r"default ([\d.,]+)\)", load_help).group(1)
        assert _grid(shown) == defaults.load_mean_per_bus == DEFAULT_LOAD_MEAN, name
    alpha = next(p for p in main.commands["sweep-alpha"].params if p.name == "alpha")
    assert _grid(alpha.default) == defaults.alphas == ALPHA_GRID_DEFAULT
    penetration = next(p for p in main.commands["sweep-penetration"].params
                       if p.name == "penetration")
    assert _grid(penetration.default) == defaults.penetrations == PENETRATION_GRID_DEFAULT


@pytest.mark.parametrize("command,fixed", [
    ("sweep-alpha", dict(penetrations=RunConfig.penetrations,
                         capacity_mode=RunConfig.capacity_mode)),
    ("sweep-penetration", dict(alphas=RunConfig.alphas)),
])
def test_cli_without_flags_runs_the_default_config(tmp_path, monkeypatch, command, fixed):
    # the sweep's own fixed flag and sizing policy aside, the run is RunConfig()
    runs = []
    monkeypatch.setattr(cli, "run_grid", lambda run, diagnostics=None: runs.append(run) or [])
    result = CliRunner().invoke(main, [command, "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert replace(runs[0], **fixed) == RunConfig()


def test_readme_shared_flags_are_the_cli_shared_options():
    shared = re.search(r"^Shared flags:(.*?)Exit codes", README.read_text(),
                       flags=re.M | re.S).group(1)
    # click collects decorator options last to first
    options = cli._shared_options(lambda **kw: None).__click_params__[::-1]
    assert re.findall(r"`(--[\w-]+)", shared) == [p.opts[0] for p in options]
