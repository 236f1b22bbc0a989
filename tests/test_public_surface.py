"""The package's public surface: every exported name resolves, once, the
README's library and CLI examples run, and the CLI's defaults are
``RunConfig``'s."""

import re
import shlex
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner

import gridclear
from gridclear import RunConfig, cli
from gridclear.cli import main
from gridclear.experiment import (ALPHA_GRID_DEFAULT, DEFAULT_LOAD_MEAN,
                                  PENETRATION_GRID_DEFAULT)

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves_once():
    assert len(set(gridclear.__all__)) == len(gridclear.__all__)
    missing = [name for name in gridclear.__all__ if not hasattr(gridclear, name)]
    assert missing == []


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
