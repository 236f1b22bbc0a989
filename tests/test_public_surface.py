"""The package's public surface: every exported name resolves, once, every
function and method the package defines runs in a CLI shape or is listed
with its reason, the README's library and CLI examples run, and the CLI's
defaults are ``RunConfig``'s."""

import importlib
import inspect
import json
import pkgutil
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

from test_batch_equivalence import fleet_file
from test_scenarios import fresh_python

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves_once():
    assert len(set(gridclear.__all__)) == len(gridclear.__all__)
    missing = [name for name in gridclear.__all__ if not hasattr(gridclear, name)]
    assert missing == []


# functions and methods that no CLI shape calls, each with the reason it is kept
NOT_RUN_BY_THE_CLI = {
    "commit": "the README's one-row API; a run calls commit_batch's rows",
    "commit_batch": "the README's clearing kernel API; a run calls its rows unraised",
    "dispatch_radial": "the README's one-row feeder API",
    "dispatch_radial_batch": "the README's feeder kernel API; a run calls its rows unraised",
    "kkt_residuals": "the optimality certificate, not yet run on a run (ROADMAP item 13)",
    "kkt_verify_network": "the optimality certificate, not yet run on a run (ROADMAP item 13)",
    "merit_order.DispatchResult.total_power": "the total of commit's one-row result",
    "congestion.CongestedDispatch.total_power": "the total of dispatch_radial's one-row result",
    "dcopf.KktReport.max_residual": "the certificate's summary, with kkt_verify_network",
    "cli._grid_text": "runs at import, where it writes the defaults into the help texts",
    "cli._shared_options": "runs at import, where it decorates each command",
    "scenarios._load_bare": "runs at import",
    "scenarios._AdoptSubmodules.__init__": "runs at import",
}

FEEDER = ("--line-limit", "80", "--load-mean", "150,75,45")
SMALL = ("--horizon", "2", "--scenarios", "50")

# runs the CLI shapes of argv lists in a fresh interpreter, with the package
# imported before the trace starts; prints each exit code and output, and the
# (file, first line, name) of every function called
TRACE_SHAPES = """
import json, sys
from click.testing import CliRunner
from gridclear.cli import main

called = set()

def record(frame, event, arg):
    if event == "call":
        code = frame.f_code
        called.add((code.co_filename, code.co_firstlineno, code.co_name))

sys.setprofile(record)
try:
    results = [CliRunner().invoke(main, argv) for argv in json.loads(sys.argv[1])]
finally:
    sys.setprofile(None)
print(json.dumps([[[r.exit_code, r.output] for r in results], sorted(called)]))
"""


def defined_functions():
    """Every function and method defined in the package's source, by its
    name: an exported function by its own, any other as
    ``module.qualified_name``.  Methods include property getters; the
    dataclass-generated dunders, compiled from no source file, are left out."""
    found = {}
    for info in pkgutil.iter_modules(gridclear.__path__):
        module = importlib.import_module(f"gridclear.{info.name}")
        for obj in vars(module).values():
            members = [obj, *vars(obj).values()] if inspect.isclass(obj) else [obj]
            for member in members:
                function = inspect.unwrap(getattr(member, "fget", member))
                if (inspect.isfunction(function)
                        and function.__code__.co_filename == module.__file__):
                    name = function.__qualname__
                    if name not in gridclear.__all__:
                        name = f"{info.name}.{name}"
                    found[name] = function.__code__
    return found


def test_every_exported_function_runs_in_a_cli_shape_or_is_listed(tmp_path):
    # each command on one bus and on the feeder, a fleet read from a file,
    # and tied draws: at zero load means every draw is 0, and ties take the
    # CVaR through risk._atoms
    fleet = fleet_file(tmp_path / "fleet.csv", gridclear.builtin_fleet())
    shapes = [[command, *SMALL, *extra]
              for command in ("settle", "sweep-penetration", "sweep-alpha", "dispatch")
              for extra in ((), FEEDER)]
    shapes.append(["settle", *SMALL, "--fleet", fleet])
    shapes.append(["settle", *SMALL, "--load-mean", "0,0,0"])
    argv = [[*shape, "--out", str(tmp_path / str(i))] for i, shape in enumerate(shapes)]
    results, called = json.loads(fresh_python(TRACE_SHAPES, json.dumps(argv)).stdout)
    assert [code for code, _ in results] == [0] * len(shapes), results
    called = {tuple(entry) for entry in called}
    functions = defined_functions()
    assert {"scenarios.draw_and_build", "risk._atoms", "scenarios.Scenarios.renewable",
            "experiment.RunConfig.__post_init__"} <= set(functions)
    not_run = {name for name, code in functions.items()
               if (code.co_filename, code.co_firstlineno, code.co_name) not in called}
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
