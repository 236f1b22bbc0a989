"""``tools/compare_outputs.py``: two source trees are compared command by
command, in fresh processes, and the first difference is named."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

from click.testing import CliRunner

from gridclear import experiment
from gridclear.cli import main

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_outputs.py"


def compare(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, cwd=ROOT)


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_the_fifteen_commands_run_all_four_cli_commands():
    tool = load_tool()
    named = tool.commands()
    assert len(named) == 15
    assert {argv[0] for argv in named.values()} == {"settle", "sweep-penetration",
                                                      "sweep-alpha", "dispatch"}
    assert named["dispatch-feeder"] == ["dispatch", *tool.SIZE, *tool.FEEDER]
    assert named["settle-default"] == ["settle"]


def test_the_compared_commands_take_both_branches_of_the_commit_kernel(
        monkeypatch, tmp_path):
    # _commit_rows gathers its saturated units from an (n, n) table when a
    # call has at least as many demand rows as the fleet has units, and
    # broadcasts an (m, n) compare when it has fewer; the byte gate covers a
    # branch only if some compared command runs it
    real = experiment._commit_rows
    calls = {}

    def recording(fleet, demands):  # (rows, units) of each call, by the running command
        calls.setdefault(command, []).append((len(demands), len(fleet)))
        return real(fleet, demands)

    monkeypatch.setattr(experiment, "_commit_rows", recording)
    for command, argv in load_tool().commands().items():
        CliRunner().invoke(main, [*argv, "--seed", "7", "--out", str(tmp_path / command)])
    fewer = {name for name, shapes in calls.items() if any(m < n for m, n in shapes)}
    assert fewer == {"sweep-alpha-default", "dispatch-default", "settle-default"}
    assert {name for name, shapes in calls.items()
            if any(m >= n for m, n in shapes)} >= {"settle-bus", "settle-default"}


def test_the_compared_commands_word_skips_and_an_error():
    # so the byte gate also compares skip lines and an error's exit code
    tool = load_tool()
    named = tool.commands()
    outcomes = {}
    for name in ("sweep-alpha-recovery-skips", "sweep-penetration-beta-skip",
                 "settle-unservable"):
        (_, code), _, (_, stderr), (_, csvs) = tool.run(ROOT / "src", named[name], 7)
        outcomes[name] = code, stderr, sorted(csvs)
    code, stderr, csvs = outcomes["sweep-alpha-recovery-skips"]
    assert (code, csvs) == (0, ["alpha_sweep.csv"])
    assert stderr.count("skipped: ") == 3
    assert stderr.count("cost recovery requested but no committed energy") == 3
    code, stderr, csvs = outcomes["sweep-penetration-beta-skip"]
    assert (code, csvs) == (0, ["penetration_sweep.csv"])
    assert stderr.startswith("skipped: penetration=1.5: hour 0: required system-wide mean share")
    assert stderr.count("\n") == 1
    code, stderr, csvs = outcomes["settle-unservable"]
    assert (code, csvs) == (3, [])
    assert stderr.startswith("infeasible dispatch: demand ")


def test_one_tree_against_itself_agrees():
    done = compare(ROOT / "src", ROOT / "src", "7", "sweep-penetration-wide")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "no difference in 1 command(s) at 1 seed(s)\n"


def test_a_changed_figure_is_named(tmp_path):
    # the same tree, printing its CSV cells to five decimals
    changed = tmp_path / "src"
    shutil.copytree(ROOT / "src", changed, ignore=shutil.ignore_patterns("__pycache__"))
    experiment = changed / "gridclear" / "experiment.py"
    text = experiment.read_text()
    assert text.count(':.6f}') == 1
    experiment.write_text(text.replace(':.6f}', ':.5f}'))
    done = compare(ROOT / "src", changed, "7", "sweep-penetration-wide")
    assert done.returncode == 1
    assert done.stderr.startswith(
        "differ: sweep-penetration-wide (gridclear sweep-penetration ")
    assert done.stderr.endswith("--seed 7): different CSV files\n")


def test_an_unknown_command_or_seed_list_exits_2():
    for args in (("7", "no-such-command"), ("7-x",)):
        done = compare(ROOT / "src", ROOT / "src", *args)
        assert done.returncode == 2 and done.stdout == ""
