"""``tools/compare_outputs.py``: two source trees are compared command by
command, in fresh processes, and the first difference is named."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_outputs.py"


def compare(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)],
                          capture_output=True, text=True, cwd=ROOT)


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
