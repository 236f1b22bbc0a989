"""``tools/count_lines.py``: the code lines of each module, without blank,
comment-only or docstring lines, and their total."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "count_lines.py"

# 7 code lines: the import, the class line, the attribute, the def, the
# two lines of the string that is no docstring, and the return
DOCUMENTED = '''"""Module docstring,
on two lines."""

# a comment-only line
import os  # a code line with a comment


class Thing:
    """Class docstring."""

    size = 1

    async def run(self):
        """Function docstring,

        with a blank line inside."""
        text = """not a docstring:
        each line counts"""
        return text
'''
# 2 code lines, one of them continued
PLAIN = "x = (1 +\n     2)\n\n\n# trailing comment\n"


def test_counts_each_module_and_their_total(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "documented.py").write_text(DOCUMENTED)
    (tmp_path / "pkg" / "plain.py").write_text(PLAIN)
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    done = subprocess.run([sys.executable, str(TOOL), str(tmp_path / "pkg")],
                          capture_output=True, text=True, check=True)
    rows = [line.split(maxsplit=1) for line in done.stdout.splitlines()]
    counts = {Path(name).name: int(count) for count, name in rows}
    assert counts == {"documented.py": 7, "plain.py": 2, "total": 9}
    assert counts["total"] == counts["documented.py"] + counts["plain.py"]


def test_no_path_exits_2():
    done = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (2, "")
