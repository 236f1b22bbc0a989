"""Compare the CLI outputs of two gridclear source trees, command by command.

Usage:

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC [SEEDS] [NAME ...]

PARENT_SRC and CHANGE_SRC are ``src`` directories (each holding the
``gridclear`` package); SEEDS is a list such as ``7,10-18`` (default ``7``).
The commands are the benchmark's three workloads, with the ``argv`` read from
``perfbench/workloads.json``, and default-size ``sweep-penetration``,
``sweep-alpha`` and ``dispatch`` at T 24, K 1000, each on one bus and on the
80 MW feeder, and three at T 24, K 1000 that word a skip or an error: a
``sweep-alpha`` at penetration 3.0 that skips three points on cost
recovery, a ``sweep-penetration`` that skips level 1.5 before its Beta
draw, and a ``settle`` whose load exceeds the fleet and exits 3.  Last,
``sweep-alpha``, ``dispatch`` and ``settle`` with no size flag (T 1, K 200,
one bus), whose commitments clear fewer demand rows than the fleet has
units: the only compared runs that take that branch of the clearing
kernel.  Fifteen commands, which run all four of the CLI's.  Naming
commands (``settle-bus``, ``dispatch-feeder``, ...) runs only those.

Every command runs at every seed in a fresh ``python -m gridclear.cli``
process per side, with ``PYTHONPATH`` set to that side's source directory.
The CSV bytes, stdout (with the ``--out`` directory masked), stderr and exit
code must be equal.  Exits 0 when every run agrees and 1 at the first that
differs, naming its command, seed and what differed; an unknown command
name or a malformed seed list exits 2.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json"
SIZE = ["--horizon", "24", "--scenarios", "1000"]
FEEDER = ["--line-limit", "80", "--load-mean", "150,75,45"]


def commands() -> dict[str, list[str]]:
    """Each compared command's name and CLI arguments, without seed and output."""
    workloads = json.loads(WORKLOADS.read_text())["workloads"]
    named = {name: w["argv"] for name, w in workloads.items()}
    for command in ("sweep-penetration", "sweep-alpha", "dispatch"):
        named[f"{command}-bus"] = [command, *SIZE]
        named[f"{command}-feeder"] = [command, *SIZE, *FEEDER]
    named["sweep-alpha-recovery-skips"] = ["sweep-alpha", *SIZE, "--penetration", "3.0"]
    named["sweep-penetration-beta-skip"] = ["sweep-penetration", *SIZE,
                                            "--penetration", "0,0.5,1.0,1.5"]
    named["settle-unservable"] = ["settle", *SIZE, "--load-mean", "400,300,300"]
    for command in ("sweep-alpha", "dispatch", "settle"):
        named[f"{command}-default"] = [command]
    return named


def parse_seeds(text: str) -> list[int]:
    """``7,10-18`` as [7, 10, 11, ..., 18]."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run(src: Path, argv: list[str], seed: int) -> tuple:
    """One fresh CLI process: its exit code, stdout, stderr and CSV files."""
    with tempfile.TemporaryDirectory() as work:
        out = Path(work) / "out"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-m", "gridclear.cli", *argv,
                               "--seed", str(seed), "--out", str(out)],
                              cwd=work, env=env, capture_output=True, text=True)
        csvs = {p.name: p.read_bytes() for p in sorted(out.glob("*"))} if out.is_dir() else {}
        return (("exit code", done.returncode),
                ("stdout", done.stdout.replace(str(out), "OUT")),
                ("stderr", done.stderr), ("CSV files", csvs))


def compare(parent: Path, change: Path, seeds: list[int],
            named: dict[str, list[str]]) -> str | None:
    """The first difference over the ``named`` commands, worded, or None
    when every run agrees."""
    for name, argv in named.items():
        for seed in seeds:
            outputs = zip(run(parent, argv, seed), run(change, argv, seed))
            for (what, want), (_, got) in outputs:
                if got != want:
                    return (f"{name} (gridclear {' '.join(argv)} --seed {seed}): "
                            f"different {what}")
    return None


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change, *rest = argv
    table = commands()
    names = rest[1:] or list(table)
    try:
        seeds = parse_seeds(rest[0] if rest else "7")
    except ValueError:
        print(f"malformed seed list {rest[0]!r}", file=sys.stderr)
        return 2
    unknown = [name for name in names if name not in table]
    if unknown:
        print(f"unknown command {unknown[0]!r}; known: {', '.join(table)}", file=sys.stderr)
        return 2
    difference = compare(Path(parent).resolve(), Path(change).resolve(), seeds,
                         {name: table[name] for name in names})
    if difference:
        print(f"differ: {difference}", file=sys.stderr)
        return 1
    print(f"no difference in {len(names)} command(s) at {len(seeds)} seed(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
