"""The CLI's whole input space as a property: every invocation of the four
commands ends in exit 0, 2 or 3, a failure is one worded line, no warning or
traceback reaches the output, and the same arguments give the same bytes."""

import shutil
import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from gridclear.cli import main

COMMANDS = ("sweep-alpha", "sweep-penetration", "dispatch", "settle")
# values at the edges of the float range, each written as the CLI reads it
EDGES = ("nan", "inf", "-inf", "1e308", "1e306", "1e-320", "0", "-0.0", "-1")
# the inputs that may take edge values; each invocation picks at most two, so
# that most runs pass their checks and reach the kernels
EDGY = ("--load-mean", "--alpha", "--penetration", "--line-limit", "--horizon",
        "--scenarios", "--seed", "fleet")
# K * T * buses of a run, kept small so that no example needs much memory or
# cuts its Beta quantiles into blocks for threads
MAX_DRAWS = 240


def grid(values, max_size=3):
    return st.lists(values, min_size=1, max_size=max_size).map(",".join)


@st.composite
def invocations(draw):
    """The arguments of one CLI call, without ``--out``, and its fleet CSV or None."""
    edgy = draw(st.sets(st.sampled_from(EDGY), max_size=2))

    def number(name, low, high):
        plain = st.floats(low, high).map(repr)
        return st.sampled_from(EDGES) | plain if name in edgy else plain

    def count(name, low, high):
        return st.integers(0 if name in edgy else 1, high) if high >= low else st.just(low)

    buses = draw(st.integers(1, 4))
    horizon = draw(count("--horizon", 1, 3))
    scenarios = draw(count("--scenarios", 1, MAX_DRAWS // (buses * max(horizon, 1))))
    seed = st.integers(0, 2**32)
    if "--seed" in edgy:
        seed |= st.sampled_from([-1, 2**64, 2**128])
    argv = [draw(st.sampled_from(COMMANDS)),
            "--load-mean", draw(grid(number("--load-mean", 0.0, 300.0), buses)),
            "--horizon", str(horizon), "--scenarios", str(scenarios),
            "--seed", str(draw(seed)),
            "--alpha", draw(grid(number("--alpha", 0.01, 0.99))),
            "--penetration", draw(grid(number("--penetration", 0.0, 1.5))),
            "--cost-recovery", draw(st.sampled_from(["0", "1"])),
            "--line-limit", draw(st.sampled_from(["unlimited", "80", "1e-9"])
                                 | number("--line-limit", 1e-9, 200.0))]
    if not draw(st.booleans()):
        return argv, None
    # a fleet whose minimums may be positive, which only one bus can clear
    rows = ["name,ask_price,p_min,p_max,rp_max,ramp_max,hot_start,cold_start,no_load_cost"]
    huge = ["1e308"] if "fleet" in edgy else []
    for i in range(draw(st.integers(1, 4))):
        p_min = draw(st.sampled_from(["0", "0", "5", "50"]))
        p_max = draw(st.sampled_from(["60", "200", "400", *huge]))
        costs = [draw(st.sampled_from(["0", "10", *huge])) for _ in range(3)]
        rows.append(",".join([f"u{i}", draw(number("fleet", 1.0, 100.0)), p_min,
                              p_max, p_max, p_max, *costs]))
    return argv, "\n".join(rows) + "\n"


def invoke(argv, out):
    """The exit code, stdout, stderr and CSV bytes of one call writing to ``out``."""
    shutil.rmtree(out, ignore_errors=True)
    result = CliRunner().invoke(main, [*argv, "--out", str(out)])
    csvs = {p.name: p.read_bytes() for p in sorted(out.glob("*"))} if out.is_dir() else {}
    return result.exit_code, result.stdout, result.stderr, csvs


@settings(max_examples=150, deadline=None)
@given(invocations())
def test_every_invocation_exits_0_2_or_3_with_one_worded_line(invocation):
    # warnings are errors here, so a warning would end the call with exit 1
    argv, fleet = invocation
    with tempfile.TemporaryDirectory() as work:
        if fleet is not None:
            path = Path(work) / "fleet.csv"
            path.write_text(fleet)
            argv = [*argv, "--fleet", str(path)]
        first = invoke(argv, Path(work) / "out")
        assert invoke(argv, Path(work) / "out") == first
    code, stdout, stderr, _ = first
    assert code in (0, 2, 3), (code, stdout, stderr)
    assert "Traceback" not in stdout + stderr and "Warning" not in stderr
    if code:
        assert stdout == ""
        assert stderr.count("\n") == 1
        assert stderr.startswith("configuration error: " if code == 2
                                 else "infeasible dispatch: "), stderr
