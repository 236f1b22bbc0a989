"""The CLI's whole input space as a property: every invocation of the four
commands ends in exit 0, 2 or 3, a failure is one worded line, no warning or
traceback reaches the output, and the same arguments give the same bytes.
A ``--fleet`` file with a fault in its bytes or its rows is a configuration
error."""

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
# the most alphas and the most penetrations of a grid, so up to 36 points
MAX_GRID = 6
FLEET_HEADER = "name,ask_price,p_min,p_max,rp_max,ramp_max,hot_start,cold_start,no_load_cost"
# what may be wrong with a fleet file; all but the byte-order mark, which is
# not part of the header, make the file a configuration error
FLEET_FAULTS = ("bom", "not-utf8", "header", "few-fields", "many-fields", "duplicate-name",
                "newline-in-name")


def grid(values, max_size=MAX_GRID):
    return st.lists(values, min_size=1, max_size=max_size).map(",".join)


def with_fault(draw, rows, fault):
    """The fleet file's bytes: ``rows`` (header first) with ``fault`` put in."""
    i = draw(st.integers(1, len(rows) - 1))  # a unit row
    if fault == "header":
        names = FLEET_HEADER.split(",")
        j = draw(st.integers(0, len(names) - 1))
        names[j] = draw(st.sampled_from(["", "ask", names[j - 1], names[j].upper()]))
        rows[0] = ",".join(names)
    elif fault == "few-fields":
        rows[i] = rows[i].rpartition(",")[0]
    elif fault == "many-fields":
        rows[i] += ",0"
    elif fault == "duplicate-name":
        rows.append(rows[i])
    elif fault == "newline-in-name":
        rows[i] = '"u\n' + rows[i][1:].replace(",", '",', 1)
    data = ("\n".join(rows) + "\n").encode()
    if fault == "bom":
        data = "\ufeff".encode() + data
    elif fault == "not-utf8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xe9", b"\x80"])) + data[at:]
    return data


@st.composite
def invocations(draw):
    """The arguments of one CLI call, without ``--out``, its fleet file's
    bytes or None, and the fault in that file or None."""
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
        return argv, None, None
    # a fleet whose minimums may be positive, which only one bus can clear
    rows = [FLEET_HEADER]
    huge = ["1e308"] if "fleet" in edgy else []
    for i in range(draw(st.integers(1, 4))):
        p_min = draw(st.sampled_from(["0", "0", "5", "50"]))
        p_max = draw(st.sampled_from(["60", "200", "400", *huge]))
        costs = [draw(st.sampled_from(["0", "10", *huge])) for _ in range(3)]
        rows.append(",".join([f"u{i}", draw(number("fleet", 1.0, 100.0)), p_min,
                              p_max, p_max, p_max, *costs]))
    fault = draw(st.sampled_from([None] * 3 + list(FLEET_FAULTS)))
    return argv, with_fault(draw, rows, fault), fault


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
    argv, fleet, fault = invocation
    with tempfile.TemporaryDirectory() as work:
        if fleet is not None:
            path = Path(work) / "fleet.csv"
            path.write_bytes(fleet)
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
    if fault not in (None, "bom"):
        assert code == 2, (fault, stderr)
