"""Measurement core of the gridclear benchmark.

Each workload is one ``gridclear`` CLI command (see ``workloads.json``).
One client runs it in a closed loop: the next repetition starts when the
previous one has returned and its CSV is closed.  The package is imported
from ``src/`` of the checkout that holds this directory.

End-to-end mode (``trace=False``) reports, with tracing off:

- ``setup_s``: median time of fresh interpreters that import
  ``gridclear.cli`` and exit;
- ``run_s``: median warm time of one CLI call in this process, from argv
  until the CSV is closed, import excluded;
- ``scenario_hours_per_s``: grid points x K x T over ``run_s``;
- ``peak_rss_mb``: peak resident set of a fresh ``python -m gridclear.cli``
  process that runs the workload once;
- ``success_frac``: repetitions whose exit was clean and whose CSV bytes
  passed the output gate, over repetitions attempted.

``setup_s`` and ``run_s`` are wall times scaled to a reference host speed.
On the shared 2-vCPU host the benchmark was defined on, the CPU's speed
drifts by up to 1.8x over tens of seconds, so the raw medians of 30-second
runs spread by 0.16-0.28 (interquartile range over median) between runs.
Each timed sample is therefore bracketed by a fixed speed probe
(``calibrate``) and multiplied by ``CAL_REFERENCE_S`` over the probes' mean
time (``at_reference_speed``), which cuts that spread to 0.03-0.09.  The
raw wall times and probe times of every sample are kept in the run report.

Traced mode (``trace=True``) alternates untraced and traced repetitions and
reports the per-layer metrics that ``Tracer`` collects at the package's
module boundaries, plus the tracing overhead.
"""

from __future__ import annotations

import os

# pinned before numpy is imported, here and in every child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import hashlib
import io
import json
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracer import Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SPEC = json.loads((HERE / "workloads.json").read_text())
REFERENCE_SEED = SPEC["reference_seed"]

# the layers are the modules of src/gridclear/ that a CLI command reaches
MODULES = ("scenarios", "risk", "merit_order", "congestion", "settlement", "experiment", "cli")
HOT_CALLS = ("merit_order.commit", "congestion.dispatch_radial")
HOT_BUSY = ("scenarios.generate_scenarios", "settlement.curtail_and_pay_renewables",
            "experiment.emit_csv")
ROOT_SPAN = "cli.main"

SETUP_SAMPLES = 7
# speed probe (``calibrate``): it took 0.012-0.022 s on the 2-vCPU Intel Xeon
# host (Python 3.11) the benchmark was defined on; CAL_REFERENCE_S, a round
# figure in that range, only sets the scale of the reported times
CAL_NUMPY_LOOPS = 2_000
CAL_INT_LOOPS = 150_000
CAL_REFERENCE_S = 0.015
MIN_REPS = 3
CHILD_TIMEOUT_S = 120.0


class SetupError(RuntimeError):
    """The benchmark cannot run here (no source tree, or the package fails to import)."""


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    csv: str
    header: str
    grid_points: int
    scenarios_K: int
    horizon_T: int
    buses: int
    reference_sha256: str

    @property
    def scenario_hours(self) -> int:
        return self.grid_points * self.scenarios_K * self.horizon_T

    def args(self, seed: int, out_dir: Path) -> list[str]:
        return [*self.argv, "--seed", str(seed), "--out", str(out_dir)]


def load_workload(name: str) -> Workload:
    try:
        w = SPEC["workloads"][name]
    except KeyError:
        raise SetupError(f"unknown workload {name!r}; choose from "
                         f"{', '.join(SPEC['workloads'])}") from None
    return Workload(name, tuple(w["argv"]), w["csv"], w["header"], w["grid_points"],
                    w["scenarios_K"], w["horizon_T"], w["buses"],
                    w["sha256_reference_seed"])


def import_cli():
    """Import ``gridclear.cli`` from the checkout's source tree."""
    if not (SRC / "gridclear" / "cli.py").is_file():
        raise SetupError(f"no gridclear source tree at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        from gridclear import cli
    except ImportError as exc:
        raise SetupError(f"cannot import gridclear.cli: {exc}") from exc
    return cli


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class OutputGate:
    """Checks the CSV bytes of every repetition.

    At the reference seed the bytes must hash to the recorded digest.  At any
    other seed there is no recorded digest, so the first repetition's digest
    is printed for diffing across commits and every later repetition must
    match it.  The header must always be the recorded one.
    """

    def __init__(self, workload: Workload, seed: int):
        self.header = workload.header
        self.expected = workload.reference_sha256 if seed == REFERENCE_SEED else None
        self.observed: str | None = None

    def check(self, data: bytes | None) -> str | None:
        """Return why ``data`` fails the gate, or None when it passes."""
        if data is None:
            return "no CSV written"
        if data.split(b"\n", 1)[0].decode("utf-8", "replace") != self.header:
            return "CSV header differs from the recorded one"
        digest = sha256(data)
        if self.observed is None:
            self.observed = digest
        if self.expected is not None and digest != self.expected:
            return f"CSV sha256 {digest} differs from recorded {self.expected}"
        if digest != self.observed:
            return f"CSV sha256 {digest} differs from first repetition {self.observed}"
        return None


@dataclass
class Rep:
    seconds: float
    data: bytes | None
    error: str | None


def run_in_process(main, args: list[str], csv_path: Path, tracer: Tracer | None = None) -> Rep:
    """One CLI call in this process; stdout and stderr (``note:`` lines) are discarded."""
    csv_path.unlink(missing_ok=True)
    error = None
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            if tracer is None:
                main(args, standalone_mode=False)
            else:
                tracer.call(ROOT_SPAN, main, args, standalone_mode=False)
        except SystemExit as exc:
            if exc.code not in (0, None):
                error = f"exit code {exc.code}"
        except Exception as exc:  # a failed repetition is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    data = csv_path.read_bytes() if csv_path.is_file() else None
    return Rep(seconds, data, error)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_fresh(argv: list[str]) -> tuple[float, float, int]:
    """Run ``python <argv>`` in a fresh interpreter: (wall s, peak RSS MB, exit code)."""
    env = child_env()
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, *argv], env=env, cwd=ROOT,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL) as proc:
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def setup_sample() -> float:
    """Wall time of one fresh interpreter that imports gridclear.cli and exits."""
    wall, _, code = run_fresh(["-c", "import gridclear.cli"])
    if code != 0:
        raise SetupError(f"fresh interpreter failed to import gridclear.cli (exit {code})")
    return wall


def calibrate() -> float:
    """Wall time of a fixed probe of the host's current speed.

    The probe mixes what the workloads spend their time on (small numpy
    calls, dict updates, integer arithmetic in the interpreter), so that it
    slows down with them when the host is contended.
    """
    start = time.perf_counter()
    a = np.arange(7.0)
    acc, table = 0.0, {}
    for i in range(CAL_NUMPY_LOOPS):
        acc += float(np.cumsum(a)[-1])
        table[i & 63] = acc
    n = 0
    for i in range(CAL_INT_LOOPS):
        n += i * i
    return time.perf_counter() - start


def at_reference_speed(wall: float, cal: float) -> float:
    """Scale a wall time measured when the probe took ``cal`` to the reference speed."""
    return wall * CAL_REFERENCE_S / cal


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def environment() -> dict:
    import scipy
    from importlib.metadata import version

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "click": version("click"),
        "threads_pinned": {v: os.environ[v] for v in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the package sources, identifying the code when no commit is known."""
    h = hashlib.sha256()
    for path in sorted((SRC / "gridclear").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


class Tally:
    """Attempted and failed repetitions, with the reason of each failure."""

    def __init__(self, gate: OutputGate):
        self.gate = gate
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, error: str | None, data: bytes | None) -> bool:
        self.attempted += 1
        reason = error or self.gate.check(data)
        if reason:
            self.failures.append(reason)
        return reason is None


def measure_end_to_end(workload: Workload, seed: int, seconds: float) -> dict:
    out_dir = OUT / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    tally = Tally(OutputGate(workload, seed))

    setup_sample()  # untimed: writes the bytecode caches of a fresh checkout

    fresh_dir = out_dir / "fresh"
    fresh_dir.mkdir(exist_ok=True)
    fresh_csv = fresh_dir / workload.csv
    fresh_csv.unlink(missing_ok=True)
    fresh_wall, rss_mb, code = run_fresh(["-m", "gridclear.cli",
                                          *workload.args(seed, fresh_dir)])
    tally.record(f"exit code {code}" if code else None,
                 fresh_csv.read_bytes() if fresh_csv.is_file() else None)

    main = import_cli().main
    args = workload.args(seed, out_dir)
    csv_path = out_dir / workload.csv
    warm_up = run_in_process(main, args, csv_path)
    tally.record(warm_up.error, warm_up.data)

    # set-up samples are spread evenly over the window the warm repetitions
    # cover; each timed sample is scaled by the mean of the speed probes run
    # just before and just after it
    setup, setup_cal, times, cal, ok = [], [], [], [], []
    before = calibrate()
    start = time.perf_counter()
    while (len(times) < MIN_REPS or len(setup) < SETUP_SAMPLES
           or time.perf_counter() < start + seconds):
        if (len(setup) < SETUP_SAMPLES
                and time.perf_counter() >= start + seconds * len(setup) / SETUP_SAMPLES):
            setup.append(setup_sample())
            after = calibrate()
            setup_cal.append((before + after) / 2)
        else:
            rep = run_in_process(main, args, csv_path)
            after = calibrate()
            times.append(rep.seconds)
            cal.append((before + after) / 2)
            ok.append(tally.record(rep.error, rep.data))
        before = after

    # a failed repetition's time is used only when no repetition succeeded
    if any(ok):
        times, cal = ([x for x, good in zip(v, ok) if good] for v in (times, cal))
    setup_s = statistics.median(map(at_reference_speed, setup, setup_cal))
    run_s = statistics.median(map(at_reference_speed, times, cal))
    metrics = {
        "setup_s": (setup_s, "s"),
        "run_s": (run_s, "s"),
        "scenario_hours_per_s": (workload.scenario_hours / run_s, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "success_frac": ((tally.attempted - len(tally.failures)) / tally.attempted, "frac"),
    }
    samples = {"setup_wall_s": setup, "setup_probe_s": setup_cal, "run_wall_s": times,
               "run_probe_s": cal, "fresh_run_wall_s": [fresh_wall]}
    return {"metrics": metrics, "samples": samples, "tally": tally}


def _layer_metrics(workload: Workload, summary: dict, counters, csv_rows: int) -> dict:
    """Counts of one traced repetition; times are filled in from medians by the caller."""
    mods, names = summary["modules"], summary["names"]
    m = {}
    for mod in MODULES:
        s = mods.get(mod, {})
        m[f"{mod}.calls"] = s.get("calls", 0)
        m[f"{mod}.errors"] = s.get("errors", 0)
    for name in HOT_CALLS:
        m[f"{name}.calls"] = names.get(name, {}).get("calls", 0)
    redispatch = sum(m[f"{name}.calls"] for name in HOT_CALLS)
    m["redispatch.calls_per_scenario_hour"] = redispatch / workload.scenario_hours
    m["scenarios.draws"] = counters.get("scenarios.draws", 0)
    m["scenarios.ppf_calls"] = counters.get("scenarios.ppf_calls", 0)
    m["scenarios.bytes_out"] = counters.get("scenarios.bytes_out", 0)
    m["settlement.violations"] = counters.get("settlement.violations", 0)
    m["experiment.points_skipped"] = workload.grid_points - csv_rows
    return m


def _layer_times(summary: dict) -> dict:
    mods, names = summary["modules"], summary["names"]
    wall = summary["wall_ns"]
    t = {}
    for mod in MODULES:
        s = mods.get(mod, {})
        t[f"{mod}.busy_s"] = s.get("busy_ns", 0) / 1e9
        t[f"{mod}.self_s"] = s.get("self_ns", 0) / 1e9
        t[f"{mod}.share"] = s.get("busy_ns", 0) / wall if wall else 0.0
    for name in HOT_BUSY:
        t[f"{name}.busy_s"] = names.get(name, {}).get("busy_ns", 0) / 1e9
    return t


LAYER_UNITS = {"calls": "count", "errors": "count", "busy_s": "s", "self_s": "s",
               "share": "frac", "draws": "count", "ppf_calls": "count", "bytes_out": "B",
               "violations": "count", "points_skipped": "count",
               "calls_per_scenario_hour": "ratio", "overhead_s": "s", "spans": "count"}


def layer_unit(name: str) -> str:
    if name.startswith("work."):
        return "count"
    return LAYER_UNITS[name.rsplit(".", 1)[1]]


def measure_layers(workload: Workload, seed: int, seconds: float) -> dict:
    out_dir = OUT / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    tally = Tally(OutputGate(workload, seed))
    main = import_cli().main
    args = workload.args(seed, out_dir)
    csv_path = out_dir / workload.csv
    warm_up = run_in_process(main, args, csv_path)
    tally.record(warm_up.error, warm_up.data)

    tracer = Tracer("gridclear")
    untraced, traced, counts, times = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_REPS or time.perf_counter() < deadline:
        rep = run_in_process(main, args, csv_path)
        tally.record(rep.error, rep.data)
        untraced.append(rep.seconds)

        run_id = tracer.new_run()
        tracer.install()
        try:
            rep = run_in_process(main, args, csv_path, tracer)
        finally:
            tracer.remove()
        tally.record(rep.error, rep.data)
        traced.append(rep.seconds)
        summary = summarize(tracer.spans, run_id)
        rows = rep.data.count(b"\n") - 1 if rep.data else 0
        counts.append(_layer_metrics(workload, summary, tracer.counters_by_run[run_id], rows))
        times.append(_layer_times(summary))

    problems = []
    if any(c != counts[0] for c in counts[1:]):
        problems.append("per-layer counts differ between traced repetitions")
    metrics = {k: (v, layer_unit(k)) for k, v in counts[0].items()}
    for key in times[0]:
        metrics[key] = (statistics.median(t[key] for t in times), layer_unit(key))
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    metrics["trace.spans"] = (len(tracer.spans) // len(traced), "count")
    metrics["work.grid_points"] = (workload.grid_points, "count")
    metrics["work.scenarios_K"] = (workload.scenarios_K, "count")
    metrics["work.horizon_T"] = (workload.horizon_T, "count")
    metrics["work.buses"] = (workload.buses, "count")
    metrics["work.scenario_hours"] = (workload.scenario_hours, "count")

    tracer.write_csv(OUT / f"spans-{workload.name}.csv")
    samples = {"run_s_untraced": untraced, "run_s_traced": traced}
    return {"metrics": metrics, "samples": samples, "tally": tally, "problems": problems}


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, full report)."""
    workload = load_workload(workload_name)
    import_cli()
    OUT.mkdir(exist_ok=True)
    measured = (measure_layers if trace else measure_end_to_end)(workload, seed, seconds)
    tally = measured["tally"]
    problems = measured.get("problems", [])
    result = {
        "correct": not tally.failures and not problems,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in measured["metrics"].items()},
    }
    report = {
        "workload": workload.name,
        "argv": workload.args(seed, (OUT / workload.name).relative_to(ROOT)),
        "seed": seed,
        "trace": trace,
        "csv_sha256": tally.gate.observed,
        "csv_sha256_recorded": tally.gate.expected,
        "failures": tally.failures,
        "problems": problems,
        "environment": environment(),
        "samples": measured["samples"],
        "result": result,
    }
    return result, report
