"""Scenario generation: determinism, bounds, and sample construction."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import gridclear
from gridclear import (ConfigurationError, EmpiricalSample, ScenarioConfig,
                       ScenarioSet, aggregate_net_load, committed_upper_bound,
                       cvar_direct, generate_scenarios, net_load, suffix_net_load)
from gridclear import scenarios
from gridclear.scenarios import build_levels, draw_loads


def make_config(**overrides):
    base = dict(
        n_buses=3, horizon=2, n_scenarios=16, seed=5,
        load_mean=np.full((3, 2), 100.0),
        load_std=np.full((3, 2), 8.0),
        renewable_capacity=np.array([120.0, 90.0, 60.0]),
        penetration=0.4, uncertainty_growth=0.2,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def manual_set(load, renewable, probs=None):
    load = np.asarray(load, dtype=float)
    renewable = np.asarray(renewable, dtype=float)
    if probs is None:
        probs = np.full(load.shape[2], 1.0 / load.shape[2])
    return ScenarioSet(np.asarray(probs, dtype=float), load, renewable)


def test_zero_capacity_gives_zero_renewables():
    cfg = make_config(renewable_capacity=np.zeros(3), penetration=0.0)
    ss = generate_scenarios(cfg)
    assert np.all(ss.renewable == 0.0)
    sample = net_load(ss, 0, 0)
    direct = EmpiricalSample.from_arrays(ss.load[0, 0, :], ss.probabilities)
    assert np.allclose(sample.values, direct.values)


def test_zero_penetration_gives_zero_renewables():
    ss = generate_scenarios(make_config(penetration=0.0))
    assert np.all(ss.renewable == 0.0)


def test_same_seed_bit_identical():
    a = generate_scenarios(make_config())
    b = generate_scenarios(make_config())
    assert np.array_equal(a.load, b.load)
    assert np.array_equal(a.renewable, b.renewable)
    assert np.array_equal(a.probabilities, b.probabilities)


def test_different_seed_differs():
    a = generate_scenarios(make_config())
    b = generate_scenarios(make_config(seed=6))
    assert not np.array_equal(a.load, b.load)


def test_capacity_bound_holds():
    ss = generate_scenarios(make_config(penetration=0.8, uncertainty_growth=0.45))
    cap = make_config().renewable_capacity
    assert np.all(ss.renewable >= 0.0)
    assert np.all(ss.renewable <= cap[:, None, None] + 1e-12)


def test_loads_nonnegative():
    ss = generate_scenarios(make_config(load_std=np.full((3, 2), 80.0)))
    assert np.all(ss.load >= 0.0)


def test_infeasible_penetration_names_hour():
    # the share is system-wide, so the error names the first infeasible hour
    mean = np.array([[10.0, 100.0]] * 3)  # hour 0 target 60 fits, hour 1's 600 does not
    cfg = make_config(load_mean=mean, penetration=2.0)
    with pytest.raises(ConfigurationError, match=r"^hour 1: required system-wide mean share"):
        generate_scenarios(cfg)


def test_positive_penetration_without_capacity_errors():
    cfg = make_config(renewable_capacity=np.zeros(3), penetration=0.3)
    with pytest.raises(ConfigurationError, match=r"^hour 0: penetration 0.3 needs mean "
                                                 r"renewable output 90.000 MW"):
        generate_scenarios(cfg)


def test_mean_share_matches_penetration():
    cfg = make_config(n_scenarios=4000, penetration=0.5, uncertainty_growth=0.15)
    ss = generate_scenarios(cfg)
    for t in range(cfg.horizon):
        target = 0.5 * cfg.load_mean[:, t].sum()
        got = ss.renewable[:, t, :].sum(axis=0).mean()
        assert got == pytest.approx(target, rel=0.03)


# -- the load half and the renewable half ---------------------------------


def test_levels_built_on_one_load_draw_equal_separate_draws():
    # one draw_loads serves every penetration level, bit for bit
    draws = draw_loads(make_config(penetration=0.0))
    penetrations = (0.0, 0.4, 0.8)
    cap = make_config().renewable_capacity
    levels = build_levels(draws, penetrations, [cap] * len(penetrations), 0.2)
    for level, penetration in enumerate(penetrations):
        alone = generate_scenarios(make_config(penetration=penetration))
        assert levels.errors[level] is None
        assert np.array_equal(draws.load, alone.load)
        assert np.array_equal(levels.renewable(level), alone.renewable)


@pytest.mark.parametrize("name", ["probabilities", "load", "renewable"])
def test_scenario_set_arrays_are_read_only(name):
    caller = dict(load=np.full((2, 1, 2), 50.0), renewable=np.full((2, 1, 2), 5.0),
                  probs=np.array([0.5, 0.5]))
    for sset in (generate_scenarios(make_config()), manual_set(**caller)):
        with pytest.raises(ValueError, match="read-only"):
            getattr(sset, name)[0] = 1.0
    # the caller's own arrays stay writable
    assert all(a.flags.writeable for a in caller.values())


def test_load_draws_are_read_only():
    draws = draw_loads(make_config())
    for array in (draws.load, draws.u_weather):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


# -- net load sample construction -------------------------------------------


def test_net_load_single_scenario_point_mass():
    ss = manual_set(load=[[[100.0]]], renewable=[[[30.0]]])
    s = net_load(ss, 0, 0)
    assert s.points == [(70.0, 1.0)]


def test_net_load_two_scenarios():
    ss = manual_set(load=[[[60.0, 80.0]]], renewable=[[[10.0, 10.0]]])
    s = net_load(ss, 0, 0)
    assert s.points == [(50.0, 0.5), (70.0, 0.5)]


def test_net_load_keeps_negative_values():
    ss = manual_set(load=[[[100.0]]], renewable=[[[120.0]]])
    s = net_load(ss, 0, 0)
    assert s.points == [(-20.0, 1.0)]


def test_net_load_index_errors():
    ss = manual_set(load=[[[1.0]]], renewable=[[[0.0]]])
    with pytest.raises(IndexError):
        net_load(ss, 1, 0)
    with pytest.raises(IndexError):
        aggregate_net_load(ss, 2)


def test_aggregate_single_bus_equals_net_load():
    ss = generate_scenarios(make_config(n_buses=1, load_mean=np.full((1, 2), 50.0),
                                        load_std=np.full((1, 2), 5.0),
                                        renewable_capacity=np.array([40.0])))
    a = aggregate_net_load(ss, 1)
    b = net_load(ss, 0, 1)
    assert np.allclose(a.values, b.values)


def test_aggregate_two_buses_one_scenario():
    ss = manual_set(load=[[[70.0]], [[50.0]]], renewable=[[[10.0]], [[10.0]]])
    assert aggregate_net_load(ss, 0).points == [(100.0, 1.0)]


def test_aggregate_three_equiprobable():
    load = np.array([[[50.0, 55.0, 60.0]], [[40.0, 45.0, 50.0]]])
    ss = manual_set(load=load, renewable=np.zeros_like(load))
    s = aggregate_net_load(ss, 0)
    assert s.points == [(90.0, pytest.approx(1 / 3)), (100.0, pytest.approx(1 / 3)),
                        (110.0, pytest.approx(1 / 3))]


def test_aggregate_is_scenario_wise_sum():
    ss = generate_scenarios(make_config(n_scenarios=10))
    for t in range(2):
        agg = aggregate_net_load(ss, t)
        per_k = np.zeros(10)
        for i in range(3):
            per_k += ss.load[i, t, :] - ss.renewable[i, t, :]
        manual = EmpiricalSample.from_arrays(per_k, ss.probabilities)
        assert np.allclose(agg.values, manual.values)
        assert np.allclose(agg.probabilities, manual.probabilities)


def test_suffix_net_load_matches_manual_sum():
    ss = generate_scenarios(make_config(n_scenarios=6))
    tail = suffix_net_load(ss, 1, 0)
    manual = (ss.load[1:, 0, :] - ss.renewable[1:, 0, :]).sum(axis=0)
    assert np.allclose(np.sort(manual), tail.values)


def test_penetration_weakly_decreases_mean_net_load():
    # fixed seed gives common random numbers across penetration levels
    means = []
    for pen in (0.0, 0.2, 0.4, 0.6, 0.8):
        ss = generate_scenarios(make_config(n_scenarios=400, penetration=pen,
                                            uncertainty_growth=0.2))
        net = (ss.load - ss.renewable).sum(axis=0)
        means.append(net.mean())
    assert all(b <= a + 1e-9 for a, b in zip(means, means[1:]))


def test_subadditivity_gap_nonnegative_on_generated_sets():
    rng = np.random.default_rng(17)
    for _ in range(30):
        cfg = make_config(seed=int(rng.integers(1_000_000)),
                          penetration=float(rng.uniform(0.0, 0.8)),
                          uncertainty_growth=float(rng.uniform(0.0, 0.4)))
        ss = generate_scenarios(cfg)
        alpha = float(rng.uniform(0.05, 0.95))
        per_bus = [net_load(ss, i, 0) for i in range(cfg.n_buses)]
        joint = aggregate_net_load(ss, 0)
        _, gap = committed_upper_bound([cvar_direct(s, alpha) for s in per_bus],
                                       cvar_direct(joint, alpha))
        assert gap >= -1e-9


def test_cli_import_leaves_scipy_stats_unloaded():
    # importing scipy.stats was most of a fresh CLI start; the draws need only
    # scipy.special, and no run needs a general solver from scipy.optimize
    src = str(Path(gridclear.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, gridclear.cli\n"
            "from gridclear import RunConfig, run_grid\n"
            "for limit in (None, 80.0):\n"
            "    run_grid(RunConfig(alphas=(0.9,), penetrations=(0.0, 0.5), n_scenarios=20,\n"
            "                       horizon=2, line_limit=limit, "
            "load_mean_per_bus=(150.0, 75.0, 45.0)))\n"
            "print(sorted({'scipy.stats', 'scipy.optimize'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def fresh_python(code, *args):
    """Run ``python -W error -c code *args`` on this checkout; its completed process."""
    src = str(Path(gridclear.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-W", "error", "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True)


def test_cli_import_leaves_the_special_package_init_unloaded():
    # the draws need only the compiled ufuncs; scipy.special's package init
    # brings an array-API layer that loads numpy.f2py, numpy.testing and
    # unittest.  A later real import runs that init and gets the same ufuncs,
    # and so does a reload of scenarios
    code = ("import importlib, sys, gridclear.cli\n"
            "from gridclear import scenarios\n"
            "print(sorted({'scipy.special._support_alternative_backends',\n"
            "              'scipy._lib._array_api', 'numpy.f2py', 'numpy.testing',\n"
            "              'unittest'} & set(sys.modules)))\n"
            "names = ('betaincinv', 'ndtri_exp', 'ndtr', 'log_ndtr', 'log1p')\n"
            "loaded = [getattr(scenarios.special, name) for name in names]\n"
            "import scipy.special\n"
            "print(scipy.special.gamma(5.0), scenarios.special is scipy.special)\n"
            "print([getattr(scipy.special, name) is f for name, f in zip(names, loaded)])\n"
            "importlib.reload(scenarios)\n"
            "print([getattr(scenarios.special, name) is f for name, f in zip(names, loaded)])\n")
    out = fresh_python(code).stdout.splitlines()
    assert out == ["[]", "24.0 False", str([True] * 5), str([True] * 5)]


# the three ways scenarios finds its ufuncs: under the package stub, from a
# scipy.special imported before it, and through the fallback to the real
# package when loading under the stub fails
NO_UFUNCS_UNDER_STUB = """
import sys

class NoUfuncsUnderStub:
    def find_spec(self, name, path=None, target=None):
        package = sys.modules.get("scipy.special")
        if name == "scipy.special._ufuncs" and not hasattr(package, "__file__"):
            raise ImportError("no scipy.special._ufuncs under the stub")
        return None

sys.meta_path.insert(0, NoUfuncsUnderStub())
"""
LOADERS = {"stub": ("", "scipy.special._ufuncs"),
           "imported": ("import scipy.special\n", "scipy.special"),
           "fallback": (NO_UFUNCS_UNDER_STUB, "scipy.special")}


@pytest.mark.parametrize("extra", [(), ("--line-limit", "80", "--load-mean", "150,75,45")],
                         ids=["bus", "feeder"])
def test_settle_writes_the_same_bytes_whichever_way_the_ufuncs_load(tmp_path, extra):
    runs = {}
    for way, (preamble, module) in LOADERS.items():
        code = (preamble + "import sys\nfrom gridclear import cli, scenarios\n"
                "print(scenarios.special.__name__)\ncli.main(sys.argv[1:])\n")
        proc = fresh_python(code, "settle", "--horizon", "24", "--scenarios", "200",
                            "--seed", "7", *extra, "--out", str(tmp_path))
        loaded, _, stdout = proc.stdout.partition("\n")
        assert loaded == module
        runs[way] = (stdout, proc.stderr, (tmp_path / "settlement.csv").read_bytes())
    assert runs["imported"] == runs["stub"]
    assert runs["fallback"] == runs["stub"]


def test_special_error_actions_work_after_the_stub_load():
    # seterr, and so errstate, reads scipy.special._special_ufuncs, which was
    # loaded under the stub; the real package still holds it as an attribute
    code = ("import gridclear.cli\n"
            "import scipy.special as sc\n"
            "with sc.errstate(domain='raise'):\n"
            "    try:\n"
            "        sc.betaincinv(-1.0, 2.0, 0.5)\n"
            "    except sc.SpecialFunctionError as exc:\n"
            "        print(type(exc).__name__)\n"
            "print(sc.geterr()['domain'], sc._special_ufuncs.__name__)\n")
    out = fresh_python(code).stdout.splitlines()
    assert out == ["SpecialFunctionError", "ignore scipy.special._special_ufuncs"]


# -- the Beta quantile's call split into row blocks on threads ------------


class CountingThread(threading.Thread):
    started = 0

    def start(self):
        type(self).started += 1
        super().start()


@pytest.fixture
def thread_starts(monkeypatch):
    """The number of threads started, read as ``thread_starts()``."""
    monkeypatch.setattr(CountingThread, "started", 0)
    monkeypatch.setattr(threading, "Thread", CountingThread)
    return lambda: CountingThread.started


def beta_arguments(rows, k, seed=0):
    """(rows, 1) Beta shapes, as build_levels passes them, and (rows, k) uniforms."""
    rng = np.random.default_rng(seed)
    a, b = np.exp(rng.uniform(-3.0, 4.0, (2, rows, 1)))
    u = rng.random((rows, k))
    u[:, 0] = 0.0
    return a, b, u


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


MIN = scenarios._SPLIT_MIN


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("rows,k", [
    (23, 89), (32, 64), (683, 3),     # MIN - 1, MIN and MIN + 1 elements
    (2, 1500),                        # fewer rows than three workers
    (7, 400),                         # rows that two or three workers do not divide
    (1, 3 * MIN),                     # one row is one call
])
def test_split_rows_equals_one_call(rows, k, workers, monkeypatch, thread_starts):
    assert (23 * 89, 32 * 64, 683 * 3) == (MIN - 1, MIN, MIN + 1)
    monkeypatch.setattr(scenarios, "_workers", lambda: workers)
    a, b, u = beta_arguments(rows, k)
    want = scenarios.special.betaincinv(a, b, u)
    got = scenarios._split_rows(scenarios.special.betaincinv, a, b, u)
    assert same_bits(got, want)
    assert thread_starts() == (min(workers, rows) - 1 if rows * k >= MIN else 0)


def test_split_rows_broadcasts_one_row_of_shapes(monkeypatch, thread_starts):
    # (1, 1) shapes against (R, K) uniforms, and scalar shapes
    monkeypatch.setattr(scenarios, "_workers", lambda: 2)
    a, b, u = beta_arguments(40, 100)
    for shapes in ((a[:1], b[:1]), (float(a[0, 0]), float(b[0, 0]))):
        want = scenarios.special.betaincinv(*shapes, u)
        assert same_bits(scenarios._split_rows(scenarios.special.betaincinv, *shapes, u), want)
    assert thread_starts() == 2


def test_split_rows_with_more_threads_than_cpus_and_frequent_switches(monkeypatch):
    # every thread writes its own rows of one output and its own error slot;
    # a lost or misplaced write would change the bits
    workers = (os.cpu_count() or 1) + 1
    monkeypatch.setattr(scenarios, "_workers", lambda: workers)
    a, b, u = beta_arguments(3 * workers, MIN // workers + 1, seed=1)
    want = scenarios.special.betaincinv(a, b, u)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            assert same_bits(scenarios._split_rows(scenarios.special.betaincinv, a, b, u), want)
    finally:
        sys.setswitchinterval(interval)


def test_split_rows_carries_the_special_error_actions(monkeypatch):
    # a negative Beta shape is a domain error; it lies in the last block
    monkeypatch.setattr(scenarios, "_workers", lambda: 3)
    a, b, u = beta_arguments(30, 100)
    a[-1] = -1.0
    with np.errstate(invalid="raise"), special.errstate(all="raise"):
        with pytest.raises(special.SpecialFunctionError) as one:
            scenarios.special.betaincinv(a, b, u)
        with pytest.raises(special.SpecialFunctionError) as split:
            scenarios._split_rows(scenarios.special.betaincinv, a, b, u)
    assert str(split.value) == str(one.value)
    # scipy's default ignores it, in the caller and in the threads alike
    got = scenarios._split_rows(scenarios.special.betaincinv, a, b, u)
    assert same_bits(got, scenarios.special.betaincinv(a, b, u))
    assert np.isnan(got[-1]).all()


@pytest.mark.parametrize("action,error", [("raise", FloatingPointError),
                                          ("ignore", None)])
def test_split_rows_carries_numpy_error_state(action, error, monkeypatch):
    # numpy's error state lives in a context variable that a new thread does
    # not inherit; with its default "warn", the warnings filter of the test
    # run would turn a worker's invalid value into a RuntimeWarning error
    monkeypatch.setattr(scenarios, "_workers", lambda: 2)
    x = np.ones((10, MIN))
    x[-1, -1] = -1.0
    with np.errstate(invalid=action):
        if error is None:
            got = scenarios._split_rows(np.sqrt, x)
            assert same_bits(got, np.sqrt(x))
        else:
            with pytest.raises(error):
                np.sqrt(x)
            with pytest.raises(error):
                scenarios._split_rows(np.sqrt, x)


def fail_in(blocks):
    """A ufunc stand-in that raises in the named blocks: "caller" and "thread"."""
    def ufunc(x, out):
        where = "caller" if threading.current_thread() is threading.main_thread() else "thread"
        if where in blocks:
            raise {"caller": ValueError, "thread": LookupError}[where](where)
        out[...] = x
    return ufunc


@pytest.mark.parametrize("blocks,error", [((), None), (("thread",), LookupError),
                                          (("caller", "thread"), ValueError)])
def test_split_rows_raises_the_first_failing_block_in_the_caller(blocks, error, monkeypatch,
                                                                 thread_starts):
    monkeypatch.setattr(scenarios, "_workers", lambda: 3)
    unhandled = []
    monkeypatch.setattr(threading, "excepthook", unhandled.append)
    before = threading.active_count()
    x = np.arange(3.0 * MIN).reshape(6, -1)
    if error is None:
        assert same_bits(scenarios._split_rows(fail_in(blocks), x), x)
    else:
        with pytest.raises(error, match=blocks[0]):
            scenarios._split_rows(fail_in(blocks), x)
    assert thread_starts() == 2
    assert unhandled == []
    assert threading.active_count() == before


def test_worker_count_is_the_affinity_count_capped(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert scenarios._workers() == min(3, scenarios._MAX_WORKERS)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    assert scenarios._workers() == scenarios._MAX_WORKERS
    # without affinity, the CPU count; an unknown count is one worker
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert scenarios._workers() == scenarios._MAX_WORKERS
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert scenarios._workers() == 1


def test_one_cpu_starts_no_thread(monkeypatch, thread_starts):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    cfg = make_config(horizon=24, n_scenarios=1000, load_mean=np.full((3, 24), 100.0),
                      load_std=np.full((3, 24), 8.0))
    assert cfg.horizon * cfg.n_scenarios >= MIN
    generate_scenarios(cfg)
    assert thread_starts() == 0
