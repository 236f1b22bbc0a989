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
import oracles
from gridclear import ConfigurationError, ScenarioConfig, cvar_rows
from gridclear import scenarios
from gridclear.scenarios import draw_and_build

CAPACITY = np.array([120.0, 90.0, 60.0])


def make_config(**overrides):
    base = dict(
        n_buses=3, horizon=2, n_scenarios=16, seed=5,
        load_mean=np.full((3, 2), 100.0),
        load_std=np.full((3, 2), 8.0),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def generate(config=None, penetration=0.4, capacity=CAPACITY, growth=0.2):
    """One level's (load, renewable, probabilities) on ``config``."""
    return oracles.level_arrays(config or make_config(), penetration, capacity, growth)


def net_load_points(load, renewable, buses, time=0):
    """The reference's atoms of the net load summed over ``buses`` in hour
    ``time``, its K scenarios equiprobable, as (value, probability) pairs."""
    load, renewable = np.asarray(load, dtype=float), np.asarray(renewable, dtype=float)
    k = load.shape[2]
    values = (load[buses, time] - renewable[buses, time]).reshape(-1, k).sum(axis=0)
    return list(zip(*(a.tolist() for a in oracles.atoms(values, np.full(k, 1.0 / k)))))


def test_zero_capacity_gives_zero_renewables():
    load, renewable, probs = generate(capacity=np.zeros(3), penetration=0.0)
    assert np.all(renewable == 0.0)
    sample = oracles.atoms(load[0, 0] - renewable[0, 0], probs)
    direct = oracles.atoms(load[0, 0], probs)
    assert np.allclose(sample[0], direct[0])


def test_zero_penetration_gives_zero_renewables():
    _, renewable, _ = generate(penetration=0.0)
    assert np.all(renewable == 0.0)


def test_same_seed_bit_identical():
    for a, b in zip(generate(), generate()):
        assert np.array_equal(a, b)


def test_different_seed_differs():
    a = generate()
    b = generate(make_config(seed=6))
    assert not np.array_equal(a[0], b[0])


def test_capacity_bound_holds():
    _, renewable, _ = generate(penetration=0.8, growth=0.45)
    assert np.all(renewable >= 0.0)
    assert np.all(renewable <= CAPACITY[:, None, None] + 1e-12)


def test_loads_nonnegative():
    load, _, _ = generate(make_config(load_std=np.full((3, 2), 80.0)))
    assert np.all(load >= 0.0)


def test_infeasible_penetration_names_hour():
    # the share is system-wide, so the error names the first infeasible hour
    mean = np.array([[10.0, 100.0]] * 3)  # hour 0 target 60 fits, hour 1's 600 does not
    with pytest.raises(ConfigurationError, match=r"^hour 1: required system-wide mean share"):
        generate(make_config(load_mean=mean), penetration=2.0)


def test_positive_penetration_without_capacity_errors():
    with pytest.raises(ConfigurationError, match=r"^hour 0: penetration 0.3 needs mean "
                                                 r"renewable output 90.000 MW"):
        generate(capacity=np.zeros(3), penetration=0.3)


def test_mean_share_matches_penetration():
    cfg = make_config(n_scenarios=4000)
    _, renewable, _ = generate(cfg, penetration=0.5, growth=0.15)
    for t in range(cfg.horizon):
        target = 0.5 * cfg.load_mean[:, t].sum()
        got = renewable[:, t, :].sum(axis=0).mean()
        assert got == pytest.approx(target, rel=0.03)


# -- the load half and the renewable half ---------------------------------


def test_levels_built_on_one_load_draw_equal_separate_draws():
    # one draw serves every penetration level, bit for bit, and so does a
    # draw of no level
    penetrations = (0.0, 0.4, 0.8)
    drawn = draw_and_build(make_config(), penetrations, [CAPACITY] * len(penetrations), 0.2)
    assert np.array_equal(oracles.loads(make_config()), drawn.load)
    for level, penetration in enumerate(penetrations):
        load, renewable, _ = generate(penetration=penetration)
        assert drawn.errors[level] is None
        assert np.array_equal(drawn.load, load)
        assert np.array_equal(drawn.renewable(level), renewable)


@pytest.mark.parametrize("name", ["load", "renewable"])
def test_scenario_set_arrays_are_read_only(name):
    capacity, mean = CAPACITY.copy(), np.full((3, 2), 100.0)
    load, renewable, _ = generate(make_config(load_mean=mean), capacity=capacity)
    with pytest.raises(ValueError, match="read-only"):
        dict(load=load, renewable=renewable)[name][0] = 1.0
    # the caller's own arrays stay writable
    assert capacity.flags.writeable and mean.flags.writeable


def test_load_draws_are_read_only():
    with pytest.raises(ValueError, match="read-only"):
        oracles.loads(make_config())[0] = 0.0


# -- net load samples of the reference ------------------------------------


def test_net_load_single_scenario_point_mass():
    assert net_load_points([[[100.0]]], [[[30.0]]], 0) == [(70.0, 1.0)]


def test_net_load_two_scenarios():
    assert net_load_points([[[60.0, 80.0]]], [[[10.0, 10.0]]], 0) == [(50.0, 0.5),
                                                                      (70.0, 0.5)]


def test_net_load_keeps_negative_values():
    assert net_load_points([[[100.0]]], [[[120.0]]], 0) == [(-20.0, 1.0)]


def test_aggregate_single_bus_equals_net_load():
    load, renewable, _ = generate(make_config(n_buses=1, load_mean=np.full((1, 2), 50.0),
                                              load_std=np.full((1, 2), 5.0)),
                                  capacity=np.array([40.0]))
    a = net_load_points(load, renewable, slice(None), 1)
    b = net_load_points(load, renewable, 0, 1)
    assert np.allclose(a, b)


def test_aggregate_two_buses_one_scenario():
    assert net_load_points([[[70.0]], [[50.0]]], [[[10.0]], [[10.0]]],
                           slice(None)) == [(100.0, 1.0)]


def test_aggregate_three_equiprobable():
    load = np.array([[[50.0, 55.0, 60.0]], [[40.0, 45.0, 50.0]]])
    points = net_load_points(load, np.zeros_like(load), slice(None))
    assert points == [(90.0, pytest.approx(1 / 3)), (100.0, pytest.approx(1 / 3)),
                      (110.0, pytest.approx(1 / 3))]


def test_aggregate_is_scenario_wise_sum():
    load, renewable, probs = generate(make_config(n_scenarios=10))
    for t in range(2):
        agg = net_load_points(load, renewable, slice(None), t)
        per_k = np.zeros(10)
        for i in range(3):
            per_k += load[i, t, :] - renewable[i, t, :]
        manual = list(zip(*(a.tolist() for a in oracles.atoms(per_k, probs))))
        assert np.allclose(agg, manual)


def test_suffix_net_load_matches_manual_sum():
    load, renewable, _ = generate(make_config(n_scenarios=6))
    tail = net_load_points(load, renewable, slice(1, None), 0)
    manual = (load[1:, 0, :] - renewable[1:, 0, :]).sum(axis=0)
    assert np.allclose(np.sort(manual), [value for value, _ in tail])


def test_penetration_weakly_decreases_mean_net_load():
    # fixed seed gives common random numbers across penetration levels
    means = []
    for pen in (0.0, 0.2, 0.4, 0.6, 0.8):
        load, renewable, _ = generate(make_config(n_scenarios=400), pen, growth=0.2)
        net = (load - renewable).sum(axis=0)
        means.append(net.mean())
    assert all(b <= a + 1e-9 for a, b in zip(means, means[1:]))


def test_subadditivity_gap_nonnegative_on_generated_sets():
    rng = np.random.default_rng(17)
    for _ in range(30):
        cfg = make_config(seed=int(rng.integers(1_000_000)))
        load, renewable, probs = generate(cfg, float(rng.uniform(0.0, 0.8)),
                                          growth=float(rng.uniform(0.0, 0.4)))
        alpha = float(rng.uniform(0.05, 0.95))
        net = load[:, 0] - renewable[:, 0]
        *per_bus, joint = cvar_rows(np.vstack([net, net.sum(axis=0)]), probs, alpha)[1]
        assert sum(per_bus) - joint >= -1e-9


def test_cli_import_leaves_scipy_stats_unloaded():
    # importing scipy.stats was most of a fresh CLI start; the draws need only
    # scipy.special, and no run needs a general solver from scipy.optimize.
    # The uniforms need only numpy's Generator and PCG64: not the numpy.random
    # package, its legacy mtrand, or the secrets, hmac and OpenSSL it imports
    src = str(Path(gridclear.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, gridclear.cli\n"
            "from gridclear import RunConfig, run_grid\n"
            "for limit in (None, 80.0):\n"
            "    run_grid(RunConfig(alphas=(0.9,), penetrations=(0.0, 0.5), n_scenarios=20,\n"
            "                       horizon=2, line_limit=limit, "
            "load_mean_per_bus=(150.0, 75.0, 45.0)))\n"
            "print(sorted({'scipy.stats', 'scipy.optimize', 'numpy.random',\n"
            "              'numpy.random.mtrand', 'secrets', 'hmac', '_hashlib'}\n"
            "             & set(sys.modules)))")
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


def test_runs_import_no_module_after_the_cli_import(tmp_path):
    # every module a run needs, numpy's Generator and PCG64 too, is loaded
    # by the import, so a fresh process's start-up cost is the import's
    code = ("import sys\n"
            "from dataclasses import replace\n"
            "from gridclear import RunConfig, cli, run_grid\n"
            "before = set(sys.modules)\n"
            "bus = RunConfig(alphas=(0.9,), penetrations=(0.0, 0.5), n_scenarios=20,\n"
            "                horizon=2)\n"
            "run_grid(bus)\n"
            "run_grid(replace(bus, line_limit=80.0, load_mean_per_bus=(150.0, 75.0, 45.0)))\n"
            "cli.main(['settle', '--horizon', '2', '--scenarios', '20', '--out', sys.argv[1]],\n"
            "         standalone_mode=False)\n"
            "print(sorted(set(sys.modules) - before))\n")
    out = fresh_python(code, str(tmp_path)).stdout.splitlines()
    assert out == [f"wrote {tmp_path / 'settlement.csv'}", "[]"]


# the three ways scenarios finds its ufuncs, and the three ways it finds
# numpy's Generator and PCG64: under the package stub, from the package
# imported before it, and through the fallback to the real package when
# loading under the stub fails (the real scipy.special imports numpy.random)
NO_UNDER_STUB = """
import sys

class NoUnderStub:
    def find_spec(self, name, path=None, target=None):
        package = sys.modules.get("{package}")
        if name == "{package}.{module}" and not hasattr(package, "__file__"):
            raise ImportError("no {package}.{module} under the stub")
        return None

sys.meta_path.insert(0, NoUnderStub())
"""
LOADERS = {
    "stub": ("", "scipy.special._ufuncs", "numpy.random._generator"),
    "special imported": ("import scipy.special\n", "scipy.special", "numpy.random"),
    "special fallback": (NO_UNDER_STUB.format(package="scipy.special", module="_ufuncs"),
                         "scipy.special", "numpy.random"),
    "random imported": ("import numpy.random\n", "scipy.special._ufuncs", "numpy.random"),
    "random fallback": (NO_UNDER_STUB.format(package="numpy.random", module="_pcg64"),
                        "scipy.special._ufuncs", "numpy.random"),
}


@pytest.mark.parametrize("extra", [(), ("--line-limit", "80", "--load-mean", "150,75,45")],
                         ids=["bus", "feeder"])
def test_settle_writes_the_same_bytes_whichever_way_the_ufuncs_load(tmp_path, extra):
    runs = {}
    for way, (preamble, special, random) in LOADERS.items():
        code = (preamble + "import sys\nfrom gridclear import cli, scenarios\n"
                "print(scenarios.special.__name__)\n"
                "try:\n    cli.main(sys.argv[1:])\n"
                "finally:\n    print(scenarios._random.__name__)\n")
        proc = fresh_python(code, "settle", "--horizon", "24", "--scenarios", "200",
                            "--seed", "7", *extra, "--out", str(tmp_path))
        first, *stdout, last = proc.stdout.splitlines(keepends=True)
        assert (first, last) == (special + "\n", random + "\n"), way
        runs[way] = ("".join(stdout), proc.stderr,
                     (tmp_path / "settlement.csv").read_bytes())
    for way in LOADERS:
        assert runs[way] == runs["stub"], way


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


def test_numpy_random_and_secrets_work_after_the_stub_load():
    # after a draw, numpy.random and secrets import as the real modules; the
    # package holds the submodules loaded under the stub, reproduces the
    # draw's weather uniforms, and so does a reload of scenarios
    code = ("import importlib, gridclear.cli\n"
            "from gridclear import RunConfig, scenarios\n"
            "from gridclear.experiment import scenario_config\n"
            "config = scenario_config(RunConfig(horizon=3, n_scenarios=40, seed=11))\n"
            "u_weather = scenarios._draw_uniforms(config)[1]\n"
            "import numpy.random, secrets\n"
            "print(numpy.random.__file__.endswith('__init__.py'),\n"
            "      secrets.__file__.endswith('secrets.py'))\n"
            "print(numpy.random.bit_generator.__name__, numpy.random._pcg64.__name__)\n"
            "rng = numpy.random.default_rng(11)\n"
            "rng.random((40, 3, 3))\n"
            "print(rng.random((40, 3)).tobytes() == u_weather.tobytes())\n"
            "print(len(secrets.token_hex(4)), numpy.random.SeedSequence().entropy > 0)\n"
            "importlib.reload(scenarios)\n"
            "print(scenarios._draw_uniforms(config)[1].tobytes() == u_weather.tobytes())\n")
    out = fresh_python(code).stdout.splitlines()
    assert out == ["True True", "numpy.random.bit_generator numpy.random._pcg64",
                   "True", "8 True", "True"]


def test_concurrent_first_draws_all_succeed():
    # eight runs started together in a fresh interpreter, so each may make
    # the process's first draw: each succeeds and equals a sequential run
    code = ("import threading\n"
            "from gridclear import RunConfig, point_row, run_grid\n"
            "run = RunConfig(alphas=(0.9,), penetrations=(0.5,), horizon=2, n_scenarios=50)\n"
            "barrier = threading.Barrier(8)\n"
            "rows, errors = [], []\n"
            "def go():\n"
            "    barrier.wait()\n"
            "    try:\n"
            "        rows.append([point_row(run, p) for p in run_grid(run)])\n"
            "    except Exception as exc:\n"
            "        errors.append(repr(exc))\n"
            "threads = [threading.Thread(target=go) for _ in range(8)]\n"
            "for thread in threads:\n"
            "    thread.start()\n"
            "for thread in threads:\n"
            "    thread.join()\n"
            "sequential = [point_row(run, p) for p in run_grid(run)]\n"
            "print(errors, len(rows), all(r == sequential for r in rows))\n")
    assert fresh_python(code).stdout.splitlines() == ["[] 8 True"]


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
    """(rows, 1) Beta shapes, as draw_and_build passes them, and (rows, k) uniforms."""
    rng = np.random.default_rng(seed)
    a, b = np.exp(rng.uniform(-3.0, 4.0, (2, rows, 1)))
    u = rng.random((rows, k))
    u[:, 0] = 0.0
    return a, b, u


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


MIN = scenarios._SPLIT_MIN


def split_rows(ufunc, *args):
    """``ufunc(*args)`` in ``_split_beside``'s row blocks, beside an idle caller."""
    return scenarios._split_beside(lambda: None, ufunc, *args)[1]


# the row blocks of each shape below: as many as its rows hold MIN elements each
BLOCKS = {
    (23, 89): 1, (32, 64): 1, (683, 3): 1,  # MIN - 1, MIN and MIN + 1 elements
    (2, 1500): 1,                           # two rows, 1.5 MIN elements
    (7, 400): 1,                            # seven rows, 1.4 MIN elements
    (1, 3 * MIN): 1,                        # one row is one call
    (63, 65): 1, (64, 64): 2,               # 2 MIN - 1 and 2 MIN elements
    (2, 3000): 2,                           # fewer rows than three workers
    (7, 700): 2,                            # blocks of 3 and 4 rows
    (13, 700): 4,                           # more blocks than three workers
}


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("rows,k", list(BLOCKS))
def test_split_rows_equals_one_call(rows, k, workers, monkeypatch, thread_starts):
    assert (23 * 89, 32 * 64, 683 * 3) == (MIN - 1, MIN, MIN + 1)
    monkeypatch.setattr(scenarios, "_workers", lambda: workers)
    a, b, u = beta_arguments(rows, k)
    want = scenarios.special.betaincinv(a, b, u)
    got = split_rows(scenarios.special.betaincinv, a, b, u)
    assert same_bits(got, want)
    assert thread_starts() == min(workers, BLOCKS[rows, k]) - 1


def test_split_rows_broadcasts_one_row_of_shapes(monkeypatch, thread_starts):
    # (1, 1) shapes against (R, K) uniforms, and scalar shapes
    monkeypatch.setattr(scenarios, "_workers", lambda: 2)
    a, b, u = beta_arguments(40, 200)  # three blocks
    for shapes in ((a[:1], b[:1]), (float(a[0, 0]), float(b[0, 0]))):
        want = scenarios.special.betaincinv(*shapes, u)
        got = split_rows(scenarios.special.betaincinv, *shapes, u)
        assert same_bits(got, want)
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
            got = split_rows(scenarios.special.betaincinv, a, b, u)
            assert same_bits(got, want)
    finally:
        sys.setswitchinterval(interval)


def test_split_beside_hands_each_block_out_once(monkeypatch):
    # the caller and the threads take blocks from one counter; with more
    # threads than CPUs, frequent switches and the caller busy in
    # ``meanwhile`` while the threads run, every row is still computed
    # exactly once
    workers = (os.cpu_count() or 1) + 1
    monkeypatch.setattr(scenarios, "_workers", lambda: workers)
    x = np.arange(40.0 * MIN).reshape(40, MIN)  # 40 one-row blocks
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            computed = []

            def copy(x, out):
                computed.extend(x[:, 0] // MIN)
                out[...] = x

            busy, got = scenarios._split_beside(
                lambda: sum(np.sqrt(x[i]).sum() for i in range(40)), copy, x)
            assert same_bits(got, x) and busy > 0.0
            assert sorted(computed) == list(range(40))
    finally:
        sys.setswitchinterval(interval)


def test_split_rows_carries_the_special_error_actions(monkeypatch):
    # a negative Beta shape is a domain error; it lies in the last of four blocks
    monkeypatch.setattr(scenarios, "_workers", lambda: 3)
    a, b, u = beta_arguments(30, 300)
    a[-1] = -1.0
    with np.errstate(invalid="raise"), special.errstate(all="raise"):
        with pytest.raises(special.SpecialFunctionError) as one:
            scenarios.special.betaincinv(a, b, u)
        with pytest.raises(special.SpecialFunctionError) as split:
            split_rows(scenarios.special.betaincinv, a, b, u)
    assert str(split.value) == str(one.value)
    # scipy's default ignores it, in the caller and in the threads alike
    got = split_rows(scenarios.special.betaincinv, a, b, u)
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
            got = split_rows(np.sqrt, x)
            assert same_bits(got, np.sqrt(x))
        else:
            with pytest.raises(error):
                np.sqrt(x)
            with pytest.raises(error):
                split_rows(np.sqrt, x)


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
        assert same_bits(split_rows(fail_in(blocks), x), x)
    else:
        with pytest.raises(error, match=blocks[0]):
            split_rows(fail_in(blocks), x)
    assert thread_starts() == 2
    assert unhandled == []
    assert threading.active_count() == before


def test_a_failed_meanwhile_is_raised_and_no_block_is_handed_out_after_it(monkeypatch):
    # each of the two threads takes a block and holds it until the caller
    # joins; ``meanwhile`` fails once both blocks are out, and then both
    # blocks fail too.  The caller raises meanwhile's error, computes no
    # block of its own, and no block is handed out after the failure
    monkeypatch.setattr(scenarios, "_workers", lambda: 3)
    taken, joining = threading.Semaphore(0), threading.Event()

    class JoinSignalling(threading.Thread):
        def join(self, timeout=None):
            joining.set()
            super().join(timeout)

    monkeypatch.setattr(threading, "Thread", JoinSignalling)
    unhandled = []
    monkeypatch.setattr(threading, "excepthook", unhandled.append)
    before = threading.active_count()
    computed = []

    def failing_block(x, out):
        computed.append(int(x[0, 0]))
        taken.release()
        joining.wait(timeout=60.0)
        raise LookupError("a block failed")

    def failing_meanwhile():
        for _ in range(2):
            assert taken.acquire(timeout=60.0)
        raise ValueError("meanwhile failed")

    x = np.repeat(np.arange(40.0)[:, None], MIN, axis=1)  # 40 one-row blocks
    with pytest.raises(ValueError, match="meanwhile failed"):
        scenarios._split_beside(failing_meanwhile, failing_block, x)
    assert sorted(computed) == [1, 2]
    assert unhandled == []
    assert threading.active_count() == before
    # with one worker no thread starts, and the ufunc is not called after the failure
    monkeypatch.setattr(scenarios, "_workers", lambda: 1)
    taken.release(2)
    with pytest.raises(ValueError, match="meanwhile failed"):
        scenarios._split_beside(failing_meanwhile, failing_block, x)
    assert sorted(computed) == [1, 2]


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
    generate(cfg)
    assert thread_starts() == 0


# -- one numpy log, exp and log1p call over every hour ---------------------


def quantile_feed(name):
    """8,192 inputs of the range ``_truncnorm_ppf`` feeds ``name``, shuffled."""
    rng = np.random.default_rng(sum(map(ord, name)))
    size = 2048
    q = np.concatenate([rng.integers(1, 2**53, size) * 2.0**-53,       # q in (0, 1)
                        rng.integers(1, 2**20, size) * 2.0**-53,       # tiny q
                        1.0 - rng.integers(1, 2**20, size) * 2.0**-53,  # q near 1
                        np.zeros(size)])                               # q == 0
    x = {
        "log": q,
        # min - top of the log-sum-exp: 0, small, underflowing and -inf
        "exp": -np.concatenate([rng.exponential(3.0, size), rng.exponential(1e-12, size),
                                rng.uniform(700.0, 760.0, size),
                                np.array([0.0, np.inf, 1e17] * (size // 3 + 1))[:size]]),
        # exp's outputs in [0, 1], and -q of the upper-tail rows in (-1, 0]
        "log1p": np.concatenate([np.exp(-rng.exponential(3.0, size)),
                                 np.exp(-rng.uniform(700.0, 760.0, size)), -q[::2]]),
    }[name]
    return rng.permutation(x)


@pytest.mark.parametrize("name", ["log", "exp", "log1p"])
def test_numpy_log_exp_log1p_bits_do_not_depend_on_the_position(name):
    # _truncnorm_ppf makes one call of each over every hour's draws, so an
    # element's bits must not depend on where it sits: SIMD lane, offset,
    # length, stride, array shape or an output written in place
    ufunc = getattr(np, name)
    x = quantile_feed(name)
    with np.errstate(divide="ignore"):
        want = np.array([ufunc(x[i:i + 1])[0] for i in range(x.size)])
        for length in [*range(1, 18), 1000, 3001]:
            for offset in range(17):
                part = slice(offset, offset + length)
                assert same_bits(ufunc(x[part]), want[part])
                inplace = x[part].copy()
                ufunc(inplace, out=inplace)
                assert same_bits(inplace, want[part])
                every_other = slice(offset, offset + 2 * length, 2)
                assert same_bits(ufunc(x[every_other]), want[every_other])
        for rows, cols in ((24, 341), (7, 1000), (341, 24)):
            block = x[:rows * cols].reshape(rows, cols)
            assert same_bits(ufunc(block), want[:rows * cols].reshape(rows, cols))
            assert same_bits(ufunc(block.T), want[:rows * cols].reshape(rows, cols).T)
