"""Monte Carlo scenarios of load and renewable output.

Loads are truncated-at-zero Gaussians per bus; renewable output is Beta on
[0, capacity] with mean chosen so the aggregate expected renewable output is
``penetration`` times the aggregate expected load, and standard deviation
``uncertainty_growth * capacity`` (clamped to Beta feasibility).  A single
weather uniform per (time, scenario) drives every bus's renewable draw, so
renewables are comonotone across buses while loads stay independent.

The mean share of capacity is system-wide, so the Beta shape depends only
on the level and the hour: each (level, hour) takes one Beta quantile per
scenario, shared by all buses and scaled by each bus's capacity.  Load
quantiles are drawn in one pass over every drawn (bus, hour) row and its
scenarios.

Generation has two halves.  ``draw_loads`` draws the uniforms (``u_load``
then ``u_weather``, in that order from one generator seeded by the config)
and turns ``u_load`` into loads; none of it depends on the penetration, and
the ``ScenarioConfig`` it reads holds only the load process and the draw.
``build_levels`` turns ``u_weather`` into the renewables of any number of
levels with one ``betaincinv`` call over every drawn (level, hour,
scenario), cut into row blocks on threads when it is large (below); the
zero-target, at-capacity and degenerate-std hours, and each level's first
infeasible hour, are masks over (level, hour).  It keeps one
(level, hour, scenario) array of output per MW and builds a level's
(bus, hour, scenario) array only when asked.  A run calls
``draw_and_build``, which gives the bits of the two halves but overlaps
them: it draws both uniform arrays, starts the renewables' row blocks on
threads, draws the loads in the caller while they run, and then takes the
blocks left and joins.  Every run draws the loads once and builds all of
its levels from them, so all levels share one read-only load array and
one weather draw: the common random numbers are structural, not a side
effect of reseeding.

Both quantiles come from public ``scipy.special`` ufuncs, so scipy's
``stats`` subpackage, whose import cost more than the rest of a CLI
start-up, is never loaded.  All of them live in the compiled
``scipy.special._ufuncs``, which ``_load_bare`` loads without the
package ``__init__``: its array-API layer (``numpy.f2py``,
``numpy.testing``, ``unittest``) was half of a CLI start-up.  The Beta
quantile is ``betaincinv(a, b, u)``,
the Boost inverse that scipy's ``beta.ppf`` also calls (both give 0.0 at
u = 0); it is a scalar ufunc, so one call over many (level, hour) pairs
gives each element the bits of one call per hour.  The truncated-normal
quantile, ``_truncnorm_ppf``, is the log-space form of scipy's
``truncnorm.ppf`` (scipy 1.17) with the upper bound fixed at +inf, wrapped
as ``rv_continuous.ppf`` wraps it: u = 0 gives the lower bound, and the
result is ``x * scale + loc``.  Its per-(bus, hour) constants (``ndtr``,
the log-mass, ``log_ndtr``) are scalar ufuncs computed once per row and
broadcast over the row's scenarios; ``np.log``, ``np.exp`` and
``np.log1p`` run once each over every row, in place, and scipy's two-term
``logsumexp`` is written out as ``log1p(exp(min - max)) + max``, which
rounds as it does (a tie gives ``log1p(1.0) == log(2.0)``).  So the draws equal those of
``truncnorm.ppf`` and ``beta.ppf`` bit for bit on the uniforms
``Generator.random`` makes (multiples of 2**-53 in [0, 1));
``tests/test_batch_equivalence.py`` checks this.  One call over all hours
gives the bits of one call per hour because numpy's ``log``, ``exp`` and
``log1p`` give an element the same bits wherever it sits in an array (SIMD
lane, offset, length, stride, output in place), which
``tests/test_scenarios.py`` pins on the ranges the quantile feeds them.  A
numpy build that rounds by lane fails that test rather than moving the
draws.  No ``np.log``, ``np.exp`` or ``np.log1p`` call is split across
threads.

A scalar ufunc can be split, since each element's bits depend on its own
inputs alone, and ``betaincinv`` releases the GIL.  ``_start_rows`` cuts
the one ``betaincinv`` call of the renewables into contiguous blocks of
(level, hour) rows, as many as the rows hold ``_SPLIT_MIN`` (2,048)
elements each, and computes them into one output.  With two blocks or
more, the caller keeps the first block and threads start at once, one
fewer than the smallest of the CPUs of the process's affinity,
``_MAX_WORKERS`` (4) and the blocks; each takes the next block in row
order from a shared counter until none is left.  ``finish``, called by
the caller when it is free, computes the caller's block, takes what is
left the same way and joins.  So a free CPU takes the next block, however
long the caller's other work runs.  A block is not made smaller, because
each block boundary hands the GIL back: on a 2-vCPU host, blocks of 50
elements took the wide workload's run from 14.3 to 19.1 ms, and blocks of
500 from 15.5 to 19.7 ms.  On the same host (two measurements), two
blocks of one call took 1.9 times its time at 512 elements and 1.3 at
768, 0.85 at 1,024, 0.83-0.97 at 2,048, 0.63 at 8,000 and 0.54-0.55 at
24,000 (a T 24, K 1000 run).  The one ``ndtri_exp`` call of the load
quantile is not split: it costs about 25-35 ns an element, against about
750 ns for ``betaincinv``, and in a run it is drawn while the other CPUs
run the Beta blocks.  A thread's start and join cost about 100-200 us on
that host, and a run starts at most ``_MAX_WORKERS - 1`` of them.

The uniforms come from ``Generator(PCG64(seed))``, which is what
``np.random.default_rng(seed)`` returns for an integer seed.  ``_load_bare``
serves this second package too: at the first draw (not at import, where
it would add 4-6 ms to every start-up) it loads the compiled
``numpy.random._generator``, and with it ``_pcg64`` and ``bit_generator``,
without ``numpy.random``'s ``__init__``, which also loads the other bit
generators and the legacy ``mtrand``.  ``bit_generator`` imports
``secrets``, which brings ``hmac`` and OpenSSL's ``_hashlib``, for one
name, ``randbits``, read only by an unseeded ``SeedSequence``.  So while
it loads, and only if ``secrets`` is not imported yet, a stand-in
``secrets`` holding ``random.SystemRandom().getrandbits``, which is what
``secrets.randbits`` is, stands in ``sys.modules``; it is removed when the
load ends, so a later ``import secrets`` gets the real module.  The full
package cost 10-20 ms and about 6 MB of resident memory per process, and
none of the rest is used.  The loaded module is cached (``_random``),
because ``numpy.random`` stays out of ``sys.modules`` and an uncached load
would stub it again at every draw.

Everything is a pure, deterministic function of the config (seed included)
and the levels' arguments; the load, weather and renewable arrays are
read-only, so the levels that share them are safe to hand to any number of
grid points.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib.util
import os
import random
import sys
import threading
import types
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

_NEEDED = ("betaincinv", "ndtri_exp", "ndtr", "log_ndtr", "log1p", "geterr", "seterr")


class _AdoptSubmodules:
    """A one-shot import hook: the real ``package``, when it is imported,
    starts with the submodules loaded under its stub as its attributes.

    The import system set them on the stub; the package's own init finds
    them in ``sys.modules`` and does not set them again, yet ``seterr`` (and
    so ``errstate``) reads ``scipy.special._special_ufuncs``, and
    ``numpy.random.bit_generator`` is public.
    """

    def __init__(self, package, submodules):
        self.package = package
        self.submodules = submodules

    def find_spec(self, name, path=None, target=None):
        if name != self.package:
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(name)
        exec_module = spec.loader.exec_module

        def adopt_then_exec(module):
            vars(module).update(self.submodules)
            exec_module(module)

        spec.loader.exec_module = adopt_then_exec
        return spec


def _load_bare(package, submodule, needed, stand_ins=None):
    """The module holding the ``needed`` names of ``package``.

    An imported ``package`` is returned as it is.  Otherwise the compiled
    ``package.submodule`` is loaded under a bare package stub that is
    removed at once, so a later import of ``package`` runs the real
    package, which re-exports these same objects and, through
    ``_AdoptSubmodules``, holds the submodules loaded under the stub.  Each
    module of ``stand_ins`` (name to module) that is not imported yet
    stands in ``sys.modules`` for this load only.  Any import error, or a
    missing name, falls back to the real package.
    """
    if package in sys.modules:
        return sys.modules[package]
    try:
        spec = importlib.util.find_spec(package)
        stub = types.ModuleType(package)
        stub.__path__ = spec.submodule_search_locations
        placed = {name: module for name, module in (stand_ins or {}).items()
                  if name not in sys.modules}
        sys.modules.update(placed)
        sys.modules[package] = stub
        try:
            # __import__, unlike importlib.import_module, is timed by -X importtime
            __import__(f"{package}.{submodule}")
            module = sys.modules[f"{package}.{submodule}"]
        finally:
            del sys.modules[package]
            for name, stand_in in placed.items():
                if sys.modules.get(name) is stand_in:
                    del sys.modules[name]
            submodules = {key: value for key, value in vars(stub).items()
                          if isinstance(value, types.ModuleType)}
            if submodules:
                sys.meta_path.insert(0, _AdoptSubmodules(package, submodules))
        if all(hasattr(module, name) for name in needed):
            return module
    except ImportError:
        pass
    return importlib.import_module(package)


special = _load_bare("scipy.special", "_ufuncs", _NEEDED)


@functools.cache
def _random():
    """The module holding numpy's ``Generator`` and ``PCG64``, loaded by
    ``_load_bare`` at the first draw with a stand-in ``secrets`` (see the
    module docstring); cached, since ``numpy.random`` stays out of
    ``sys.modules``."""
    secrets = types.ModuleType("secrets")
    secrets.randbits = random.SystemRandom().getrandbits
    return _load_bare("numpy.random", "_generator", ("Generator", "PCG64"),
                      {"secrets": secrets})


def _generator(seed):
    """``np.random.default_rng(seed)`` for an integer seed: ``Generator(PCG64(seed))``."""
    module = _random()
    return module.Generator(module.PCG64(seed))


# keep the target std strictly inside the Beta feasibility bound sqrt(mu*(1-mu))
_FEASIBILITY_MARGIN = 0.95
_DEGENERATE_STD = 1e-9


# a ufunc call is cut into row blocks of at least _SPLIT_MIN elements each,
# run by the caller and at most _MAX_WORKERS - 1 threads (see _start_rows)
_SPLIT_MIN = 2048
_MAX_WORKERS = 4


def _workers() -> int:
    """The CPUs this process may run on, at most ``_MAX_WORKERS``."""
    if hasattr(os, "sched_getaffinity"):
        count = len(os.sched_getaffinity(0))
    else:
        count = os.cpu_count() or 1
    return min(count, _MAX_WORKERS)


def _start_rows(ufunc, *args, out=None, min_size=_SPLIT_MIN):
    """Start ``ufunc(*args, out=out)`` with the leading axis cut into
    contiguous row blocks, and return ``finish``, whose call returns the output.

    The rows are cut evenly into as many blocks as they hold ``min_size``
    elements each.  Each block is the ufunc on its rows of the broadcast
    arguments, written into its rows of one output (``out``, which may be
    an argument, or a new array), so for a scalar ufunc (each element's
    bits depend on its own inputs alone) the result equals one call bit for
    bit.  With one block or one worker nothing starts, and ``finish`` makes
    the one call.  Otherwise the caller keeps the first block, and one
    thread per other worker, at most one per other block, starts at once
    and takes the next block, in row order, from a shared counter until
    none is left.  Each thread runs in a copy of the caller's context, which
    carries numpy's error state, and under the caller's ``scipy.special``
    error actions, which are per thread.  ``finish`` runs the caller's
    block, takes blocks from the counter as the threads do, joins every
    thread, and raises in the caller the exception of the first failing
    block in row order.  Whatever happens between the start and the finish,
    call ``finish`` once, so that no thread outlives the caller's use.
    """
    broadcast = np.broadcast(*args)
    n_rows = broadcast.shape[0] if broadcast.size >= min_size else 0
    # as many blocks as the rows hold min_size elements each, rounded down
    blocks = n_rows // -(-min_size * n_rows // broadcast.size) if n_rows else 0
    workers = min(_workers(), blocks)
    if workers < 2:
        return functools.partial(ufunc, *args, out=out)
    arrays = np.broadcast_arrays(*args)
    if out is None:
        out = np.empty(broadcast.shape, np.result_type(*arrays))
    bounds = [n_rows * i // blocks for i in range(blocks + 1)]
    errors = [None] * blocks
    actions = special.geterr()
    following = iter(range(1, blocks))  # block 0 is the caller's
    lock = threading.Lock()

    def compute(block):
        rows = slice(bounds[block], bounds[block + 1])
        try:
            if special.geterr() != actions:  # a new thread starts with scipy's defaults
                special.seterr(**actions)
            ufunc(*(x[rows] for x in arrays), out=out[rows])
        except BaseException as exc:
            errors[block] = exc

    def run():
        while True:
            with lock:
                block = next(following, None)
            if block is None:
                return
            compute(block)

    def finish():
        try:
            compute(0)
            run()
        finally:
            for thread in started:
                thread.join()
        for error in errors:
            if error is not None:
                raise error
        return out

    started = []
    try:
        for _ in range(workers - 1):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(run,))
            thread.start()
            started.append(thread)
    except BaseException:
        for thread in started:
            thread.join()
        raise
    return finish


def _split_rows(ufunc, *args, out=None, min_size=_SPLIT_MIN):
    """``ufunc(*args, out=out)`` in ``_start_rows``' row blocks, finished at
    once: the caller computes its block and any the threads leave, and joins
    them before the return."""
    return _start_rows(ufunc, *args, out=out, min_size=min_size)()


def _check_integer(name: str, value) -> None:
    """Reject a dimension or seed that is not a Python or numpy integer (bools too)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} {value!r} must be an integer")


@dataclass(frozen=True)
class ScenarioConfig:
    """The load process and the draw: dimensions, seed and per-bus loads.

    load_mean, load_std: arrays of shape (n_buses, horizon) in MW.  The
    renewables of a level are ``build_levels``' arguments, not the config's.
    """

    n_buses: int
    horizon: int
    n_scenarios: int
    seed: int
    load_mean: np.ndarray
    load_std: np.ndarray

    def __post_init__(self):
        for name in ("n_buses", "horizon", "n_scenarios", "seed"):
            _check_integer(name, getattr(self, name))
        for name in ("n_buses", "horizon", "n_scenarios"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} {getattr(self, name)} must be at least 1")
        if self.seed < 0:
            raise ConfigurationError(f"seed {self.seed} must be non-negative")
        mean = np.broadcast_to(np.asarray(self.load_mean, dtype=float),
                               (self.n_buses, self.horizon)).copy()
        std = np.broadcast_to(np.asarray(self.load_std, dtype=float),
                              (self.n_buses, self.horizon)).copy()
        object.__setattr__(self, "load_mean", mean)
        object.__setattr__(self, "load_std", std)
        for name, value in (("load_mean", mean), ("load_std", std)):
            if not np.all(np.isfinite(value)):
                raise ConfigurationError(f"{name} must be finite")
        if np.any(mean < 0.0) or np.any(std < 0.0):
            raise ConfigurationError("load means and stds must be non-negative")


def _beta_shape(mu: float, sigma_hat: float) -> tuple[float, float]:
    # moment matching on [0, 1]: feasible iff sigma_hat^2 < mu * (1 - mu)
    ratio = mu * (1.0 - mu) / (sigma_hat * sigma_hat) - 1.0
    return mu * ratio, (1.0 - mu) * ratio


# The largest standardised load draw, (draw - mean) / std.  In exact
# arithmetic it is -ndtri(2**-54) = 8.29: a uniform is at most 1 - 2**-53 and
# P(Z > a) >= 1/2 for the lower bound a <= 0.  The log-space quantile rounds
# it up to 8.456 (the largest of 32 million lower bounds scanned in [-40, 0)
# on the top eight uniforms).
LOAD_Z_MAX = 8.5


def _truncnorm_ppf(q, loc, scale):
    """Quantiles ``q`` in [0, 1) of N(loc, scale**2) truncated to [0, inf).

    ``q`` is (rows, K); ``loc`` and ``scale`` are (rows, 1), one pair per
    row, and ``q`` is not written.  ``loc >= 0``, so a row's standardised
    lower bound ``a`` is negative (lower tail) or, for a zero mean, 0
    (solved from the upper tail, as scipy does).  Each row's constants are
    computed once, on ``a``.  Every row takes one path: one ``np.log``, one
    ``np.exp``, one ``np.log1p`` and one ``ndtri_exp`` call over all of
    ``q``, worked in place.  The upper-tail rows,
    a row-index set, overwrite the ``log1p`` argument and the term added to
    it with their own, and negate the quantile; q == 0 gives the lower
    bound, in one masked write at the end.
    """
    a = (0.0 - loc) / scale
    # log P(Z > a): scipy's log1p(-ndtr(a) - ndtr(-b)) at b = inf, whose
    # ndtr(-b) is +0.0, and subtracting +0.0 changes no bit
    log_mass = special.log1p(-special.ndtr(a))
    log_cdf = special.log_ndtr(a)
    upper = np.flatnonzero(~(a < 0.0))
    with np.errstate(divide="ignore"):  # log(0) is -inf; those draws get the lower bound
        x = np.log(q)
    x += log_mass
    # two-term log-sum-exp of log_cdf and x; the same bits as scipy's
    # logsumexp([log_cdf, x], axis=0)
    top = np.maximum(log_cdf, x)
    np.minimum(log_cdf, x, out=x)
    x -= top
    np.exp(x, out=x)
    # scipy's logsumexp with log_ndtr(-inf) = -inf returns log1p(-q) + log_mass exactly
    x[upper] = -q[upper]
    top[upper] = log_mass[upper]
    np.log1p(x, out=x)
    x += top
    special.ndtri_exp(x, out=x)
    x[upper] = -x[upper]
    x *= scale
    x += loc
    np.copyto(x, a * scale + loc, where=q == 0.0)
    return x


@dataclass(frozen=True)
class LoadDraws:
    """The penetration-free half of the scenarios: loads and weather uniforms.

    load: (n_buses, horizon, n_scenarios) MW; u_weather: (n_scenarios,
    horizon) uniforms, one per (scenario, hour), shared by every bus's
    renewable draw.  Both are read-only.  ``config`` is the config they were
    drawn for; any level whose seed and load process match it may use them.
    """

    config: ScenarioConfig
    load: np.ndarray
    u_weather: np.ndarray

    @property
    def probabilities(self) -> np.ndarray:
        """The scenarios are equiprobable."""
        k = self.config.n_scenarios
        return np.full(k, 1.0 / k)


def _draw_uniforms(config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """The uniforms of ``config``: ``u_load`` (n_scenarios, n_buses, horizon),
    then ``u_weather`` (n_scenarios, horizon), read-only, from one generator."""
    rng = _generator(config.seed)
    # u_load before u_weather: the draw order fixes every scenario's bits
    u_load = rng.random((config.n_scenarios, config.n_buses, config.horizon))
    u_weather = rng.random((config.n_scenarios, config.horizon))
    u_weather.flags.writeable = False
    return u_load, u_weather


def _load_quantiles(config: ScenarioConfig, u_load: np.ndarray) -> np.ndarray:
    """The read-only (n_buses, horizon, n_scenarios) loads of ``config`` on
    the uniforms ``u_load``.

    A (bus, hour) whose std is degenerate is its mean in every scenario;
    the others, the drawn rows, take one ``_truncnorm_ppf`` call over all
    hours.  A draw that is not finite is a ``ConfigurationError`` naming
    the bus, hour and scenario of the first one.
    """
    n, t_len, k = config.n_buses, config.horizon, config.n_scenarios
    mean, std = config.load_mean, config.load_std
    fixed = std <= _DEGENERATE_STD * np.maximum(mean, 1.0)
    drawn = ~fixed
    load = np.empty((n, t_len, k))
    load[fixed] = mean[fixed, None]
    q = u_load.transpose(1, 2, 0)[drawn]  # (bus, hour) rows in C order, K columns
    rows = _truncnorm_ppf(q, mean[drawn, None], std[drawn, None])
    finite = np.isfinite(rows)
    if not finite.all():
        row, scenario = divmod(int(np.argmin(finite)), k)
        bus, hour = np.argwhere(drawn)[row]
        raise ConfigurationError(
            f"the load draw of bus {bus}, hour {hour}, scenario {scenario} is not "
            f"finite ({rows[row, scenario]}): the truncated-normal quantile of uniform "
            f"{float(q[row, scenario])!r} at mean {mean[bus, hour]:g} MW, "
            f"std {std[bus, hour]:g} MW")
    load[drawn] = rows
    load.flags.writeable = False
    return load


def draw_loads(config: ScenarioConfig) -> LoadDraws:
    """Draw the uniforms and the loads of ``config`` (``_draw_uniforms``,
    then ``_load_quantiles``)."""
    u_load, u_weather = _draw_uniforms(config)
    return LoadDraws(config, _load_quantiles(config, u_load), u_weather)


@dataclass(frozen=True)
class RenewableLevels:
    """The renewable half of L penetration levels, all on one weather draw.

    capacity: (L, n_buses) MW.  share: (L, horizon, n_scenarios), every
    bus's output per MW of its capacity: 0 where the hour's target is zero,
    1 at capacity, the mean share where the std is degenerate, else the
    Beta quantile of the weather uniform.  errors: per level, None or the
    message naming its first infeasible hour (its shares are 0).  A level's
    (n_buses, horizon, n_scenarios) array is one multiply, capacity times
    share, made by ``renewable`` where it is used, so a grid holds one
    level's array at a time.
    """

    capacity: np.ndarray
    share: np.ndarray
    errors: tuple[str | None, ...]

    def renewable(self, level: int) -> np.ndarray:
        """Level ``level``'s renewable output, read-only."""
        # share is in [0, 1] and capacity >= 0, so the rounded product stays in [0, cap]
        out = self.capacity[level][:, None, None] * self.share[level]
        out.flags.writeable = False
        return out


def build_levels(draws: LoadDraws, penetrations, capacities,
                 uncertainty_growth: float) -> RenewableLevels:
    """Every level's renewables on the weather uniforms of ``draws``.

    Level l has penetration ``penetrations[l]`` and per-bus capacity
    ``capacities[l]``; the load process is that of ``draws.config``.  Each
    (level, hour) takes its Beta shape from the hour's system-wide mean
    share, and one ``betaincinv`` call draws every quantile of every level,
    in ``_start_rows``' row blocks of at least ``_SPLIT_MIN`` elements, with
    the bits of one call; every thread is joined before the return.  A
    level that asks for more mean renewable output than its capacity can
    carry gets the error of its first such hour instead.
    """
    return _start_levels(draws.config, draws.u_weather, penetrations, capacities,
                         uncertainty_growth)()


def _start_levels(config: ScenarioConfig, u_weather: np.ndarray, penetrations, capacities,
                  uncertainty_growth: float):
    """``build_levels`` on ``config`` and the weather uniforms ``u_weather``,
    started: the levels are checked and the ``betaincinv`` row blocks
    started on threads (``_start_rows``) before the return.  Returns
    ``finish``, whose one call runs the blocks left, joins the threads and
    returns the ``RenewableLevels``.
    """
    given = list(penetrations)  # named in the messages as the caller wrote them
    penetrations = np.asarray(given, dtype=float)
    caps = np.asarray(capacities, dtype=float) + 0.0  # a -0.0 capacity builds +0.0 output
    for name, value in (("penetration", penetrations), ("renewable capacities", caps),
                        ("uncertainty_growth", uncertainty_growth)):
        if not np.all((value >= 0.0) & np.isfinite(value)):
            raise ConfigurationError(f"{name} must be non-negative and finite")
    mean = config.load_mean
    k = config.n_scenarios
    if caps.shape != (penetrations.size, mean.shape[0]):
        raise ConfigurationError(f"need one capacity per bus for each of the "
                                 f"{penetrations.size} levels, got shape {caps.shape}")
    # each hour's bus sum rounds as mean[:, t].sum() does, not as mean.sum(axis=0)
    target = penetrations[:, None] * np.ascontiguousarray(mean.T).sum(axis=1)  # (L, T)
    cap_total = caps.sum(axis=1)
    installed = cap_total > 0.0
    share = np.divide(target, cap_total[:, None], out=np.zeros_like(target),
                      where=installed[:, None])
    active = target > 0.0
    over = active & (~installed[:, None] | (share > 1.0 + 1e-9))
    errors = []
    for level, hour in enumerate(np.where(over.any(axis=1), over.argmax(axis=1), -1)):
        if hour < 0:
            errors.append(None)
        elif not installed[level]:
            errors.append(f"hour {hour}: penetration {given[level]} needs "
                          f"mean renewable output {target[level, hour]:.3f} MW but no "
                          f"capacity is installed")
        else:
            errors.append(f"hour {hour}: required system-wide mean share "
                          f"{share[level, hour]:.4f} of capacity exceeds 1; "
                          f"infeasible Beta mean on [0, w]")
    active &= ~over.any(axis=1)[:, None]

    mu = np.minimum(share, 1.0)
    at_capacity = active & (mu >= 1.0 - 1e-12)
    sigma_hat = np.minimum(uncertainty_growth,
                           _FEASIBILITY_MARGIN * np.sqrt(mu * (1.0 - mu)))
    fixed = active & ~at_capacity & (sigma_hat <= _DEGENERATE_STD)
    drawn = active & ~at_capacity & ~fixed
    out = np.zeros(target.shape + (k,))
    out[at_capacity] = 1.0
    out[fixed] = mu[fixed, None]
    a, b = _beta_shape(mu[drawn], sigma_hat[drawn])
    hours = np.nonzero(drawn)[1]
    quantiles = _start_rows(special.betaincinv, a[:, None], b[:, None], u_weather.T[hours])

    def finish():
        out[drawn] = quantiles()
        return RenewableLevels(caps, out, tuple(errors))

    return finish


def draw_and_build(config: ScenarioConfig, penetrations, capacities,
                   uncertainty_growth: float) -> tuple[LoadDraws, RenewableLevels]:
    """``draw_loads(config)`` and ``build_levels`` of its draws, with the load
    quantiles drawn while threads run the renewables' row blocks.

    Both uniform arrays are drawn first, in ``draw_loads``' order, and the
    levels are checked and their ``betaincinv`` blocks started; the caller
    then draws the loads, runs the blocks left and joins the threads.  The
    bits are those of the two calls.  A failed load draw is raised, as when
    the loads were drawn before the renewables, after the threads are
    joined.
    """
    u_load, u_weather = _draw_uniforms(config)
    finish = _start_levels(config, u_weather, penetrations, capacities, uncertainty_growth)
    try:
        load = _load_quantiles(config, u_load)
    except BaseException:
        with contextlib.suppress(Exception):
            finish()
        raise
    return LoadDraws(config, load, u_weather), finish()
