"""Monte Carlo scenarios of load and renewable output: ``draw_and_build``.

What is drawn.  Loads are truncated-at-zero Gaussians per (bus, hour);
renewable output is Beta on [0, capacity], its mean the system-wide share
of capacity that carries ``penetration`` times the hour's expected load,
its standard deviation ``uncertainty_growth * capacity`` (clamped inside
Beta feasibility).  One weather uniform per (scenario, hour) drives every
bus's renewables, so they are comonotone across buses while the loads stay
independent; each (level, hour) takes one Beta quantile per scenario,
scaled by each bus's capacity.  A (bus, hour) or (level, hour) whose std is
degenerate is its mean in every scenario.

In what order.  One generator, ``Generator(PCG64(seed))`` (what
``np.random.default_rng(seed)`` returns), draws ``u_load`` (n_scenarios,
n_buses, horizon) and then ``u_weather`` (n_scenarios, horizon).  Every
level of a run is built on that one draw, so the levels share one
read-only load array and one weather draw: the common random numbers are
structural, not a side effect of reseeding.  The outputs are a pure,
deterministic function of the config and the levels' arguments; the load
array and each level's renewables are read-only.

What is bit-pinned.  The loads equal scipy's ``truncnorm.ppf`` and the
renewables ``beta.ppf``, bit for bit, on the uniforms, and the uniforms
those of ``np.random.default_rng``:
``tests/test_batch_equivalence.py`` checks the quantiles and
``test_numpy_random_and_secrets_work_after_the_stub_load`` the uniforms.
The quantiles come from the compiled ``scipy.special._ufuncs`` and the
generator from ``numpy.random._generator``, each loaded by ``_load_bare``
when this module is imported, without its package init
(``test_cli_import_leaves_scipy_stats_unloaded`` and
``test_cli_import_leaves_the_special_package_init_unloaded``), so a run
imports nothing (``test_runs_import_no_module_after_the_cli_import``).  The
load draw makes one ``np.log``, ``np.exp``, ``np.log1p`` and
``ndtri_exp`` call over every drawn (bus, hour) row; that equals one call
per hour because numpy gives an element the same bits wherever it sits in
an array, which ``test_numpy_log_exp_log1p_bits_do_not_depend_on_the_position``
pins on the ranges the quantile feeds them.

What the threads may do.  Only a scalar ufunc, whose every element depends
on its own inputs alone, is split: the one ``betaincinv`` call over every
drawn (level, hour, scenario), cut by ``_split_beside`` into contiguous row
blocks of at least ``_SPLIT_MIN`` elements.  The caller and at most
``_MAX_WORKERS - 1`` threads take the blocks in row order from one shared
counter, each writing only its own rows of one output, so the bits do not
depend on the CPU count (the row-block tests of ``tests/test_scenarios.py``).
The caller draws the loads while the threads run, then takes blocks itself.
No ``np.log``, ``np.exp`` or ``np.log1p`` call is split across threads.  The
threads start and are joined inside the one ``_split_beside`` call, before
it returns or raises.  A failed load draw is raised, and no block is handed
out after it; otherwise a failure in any block is raised in the caller.
"""

from __future__ import annotations

import contextvars
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

# numpy's Generator and PCG64.  bit_generator imports secrets, and with it
# hmac and OpenSSL, for randbits, which only an unseeded SeedSequence reads;
# so the load sees a stand-in secrets holding what secrets.randbits is
_secrets = types.ModuleType("secrets")
_secrets.randbits = random.SystemRandom().getrandbits
_random = _load_bare("numpy.random", "_generator", ("Generator", "PCG64"),
                     {"secrets": _secrets})


def _generator(seed):
    """``np.random.default_rng(seed)`` for an integer seed: ``Generator(PCG64(seed))``."""
    return _random.Generator(_random.PCG64(seed))


# keep the target std strictly inside the Beta feasibility bound sqrt(mu*(1-mu))
_FEASIBILITY_MARGIN = 0.95
_DEGENERATE_STD = 1e-9


# a ufunc call is cut into row blocks of at least _SPLIT_MIN elements each,
# run by the caller and at most _MAX_WORKERS - 1 threads (see _split_beside)
_SPLIT_MIN = 2048
_MAX_WORKERS = 4


def _workers() -> int:
    """The CPUs this process may run on, at most ``_MAX_WORKERS``."""
    if hasattr(os, "sched_getaffinity"):
        count = len(os.sched_getaffinity(0))
    else:
        count = os.cpu_count() or 1
    return min(count, _MAX_WORKERS)


def _split_beside(meanwhile, ufunc, *args):
    """``(meanwhile(), ufunc(*args))``, the ufunc's leading axis cut into
    contiguous row blocks that threads run while the caller runs ``meanwhile``.

    The rows are cut evenly into as many blocks as they hold ``_SPLIT_MIN``
    elements each.  Each block is the ufunc on its rows of the broadcast
    arguments, written into its rows of one new output array, so for a
    scalar ufunc (each element's bits depend on its own inputs alone) the
    result equals one call bit for bit.  With one block or one worker no
    thread starts: ``meanwhile`` runs, then the one call.  Otherwise one
    thread per other worker, at most one per other block, starts and takes
    the next block, in row order, from a shared counter until none is left;
    the caller runs ``meanwhile``, then block 0, then takes blocks from the
    counter as the threads do.  Each thread runs in a copy of the caller's
    context, which carries numpy's error state, and under the caller's
    ``scipy.special`` error actions, which are per thread.  Every thread is
    joined before this returns or raises.  An exception of ``meanwhile`` is
    raised, and the counter hands out no block after it, so the join waits
    for at most one block per thread; otherwise the exception of the first
    failing block in row order is raised.
    """
    broadcast = np.broadcast(*args)
    n_rows = broadcast.shape[0] if broadcast.size >= _SPLIT_MIN else 0
    # as many blocks as the rows hold _SPLIT_MIN elements each, rounded down
    blocks = n_rows // -(-_SPLIT_MIN * n_rows // broadcast.size) if n_rows else 0
    workers = min(_workers(), blocks)
    if workers < 2:
        return meanwhile(), ufunc(*args)
    arrays = np.broadcast_arrays(*args)
    out = np.empty(broadcast.shape, np.result_type(*arrays))
    bounds = [n_rows * i // blocks for i in range(blocks + 1)]
    errors = [None] * blocks
    actions = special.geterr()
    following = list(range(blocks - 1, 0, -1))  # popped in row order; block 0 is the caller's
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
                if not following:
                    return
                block = following.pop()
            compute(block)

    started = []
    try:
        for _ in range(workers - 1):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(run,))
            thread.start()
            started.append(thread)
        done = meanwhile()
        compute(0)
        run()
    finally:
        with lock:
            following.clear()  # empty already, unless the caller failed
        for thread in started:
            thread.join()
    for error in errors:
        if error is not None:
            raise error
    return done, out


def _check_draw(dims) -> None:
    """Reject the ``n_buses``, ``horizon``, ``n_scenarios`` and ``seed`` of
    ``dims`` where no draw can take them: a value that is not a Python or
    numpy integer (bools too), a dimension below 1, a negative seed, or
    more load draws than numpy's largest float array holds."""
    for name in ("n_buses", "horizon", "n_scenarios", "seed"):
        value = getattr(dims, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ConfigurationError(f"{name} {value!r} must be an integer")
    for name in ("n_buses", "horizon", "n_scenarios"):
        if getattr(dims, name) < 1:
            raise ConfigurationError(f"{name} {getattr(dims, name)} must be at least 1")
    if dims.seed < 0:
        raise ConfigurationError(f"seed {dims.seed} must be non-negative")
    # Python integers, so that the product of numpy integers cannot wrap
    draws = int(dims.n_scenarios) * int(dims.n_buses) * int(dims.horizon)
    if draws > np.iinfo(np.intp).max // np.dtype(float).itemsize:
        raise ConfigurationError(f"n_scenarios {dims.n_scenarios} x n_buses {dims.n_buses} "
                                 f"x horizon {dims.horizon} = {draws} load draws, more "
                                 f"than numpy's largest float array holds")


@dataclass(frozen=True)
class ScenarioConfig:
    """The load process and the draw: dimensions, seed and per-bus loads.

    load_mean, load_std: arrays of shape (n_buses, horizon) in MW.  The
    renewables of a level are ``draw_and_build``'s arguments, not the config's.
    """

    n_buses: int
    horizon: int
    n_scenarios: int
    seed: int
    load_mean: np.ndarray
    load_std: np.ndarray

    def __post_init__(self):
        _check_draw(self)
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


def _draw_uniforms(config: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """The uniforms of ``config``: ``u_load`` (n_scenarios, n_buses, horizon),
    then ``u_weather`` (n_scenarios, horizon), from one generator."""
    rng = _generator(config.seed)
    # u_load before u_weather: the draw order fixes every scenario's bits
    u_load = rng.random((config.n_scenarios, config.n_buses, config.horizon))
    u_weather = rng.random((config.n_scenarios, config.horizon))
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


@dataclass(frozen=True)
class Scenarios:
    """The scenarios of a run: one load draw, and the renewables of L
    penetration levels on one weather draw.

    load: (n_buses, horizon, n_scenarios) MW, read-only, shared by every
    level.  capacity: (L, n_buses) MW.  share: (L, horizon, n_scenarios),
    every bus's output per MW of its capacity: 0 where the hour's target is
    zero, 1 at capacity, the mean share where the std is degenerate, else
    the Beta quantile of the weather uniform.  errors: per level, None or
    the message naming its first infeasible hour (its shares are 0).  A
    level's (n_buses, horizon, n_scenarios) array is one multiply, capacity
    times share, made by ``renewable`` where it is used, so a grid holds one
    level's array at a time.
    """

    load: np.ndarray
    capacity: np.ndarray
    share: np.ndarray
    errors: tuple[str | None, ...]

    @property
    def probabilities(self) -> np.ndarray:
        """The scenarios are equiprobable."""
        k = self.load.shape[2]
        return np.full(k, 1.0 / k)

    def renewable(self, level: int) -> np.ndarray:
        """Level ``level``'s renewable output, read-only."""
        # share is in [0, 1] and capacity >= 0, so the rounded product stays in [0, cap]
        out = self.capacity[level][:, None, None] * self.share[level]
        out.flags.writeable = False
        return out


def draw_and_build(config: ScenarioConfig, penetrations, capacities,
                   uncertainty_growth: float) -> Scenarios:
    """The loads of ``config`` and the renewables of every level on its weather.

    Level l has penetration ``penetrations[l]`` and per-bus capacity
    ``capacities[l]``.  Both uniform arrays are drawn first
    (``_draw_uniforms``).  The levels are then checked: each (level, hour)
    takes its Beta shape from the hour's system-wide mean share, and a
    level that asks for more mean renewable output than its capacity can
    carry gets the error of its first such hour instead.  The one
    ``betaincinv`` call over every drawn quantile runs in ``_split_beside``'s
    row blocks, beside the load draw (``_load_quantiles``) in the caller.
    A failed load draw is raised after the threads are joined.
    """
    u_load, u_weather = _draw_uniforms(config)
    given = list(penetrations)  # named in the messages as the caller wrote them
    penetrations = np.asarray(given, dtype=float)
    caps = np.asarray(capacities, dtype=float) + 0.0  # a -0.0 capacity builds +0.0 output
    for name, value in (("penetration", penetrations), ("renewable capacities", caps),
                        ("uncertainty_growth", uncertainty_growth)):
        if not np.all((value >= 0.0) & np.isfinite(value)):
            raise ConfigurationError(f"{name} must be non-negative and finite")
    mean = config.load_mean
    if caps.shape != (penetrations.size, mean.shape[0]):
        raise ConfigurationError(f"need one capacity per bus for each of the "
                                 f"{penetrations.size} levels, got shape {caps.shape}")
    # each hour's bus sum rounds as mean[:, t].sum() does, not as mean.sum(axis=0);
    # an overflowing target is inf, which the share check below rejects
    with np.errstate(over="ignore"):
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
    out = np.zeros(target.shape + (config.n_scenarios,))
    out[at_capacity] = 1.0
    out[fixed] = mu[fixed, None]
    a, b = _beta_shape(mu[drawn], sigma_hat[drawn])
    hours = np.nonzero(drawn)[1]
    load, out[drawn] = _split_beside(lambda: _load_quantiles(config, u_load),
                                     special.betaincinv, a[:, None], b[:, None],
                                     u_weather.T[hours])
    return Scenarios(load, caps, out, tuple(errors))
