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
(bus, hour, scenario) array only when asked.  Every run draws the loads
once and builds all of its levels from them, so all levels share one
read-only load array and one weather draw: the common random numbers are
structural, not a side effect of reseeding.

Both quantiles come from public ``scipy.special`` ufuncs, so scipy's
``stats`` subpackage, whose import cost more than the rest of a CLI
start-up, is never loaded.  All of them live in the compiled
``scipy.special._ufuncs``, which ``_load_special`` loads without the
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
inputs alone, and ``betaincinv`` releases the GIL.  ``_split_rows`` cuts
the one ``betaincinv`` call of ``build_levels`` into contiguous blocks of
(level, hour) rows once it has at least ``_SPLIT_MIN`` (2,048) elements:
the caller computes the first block and one thread per other block
computes the rest, into one output.  There is one block per CPU of the
process's affinity, at most ``_MAX_WORKERS`` (4) and at most one per row.
On a 2-vCPU host (two measurements), two blocks took 1.9 times one call's
time at 512 elements and 1.3 at 768, 0.85 at 1,024, 0.83-0.97 at 2,048,
0.63 at 8,000 and 0.54-0.55 at 24,000 (a T 24, K 1000 run).  The one
``ndtri_exp`` call of ``draw_loads`` also goes through ``_split_rows``, but
from ``_NDTRI_EXP_SPLIT_MIN`` (32,768) elements on: it costs about 25-35 ns
an element, against about 750 ns for ``betaincinv``, so a thread repays
its start only on large calls.  In 300 alternating in-process
``draw_loads`` calls per shape on the same host (two measurements), two
blocks were faster in 2-6 at 14,400 elements (the wide workload's shape,
and T 24, K 200), 96-111 at 28,800, 212-265 at 36,000 and 217-283 at
72,000 (a T 24, K 1000 run on three buses).

Everything is a pure, deterministic function of the config (seed included)
and the levels' arguments; the load, weather and renewable arrays are
read-only, so the levels that share them are safe to hand to any number of
grid points.
"""

from __future__ import annotations

import contextvars
import importlib.util
import os
import sys
import threading
import types
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

_NEEDED = ("betaincinv", "ndtri_exp", "ndtr", "log_ndtr", "log1p", "geterr", "seterr")


class _AdoptSubmodules:
    """A one-shot import hook: the real ``scipy.special``, when it is imported,
    starts with the submodules loaded under the stub as its attributes.

    The import system set them on the stub; the package's own init finds
    them in ``sys.modules`` and does not set them again, yet ``seterr`` (and
    so ``errstate``) reads ``scipy.special._special_ufuncs``.
    """

    def __init__(self, submodules):
        self.submodules = submodules

    def find_spec(self, name, path=None, target=None):
        if name != "scipy.special":
            return None
        sys.meta_path.remove(self)
        spec = importlib.util.find_spec(name)
        exec_module = spec.loader.exec_module

        def adopt_then_exec(module):
            vars(module).update(self.submodules)
            exec_module(module)

        spec.loader.exec_module = adopt_then_exec
        return spec


def _load_special():
    """The module holding the ``scipy.special`` functions in ``_NEEDED``.

    An imported ``scipy.special`` is returned as it is.  Otherwise the
    compiled ``scipy.special._ufuncs`` is loaded under a bare package stub
    that is removed at once, so a later ``import scipy.special`` runs the
    real package, which re-exports these same objects and, through
    ``_AdoptSubmodules``, holds the submodules loaded under the stub.  Any
    import error, or a missing function, falls back to the real package.
    """
    if "scipy.special" in sys.modules:
        return sys.modules["scipy.special"]
    try:
        spec = importlib.util.find_spec("scipy.special")
        stub = types.ModuleType("scipy.special")
        stub.__path__ = spec.submodule_search_locations
        sys.modules["scipy.special"] = stub
        try:
            from scipy.special import _ufuncs
        finally:
            del sys.modules["scipy.special"]
            submodules = {key: value for key, value in vars(stub).items()
                          if isinstance(value, types.ModuleType)}
            if submodules:
                sys.meta_path.insert(0, _AdoptSubmodules(submodules))
        if all(hasattr(_ufuncs, name) for name in _NEEDED):
            return _ufuncs
    except ImportError:
        pass
    from scipy import special
    return special


special = _load_special()

# keep the target std strictly inside the Beta feasibility bound sqrt(mu*(1-mu))
_FEASIBILITY_MARGIN = 0.95
_DEGENERATE_STD = 1e-9


# a ufunc call of at least _SPLIT_MIN elements is cut into at most
# _MAX_WORKERS row blocks, run by the caller and threads (see _split_rows);
# ndtri_exp costs far less per element than betaincinv, so its calls are
# cut only from _NDTRI_EXP_SPLIT_MIN elements on
_SPLIT_MIN = 2048
_NDTRI_EXP_SPLIT_MIN = 32768
_MAX_WORKERS = 4


def _workers() -> int:
    """The CPUs this process may run on, at most ``_MAX_WORKERS``."""
    if hasattr(os, "sched_getaffinity"):
        count = len(os.sched_getaffinity(0))
    else:
        count = os.cpu_count() or 1
    return min(count, _MAX_WORKERS)


def _split_rows(ufunc, *args, out=None, min_size=_SPLIT_MIN):
    """``ufunc(*args, out=out)``, with the leading axis cut into contiguous row blocks.

    Each block is the ufunc on its rows of the broadcast arguments, written
    into its rows of one output (``out``, which may be an argument, or a new
    array), so for a scalar ufunc (each element's bits depend on its own
    inputs alone) the result equals one call bit for bit.
    Below ``min_size`` elements, with one row or with one worker, it is
    one call.  The caller runs the first block; each other block runs on a
    thread in a copy of the caller's context, which carries numpy's error
    state, and under the caller's ``scipy.special`` error actions, which are
    per thread.  Every thread is joined before the call returns, and the
    exception of the first failing block, in row order, is raised in the
    caller.
    """
    broadcast = np.broadcast(*args)
    workers = min(_workers(), broadcast.shape[0]) if broadcast.size >= min_size else 1
    if workers < 2:
        return ufunc(*args, out=out)
    arrays = np.broadcast_arrays(*args)
    if out is None:
        out = np.empty(broadcast.shape, np.result_type(*arrays))
    bounds = [broadcast.shape[0] * i // workers for i in range(workers + 1)]
    errors = [None] * workers
    actions = special.geterr()

    def run(block):
        rows = slice(bounds[block], bounds[block + 1])
        try:
            if special.geterr() != actions:  # a new thread starts with scipy's defaults
                special.seterr(**actions)
            ufunc(*(x[rows] for x in arrays), out=out[rows])
        except BaseException as exc:
            errors[block] = exc

    started = []
    try:
        for block in range(1, workers):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(run, block))
            thread.start()
            started.append(thread)
        run(0)
    finally:
        for thread in started:
            thread.join()
    for error in errors:
        if error is not None:
            raise error
    return out


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
    ``np.exp`` and one ``np.log1p`` call over all of ``q``, worked in place,
    and one ``ndtri_exp`` call through ``_split_rows``.  The upper-tail rows,
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
    _split_rows(special.ndtri_exp, x, out=x, min_size=_NDTRI_EXP_SPLIT_MIN)
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


def draw_loads(config: ScenarioConfig) -> LoadDraws:
    """Draw the uniforms and the loads of ``config``.

    A (bus, hour) whose std is degenerate is its mean in every scenario;
    the others, the drawn rows, take one ``_truncnorm_ppf`` call over all
    hours.  A draw that is not finite is a ``ConfigurationError`` naming
    the bus, hour and scenario of the first one.
    """
    n, t_len, k = config.n_buses, config.horizon, config.n_scenarios
    rng = np.random.default_rng(config.seed)
    # u_load before u_weather: the draw order fixes every scenario's bits
    u_load = rng.random((k, n, t_len))
    u_weather = rng.random((k, t_len))

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
    u_weather.flags.writeable = False
    return LoadDraws(config, load, u_weather)


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
    share, and one ``betaincinv`` call draws every quantile of every level;
    from ``_SPLIT_MIN`` elements on, ``_split_rows`` runs it in up to
    ``_MAX_WORKERS`` row blocks, the first in the caller and the others on
    threads joined before the return, with the bits of one call.  A level that asks for more mean renewable output
    than its capacity can carry gets the error of its first such hour
    instead.
    """
    given = list(penetrations)  # named in the messages as the caller wrote them
    penetrations = np.asarray(given, dtype=float)
    caps = np.asarray(capacities, dtype=float) + 0.0  # a -0.0 capacity builds +0.0 output
    for name, value in (("penetration", penetrations), ("renewable capacities", caps),
                        ("uncertainty_growth", uncertainty_growth)):
        if not np.all((value >= 0.0) & np.isfinite(value)):
            raise ConfigurationError(f"{name} must be non-negative and finite")
    mean = draws.config.load_mean
    k = draws.config.n_scenarios
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
    out[drawn] = _split_rows(special.betaincinv, a[:, None], b[:, None],
                             draws.u_weather.T[hours])
    return RenewableLevels(caps, out, tuple(errors))
