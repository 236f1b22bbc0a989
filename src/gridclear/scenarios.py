"""Monte Carlo scenario sets for loads and renewable output.

Loads are truncated-at-zero Gaussians per bus; renewable output is Beta on
[0, capacity] with mean chosen so the aggregate expected renewable output is
``penetration`` times the aggregate expected load, and standard deviation
``uncertainty_growth * capacity`` (clamped to Beta feasibility).  A single
weather uniform per (time, scenario) drives every bus's renewable draw, so
renewables are comonotone across buses while loads stay independent.

The mean share of capacity is system-wide, so the Beta shape depends only
on the level and the hour: each (level, hour) takes one Beta quantile per
scenario, shared by all buses and scaled by each bus's capacity.  Load
quantiles are drawn one hour at a time over (bus, scenario).

Generation has two halves.  ``draw_loads`` draws the uniforms (``u_load``
then ``u_weather``, in that order from one generator seeded by the config)
and turns ``u_load`` into loads; none of it depends on the penetration.
``build_levels`` turns ``u_weather`` into the renewables of any number of
levels with one ``betaincinv`` call over every drawn (level, hour,
scenario), cut into row blocks on threads when it is large (below); the
zero-target, at-capacity and degenerate-std hours, and each level's first
infeasible hour, are masks over (level, hour).  It keeps one
(level, hour, scenario) array of output per MW and builds a level's
(bus, hour, scenario) array only when asked.  ``generate_scenarios`` is the
two halves in sequence: ``draw_loads`` and a one-level ``build_levels`` on
the same config.  A penetration sweep draws the loads once and builds every
level from them, so all levels share one read-only load array and one
weather draw: the common random numbers are structural, not a side effect
of reseeding.

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
as ``rv_continuous.ppf`` wraps it: u = 0 gives the lower bound, the kernel
runs on the compressed positive draws, and the result is
``x * scale + loc``.  Its per-(bus, hour) constants (``ndtr``, the
log-mass, ``log_ndtr``) are scalar ufuncs computed once per bus and then
broadcast; ``np.log``, ``np.exp`` and ``np.log1p`` run once per hour on
that hour's drawn (bus, scenario) values, and scipy's two-term
``logsumexp`` is written out as ``log1p(exp(min - max)) + max``, which
rounds as it does (a tie gives ``log1p(1.0) == log(2.0)``).  So the draws
equal those of ``truncnorm.ppf`` and ``beta.ppf`` bit for bit on the
uniforms ``Generator.random`` makes (multiples of 2**-53 in [0, 1));
``tests/test_batch_equivalence.py`` checks this.  The call shape matters:
numpy's SIMD ``log`` may round the head and tail lanes of an array
differently, so those calls are not regrouped, and no ``np.log``,
``np.exp`` or ``np.log1p`` call is split.

A scalar ufunc can be split, since each element's bits depend on its own
inputs alone, and ``betaincinv`` releases the GIL.  ``_split_rows`` cuts
the one ``betaincinv`` call of ``build_levels`` into contiguous blocks of
(level, hour) rows once it has at least ``_SPLIT_MIN`` (2,048) elements:
the caller computes the first block and one thread per other block
computes the rest, into one output.  There is one block per CPU of the
process's affinity, at most ``_MAX_WORKERS`` (4) and at most one per row.
On a 2-vCPU host (two measurements), two blocks took 1.9 times one call's
time at 512 elements and 1.3 at 768, 0.85 at 1,024, 0.83-0.97 at 2,048,
0.63 at 8,000 and 0.54-0.55 at 24,000 (a T 24, K 1000 run).  The per-hour
``ndtri_exp`` calls of ``draw_loads`` are left as they are, one call per
hour.

Everything is a pure, deterministic function of the config (seed included);
the arrays of a scenario set are read-only, so sets that share them are safe
to hand to any number of grid points.
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
from .risk import EmpiricalSample

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
# _MAX_WORKERS row blocks, run by the caller and threads (see _split_rows)
_SPLIT_MIN = 2048
_MAX_WORKERS = 4


def _workers() -> int:
    """The CPUs this process may run on, at most ``_MAX_WORKERS``."""
    if hasattr(os, "sched_getaffinity"):
        count = len(os.sched_getaffinity(0))
    else:
        count = os.cpu_count() or 1
    return min(count, _MAX_WORKERS)


def _split_rows(ufunc, *args):
    """``ufunc(*args)``, with the leading axis cut into contiguous row blocks.

    Each block is the ufunc on its rows of the broadcast arguments, written
    into its rows of one output, so for a scalar ufunc (each element's bits
    depend on its own inputs alone) the result equals one call bit for bit.
    Below ``_SPLIT_MIN`` elements, with one row or with one worker, it is
    one call.  The caller runs the first block; each other block runs on a
    thread in a copy of the caller's context, which carries numpy's error
    state, and under the caller's ``scipy.special`` error actions, which are
    per thread.  Every thread is joined before the call returns, and the
    exception of the first failing block, in row order, is raised in the
    caller.
    """
    broadcast = np.broadcast(*args)
    workers = min(_workers(), broadcast.shape[0]) if broadcast.size >= _SPLIT_MIN else 1
    if workers < 2:
        return ufunc(*args)
    arrays = np.broadcast_arrays(*args)
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
    """Joint load/renewable process parameters.

    load_mean, load_std: arrays of shape (n_buses, horizon) in MW.
    renewable_capacity: per-bus installed capacity in MW.
    penetration: mean renewable output as a fraction of mean aggregate load.
    uncertainty_growth: renewable standard deviation per MW of capacity.
    """

    n_buses: int
    horizon: int
    n_scenarios: int
    seed: int
    load_mean: np.ndarray
    load_std: np.ndarray
    renewable_capacity: np.ndarray
    penetration: float
    uncertainty_growth: float

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
        cap = np.broadcast_to(np.asarray(self.renewable_capacity, dtype=float),
                              (self.n_buses,)).copy()
        object.__setattr__(self, "load_mean", mean)
        object.__setattr__(self, "load_std", std)
        object.__setattr__(self, "renewable_capacity", cap)
        for name, value in (("load_mean", mean), ("load_std", std),
                            ("renewable_capacity", cap),
                            ("penetration", self.penetration),
                            ("uncertainty_growth", self.uncertainty_growth)):
            if not np.all(np.isfinite(value)):
                raise ConfigurationError(f"{name} must be finite")
        if np.any(mean < 0.0) or np.any(std < 0.0):
            raise ConfigurationError("load means and stds must be non-negative")
        if np.any(cap < 0.0):
            raise ConfigurationError("renewable capacities must be non-negative")
        if self.penetration < 0.0:
            raise ConfigurationError("penetration must be non-negative")
        if self.uncertainty_growth < 0.0:
            raise ConfigurationError("uncertainty_growth must be non-negative")


def _frozen(name: str, value) -> np.ndarray:
    """A read-only float view of ``value``; rejects NaN and infinities by name."""
    array = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(array)):
        raise ConfigurationError(f"{name} must be finite")
    array = array.view()
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class ScenarioSet:
    """K equiprobable joint trajectories of load and renewable output.

    load and renewable have shape (n_buses, horizon, n_scenarios); every
    array is stored read-only, since the levels of a sweep share ``load``.
    """

    probabilities: np.ndarray
    load: np.ndarray
    renewable: np.ndarray

    def __post_init__(self):
        for name in ("probabilities", "load", "renewable"):
            object.__setattr__(self, name, _frozen(name, getattr(self, name)))
        probs = self.probabilities
        if np.any(probs <= 0.0) or abs(probs.sum() - 1.0) > 1e-12:
            raise ConfigurationError("scenario probabilities must be positive and sum to 1")
        if self.load.shape != self.renewable.shape or self.load.ndim != 3:
            raise ConfigurationError("load and renewable must share shape (buses, horizon, K)")
        if probs.size != self.load.shape[2]:
            raise ConfigurationError("one probability per scenario required")

    @property
    def n_buses(self) -> int:
        return self.load.shape[0]

    @property
    def horizon(self) -> int:
        return self.load.shape[1]

    @property
    def n_scenarios(self) -> int:
        return self.load.shape[2]


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

    ``loc >= 0``, so the standardised lower bound ``a`` is negative (left
    tail) or, for a zero mean, 0 (solved from the upper tail, as scipy does).
    The constants of each (loc, scale) pair are computed once, on ``a``
    before it is broadcast over the draws.
    """
    a = (0.0 - loc) / scale
    # log P(Z > a): scipy's log1p(-ndtr(a) - ndtr(-b)) at b = inf, whose
    # ndtr(-b) is +0.0, and subtracting +0.0 changes no bit
    log_mass = special.log1p(-special.ndtr(a))
    log_cdf = special.log_ndtr(a)
    q, a, loc, scale, log_mass, log_cdf = np.broadcast_arrays(q, a, loc, scale, log_mass,
                                                              log_cdf)
    out = a * scale + loc  # q == 0: the lower bound
    drawn = q > 0.0
    q, a, loc, scale, log_mass, log_cdf = (v[drawn] for v in (q, a, loc, scale, log_mass,
                                                              log_cdf))
    x = np.empty_like(q)
    left = a < 0.0
    right = ~left
    lo, hi = log_cdf[left], np.log(q[left]) + log_mass[left]
    # two-term log-sum-exp; the same bits as scipy's logsumexp([lo, hi], axis=0)
    top = np.maximum(lo, hi)
    x[left] = special.ndtri_exp(np.log1p(np.exp(np.minimum(lo, hi) - top)) + top)
    # scipy's logsumexp with log_ndtr(-inf) = -inf returns this term exactly
    x[right] = -special.ndtri_exp(np.log1p(-q[right]) + log_mass[right])
    out[drawn] = x * scale + loc
    return out


@dataclass(frozen=True)
class LoadDraws:
    """The penetration-free half of a scenario set: loads and weather uniforms.

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
    """Draw the uniforms and the loads of ``config``; the penetration is not read."""
    n, t_len, k = config.n_buses, config.horizon, config.n_scenarios
    rng = np.random.default_rng(config.seed)
    # u_load before u_weather: the draw order fixes every scenario's bits
    u_load = rng.random((k, n, t_len))
    u_weather = rng.random((k, t_len))

    load = np.empty((n, t_len, k))
    for t in range(t_len):
        m = config.load_mean[:, t]
        s = config.load_std[:, t]
        fixed = s <= _DEGENERATE_STD * np.maximum(m, 1.0)
        load[fixed, t, :] = m[fixed, None]
        drawn = ~fixed
        if drawn.any():
            loc, scale = m[drawn, None], s[drawn, None]
            load[drawn, t, :] = _truncnorm_ppf(u_load[:, drawn, t].T, loc, scale)
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


def generate_scenarios(config: ScenarioConfig) -> ScenarioSet:
    """Draw the scenario set for ``config``; bit-identical for equal configs.

    The load half and a one-level ``build_levels`` in sequence.  Raises
    ConfigurationError when the requested penetration asks for more mean
    renewable output than the installed capacity can carry, naming the
    first hour whose system-wide share is infeasible.
    """
    draws = draw_loads(config)
    levels = build_levels(draws, [config.penetration], config.renewable_capacity[None],
                          config.uncertainty_growth)
    if levels.errors[0] is not None:
        raise ConfigurationError(levels.errors[0])
    return ScenarioSet(draws.probabilities, draws.load, levels.renewable(0))


def _check_index(value: int, bound: int, what: str) -> int:
    value = int(value)
    if not 0 <= value < bound:
        raise IndexError(f"{what} {value} out of range [0, {bound})")
    return value


def net_load(scenarios: ScenarioSet, bus: int, time: int) -> EmpiricalSample:
    """Per-bus net load sample (load minus renewable; may be negative)."""
    bus = _check_index(bus, scenarios.n_buses, "bus")
    time = _check_index(time, scenarios.horizon, "time")
    values = scenarios.load[bus, time, :] - scenarios.renewable[bus, time, :]
    return EmpiricalSample.from_arrays(values, scenarios.probabilities)


def aggregate_net_load(scenarios: ScenarioSet, time: int) -> EmpiricalSample:
    """Sample of the bus-summed net load; scenario-consistent with net_load."""
    return suffix_net_load(scenarios, 0, time)


def suffix_net_load(scenarios: ScenarioSet, start_bus: int, time: int) -> EmpiricalSample:
    """Sample of the net load summed over buses start_bus..N-1 (feeder tail)."""
    start_bus = _check_index(start_bus, scenarios.n_buses, "bus")
    time = _check_index(time, scenarios.horizon, "time")
    values = np.sum(scenarios.load[start_bus:, time, :]
                    - scenarios.renewable[start_bus:, time, :], axis=0)
    return EmpiricalSample.from_arrays(values, scenarios.probabilities)
