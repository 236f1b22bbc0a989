"""Reference VaR, CVaR and scenario arrays for the tests, written apart from
the kernels they check.

``var_cvar`` is the atom formula: the draws are merged into atoms by a plain
loop in draw order, the VaR is the first atom whose cumulative probability
reaches alpha, and the CVaR weights that atom (F(q) - alpha) / (1 - alpha)
and every atom above it p / (1 - alpha).  ``rockafellar_cvar`` is the
minimisation form of Rockafellar and Uryasev (J. Risk, 2000): the minimum of
``eta + E[(X - eta)^+] / (1 - alpha)`` over every atom, so it does not rest
on ``var_cvar``'s quantile.  Neither calls ``gridclear.risk``.

A merged atom's value is its first draw, so tied zeros of both signs give
the sign of the first; the kernel's sort picks either, and
``same_atom_bits`` allows for that.

``scenario_arrays`` gives the loads, renewables and probabilities one level
of a run clears, from a one-level ``draw_and_build``, and ``loads`` the
loads of a config drawn with no level.
"""

import numpy as np

from gridclear import ConfigurationError
from gridclear.experiment import derive_capacity, scenario_config
from gridclear.scenarios import draw_and_build


def atoms(values, probabilities):
    """The distinct values, increasing, and each one's probability: the
    probabilities of its draws added one by one in draw order."""
    merged = {}  # -0.0 and 0.0 are one key, the first one drawn
    for value, prob in zip(np.asarray(values, dtype=float).tolist(),
                           np.asarray(probabilities, dtype=float).tolist()):
        merged[value] = merged.get(value, 0.0) + prob
    ordered = sorted(merged)
    return np.array(ordered), np.array([merged[v] for v in ordered])


def var_cvar(values, probabilities, alpha):
    """VaR and CVaR of the draws ``values`` weighted by ``probabilities``: a
    CDF search and one dot product over their atoms."""
    values, probs = atoms(values, probabilities)
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    idx = min(int(np.searchsorted(cdf, alpha, side="left")), values.size - 1)
    scale = 1.0 - alpha
    weights = np.zeros(values.size)
    weights[idx] = (cdf[idx] - alpha) / scale
    weights[idx + 1:] = probs[idx + 1:] / scale
    return float(values[idx]), float(weights @ values)


def var(values, probabilities, alpha):
    return var_cvar(values, probabilities, alpha)[0]


def cvar(values, probabilities, alpha):
    return var_cvar(values, probabilities, alpha)[1]


def rockafellar_objective(values, probabilities, alpha, eta):
    """eta + E[(X - eta)^+] / (1 - alpha), the convex function whose minimum is the CVaR."""
    excess = np.maximum(np.asarray(values, dtype=float) - eta, 0.0)
    return float(eta + np.asarray(probabilities, dtype=float) @ excess / (1.0 - alpha))


def rockafellar_cvar(values, probabilities, alpha):
    """The CVaR as the objective's minimum over every draw: the objective is
    piecewise linear with its kinks at the draws, so one of them attains it."""
    values = np.asarray(values, dtype=float)
    excess = np.maximum(values[None, :] - values[:, None], 0.0)
    objective = values + excess @ np.asarray(probabilities, dtype=float) / (1.0 - alpha)
    return float(objective.min())


def same_atom_bits(got, want):
    """Equal bits, except that a zero may carry either sign."""
    got, want = float(got), float(want)
    return np.float64(got).tobytes() == np.float64(want).tobytes() or got == want == 0.0


def level_arrays(config, penetration, capacity, uncertainty_growth):
    """``(load, renewable, probabilities)`` of one level drawn on ``config``;
    raises the level's error as a ConfigurationError."""
    drawn = draw_and_build(config, [penetration], [capacity], uncertainty_growth)
    if drawn.errors[0] is not None:
        raise ConfigurationError(drawn.errors[0])
    return drawn.load, drawn.renewable(0), drawn.probabilities


def loads(config):
    """The read-only loads of ``config``: ``draw_and_build`` with no level."""
    return draw_and_build(config, [], np.empty((0, config.n_buses)), 0.0).load


def scenario_arrays(run, penetration):
    """``level_arrays`` of one penetration level of ``run``."""
    capacity = derive_capacity(run.load_mean_per_bus, penetration, run.capacity_mode)
    return level_arrays(scenario_config(run), penetration, capacity, run.uncertainty_growth)
