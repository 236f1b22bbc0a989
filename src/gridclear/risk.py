"""Empirical value-at-risk and conditional value-at-risk on weighted samples.

The estimators here are exact for finite weighted samples: the atom that
straddles the confidence level is split by weight, which is the discrete
analogue of rescaling the tail of a continuous CDF.

``cvar_rows`` is the one kernel: it takes m samples as the rows of an (m, K)
array sharing one probability vector and returns every row's VaR and CVaR.
With equal probabilities, the case of every scenario set, it sorts the rows
in blocks of ``_SORT_BLOCK`` elements and weights each tie-free row's sorted
draws by one tail vector that all of them share.  A row with a tie, and
every row of a sample with unequal weights, is merged into atoms by
``_atoms``, one row at a time, and weighted by the same tail formula.  Both
paths give the bits of the merged-atom estimator, and each confidence level
of a grid takes all of its CVaRs from one call.  The tests check the kernel
against references of their own: the atom formula on a loop merge, and the
minimisation form of Rockafellar and Uryasev.
"""

from __future__ import annotations

import numpy as np

_PROB_SUM_TOL = 1e-12
# elements per sort in cvar_rows, which holds one block's sorted copy at a time
_SORT_BLOCK = 1 << 16


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"confidence level must lie strictly inside (0, 1), got {alpha}")
    return alpha


def _check_draws(values: np.ndarray, probs: np.ndarray) -> None:
    """Reject draws ``values`` (m, K) and weights ``probs`` (K,) that no sample
    can hold."""
    if values.ndim != 2:
        raise ValueError(f"values must be a 2-D array of draws, got shape {values.shape}")
    if probs.ndim != 1 or values.shape[-1:] != probs.shape:
        raise ValueError("one probability per value")
    if probs.size == 0:
        raise ValueError("a sample needs at least one atom")
    if not np.all(np.isfinite(values)):
        raise ValueError("sample atoms must be finite")
    if not np.all(np.isfinite(probs)):
        raise ValueError("probabilities must be finite")
    if np.any(probs <= 0.0):
        raise ValueError("probabilities must be strictly positive")
    if abs(probs.sum() - 1.0) > _PROB_SUM_TOL:
        raise ValueError(f"probabilities must sum to 1 within {_PROB_SUM_TOL}, "
                         f"got {probs.sum()!r}")


def _atoms(values: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of one row of draws, increasing, and each one's
    probability, its tied draws' probabilities added in draw order."""
    uniq, inverse = np.unique(values, return_inverse=True)
    return uniq, np.bincount(inverse, weights=probs, minlength=uniq.size)


def _tail_weights(probs: np.ndarray, alpha: float) -> tuple[int, np.ndarray]:
    """Index of the ``alpha`` quantile among increasing atoms of probabilities
    ``probs`` summing to 1, and each atom's weight in the CVaR."""
    scale = 1.0 - alpha
    cdf = np.cumsum(probs)
    # total mass is 1 by the caller's check; pin the top so tail weights are exact
    cdf[-1] = 1.0
    # alpha < 1 = cdf[-1], so the quantile atom is always inside the row
    idx = int((cdf < alpha).sum())
    weights = np.zeros(probs.size)
    weights[idx + 1:] = probs[idx + 1:] / scale
    weights[idx] = (cdf[idx] - alpha) / scale
    return idx, weights


def cvar_rows(values, probabilities, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """VaR and CVaR at ``alpha`` of each row of ``values`` (m, K).

    Every row is a sample of K draws weighted by the same ``probabilities``
    (K,).  Tied draws merge into one atom whose probability is added in draw
    order; the VaR is the smallest atom whose cumulative probability reaches
    ``alpha``, and the CVaR is one dot product over the row's atoms, the
    quantile atom weighted (F(q) - alpha) / (1 - alpha) and every atom above
    it p / (1 - alpha).

    When the probabilities are all equal, the rows are sorted in blocks of at
    most ``_SORT_BLOCK`` elements, and every block row without a tie shares
    one tail weight vector: its atoms are its sorted draws and their
    probabilities are the K equal ones, so that vector is the one its merged
    atoms would give.  A row with a tie (``-0.0`` and ``0.0`` tie), and every
    row of a sample with unequal weights, is merged by ``_atoms``, one row at
    a time.  Returns ``(var, cvar)``, each (m,).
    """
    alpha = _check_alpha(alpha)
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probabilities, dtype=float)
    _check_draws(values, probs)
    m, k = values.shape
    var_out, cvar_out = np.empty(m), np.empty(m)
    merged = range(m)  # the rows merged into atoms: all of them, unless weights are equal
    if np.all(probs == probs[0]):
        idx, weights = _tail_weights(probs, alpha)
        merged = []
        step = max(1, _SORT_BLOCK // k)
        for start in range(0, m, step):
            block = slice(start, start + step)
            draws = np.sort(values[block], axis=1)
            var_out[block] = draws[:, idx]
            np.vecdot(weights, draws, out=cvar_out[block])
            merged.extend(start + np.flatnonzero((draws[:, 1:] == draws[:, :-1]).any(axis=1)))
    for row in merged:
        atoms, atom_probs = _atoms(values[row], probs)
        idx, weights = _tail_weights(atom_probs, alpha)
        var_out[row], cvar_out[row] = atoms[idx], np.vecdot(weights, atoms)
    return var_out, cvar_out
