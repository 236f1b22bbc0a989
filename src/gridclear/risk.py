"""Empirical value-at-risk and conditional value-at-risk on weighted samples.

The estimators here are exact for finite weighted samples: the atom that
straddles the confidence level is split by weight, which is the discrete
analogue of rescaling the tail of a continuous CDF.  Two CVaR routes are
provided, the direct tail expectation and the minimization form; they agree
to float precision and are used as mutual cross-checks throughout the test
suite.

``cvar_rows`` is the one kernel of the direct route: it takes m samples as
the rows of an (m, K) array sharing one probability vector, merges each
row's tied draws and returns every row's VaR and CVaR in one pass.  ``var``
and ``cvar_direct`` are one-row calls of it, and the commitment takes all of
an hour's CVaRs (or, off the feeder, all hours') from one call.  The kernel
and ``EmpiricalSample`` reject the same inputs with the same messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

_PROB_SUM_TOL = 1e-12


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"confidence level must lie strictly inside (0, 1), got {alpha}")
    return alpha


def _check_draws(values: np.ndarray, probs: np.ndarray, ndim: int) -> None:
    """Reject draws ``values`` (``ndim``-D, K per row) and weights ``probs`` (K,)
    that no sample can hold."""
    if values.ndim != ndim:
        raise ValueError(f"values must be a {ndim}-D array of draws, got shape {values.shape}")
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


@dataclass(frozen=True)
class EmpiricalSample:
    """A finite weighted sample of a scalar quantity (MW when a net load).

    Invariants enforced at construction:

    * at least one atom,
    * strictly increasing values (equal draws must be merged beforehand;
      use :meth:`from_points` / :meth:`from_arrays` to merge automatically),
    * strictly positive probabilities summing to one within 1e-12.
    """

    values: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        probs = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probabilities", probs)
        _check_draws(values, probs, 1)
        if np.any(np.diff(values) <= 0.0):
            raise ValueError("values must be strictly increasing; merge ties first")

    @classmethod
    def from_arrays(cls, values, probabilities) -> "EmpiricalSample":
        """Build a sample from raw draws: sorts by value and merges ties."""
        values = np.asarray(values, dtype=float)
        probs = np.asarray(probabilities, dtype=float)
        _check_draws(values, probs, 1)
        uniq, inverse = np.unique(values, return_inverse=True)
        merged = np.bincount(inverse, weights=probs, minlength=uniq.size)
        return cls(uniq, merged)

    @classmethod
    def from_points(cls, points: Iterable[tuple[float, float]]) -> "EmpiricalSample":
        """Build a sample from (value, probability) pairs."""
        pts = np.asarray(list(points), dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must be (value, probability) pairs")
        return cls.from_arrays(pts[:, 0], pts[:, 1])

    @property
    def points(self) -> list[tuple[float, float]]:
        return list(zip(self.values.tolist(), self.probabilities.tolist()))


def cvar_rows(values, probabilities, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """VaR and CVaR at ``alpha`` of each row of ``values`` (m, K), in one pass.

    Every row is a sample of K draws weighted by the same ``probabilities``
    (K,).  Row by row the results have the bits of :func:`var` and
    :func:`cvar_direct` on ``EmpiricalSample.from_arrays(row, probabilities)``:
    tied draws merge into one atom whose probability is added in draw order,
    and each CVaR is one dot product over that row's atoms, so rows with the
    same atom count share one ``vecdot``.  Returns ``(var, cvar)``, each (m,).
    """
    alpha = _check_alpha(alpha)
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probabilities, dtype=float)
    _check_draws(values, probs, 2)
    m, k = values.shape
    # flat index of each row's draws in sorted order
    order = (np.argsort(values, axis=1) + k * np.arange(m)[:, None]).ravel()
    draws = values.ravel()[order].reshape(m, k)
    first = np.ones((m, k), dtype=bool)  # a sorted draw that opens a new atom
    first[:, 1:] = draws[:, 1:] != draws[:, :-1]
    atom = np.empty(m * k, dtype=np.intp)  # atom id of each draw, numbered across rows
    atom[order] = np.cumsum(first.ravel()) - 1
    # bincount walks the draws row by row in draw order, as np.unique + bincount does
    merged = np.bincount(atom, weights=np.tile(probs, m))
    atoms = draws[first]
    counts = first.sum(axis=1)
    starts = np.cumsum(counts) - counts
    var_out, cvar_out = np.empty(m), np.empty(m)
    scale = 1.0 - alpha
    for c in set(counts.tolist()):
        rows = np.flatnonzero(counts == c)
        at = starts[rows, None] + np.arange(c)
        p, x = merged[at], atoms[at]
        cdf = np.cumsum(p, axis=1)
        # total mass is 1 by the check above; pin the top so tail weights are exact
        cdf[:, -1] = 1.0
        # alpha < 1 = cdf[:, -1], so the quantile atom is always inside the row
        idx = (cdf < alpha).sum(axis=1)
        weights = np.where(np.arange(c) > idx[:, None], p / scale, 0.0)
        g = np.arange(rows.size)
        weights[g, idx] = (cdf[g, idx] - alpha) / scale
        var_out[rows] = x[g, idx]
        cvar_out[rows] = np.vecdot(weights, x)
    return var_out, cvar_out


def var(sample: EmpiricalSample, alpha: float) -> float:
    """Smallest sample value whose cumulative probability reaches ``alpha``.

    Exact on the discrete CDF, no interpolation: when ``alpha`` lands exactly
    on a CDF jump the value at the jump is returned (the min of the
    superlevel set).  A one-row call of :func:`cvar_rows`.
    """
    return float(cvar_rows(sample.values[None, :], sample.probabilities, alpha)[0][0])


def cvar_direct(sample: EmpiricalSample, alpha: float) -> float:
    """Tail expectation above the ``alpha`` quantile, computed exactly.

    The atom at the quantile carries weight (F(q) - alpha) / (1 - alpha) and
    every atom above it carries p / (1 - alpha); the rescaled weights sum to
    one by construction.  A one-row call of :func:`cvar_rows`.
    """
    return float(cvar_rows(sample.values[None, :], sample.probabilities, alpha)[1][0])


def rockafellar_objective(sample: EmpiricalSample, alpha: float, eta: float) -> float:
    """eta + E[(X - eta)+] / (1 - alpha), the convex objective whose minimum is CVaR."""
    alpha = _check_alpha(alpha)
    excess = np.maximum(sample.values - eta, 0.0)
    return float(eta + (sample.probabilities @ excess) / (1.0 - alpha))


def cvar_rockafellar(sample: EmpiricalSample, alpha: float) -> float:
    """CVaR through the minimization form.

    For a discrete sample the minimizer is the ``alpha`` quantile, so a single
    objective evaluation suffices; agrees with :func:`cvar_direct` to float
    precision.
    """
    return rockafellar_objective(sample, alpha, var(sample, alpha))
