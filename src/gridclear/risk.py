"""Empirical value-at-risk and conditional value-at-risk on weighted samples.

The estimators here are exact for finite weighted samples: the atom that
straddles the confidence level is split by weight, which is the discrete
analogue of rescaling the tail of a continuous CDF.  Two CVaR routes are
provided, the direct tail expectation and the minimization form; they agree
to float precision and are used as mutual cross-checks throughout the test
suite.
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
        if values.ndim != 1 or probs.ndim != 1 or values.shape != probs.shape:
            raise ValueError("values and probabilities must be 1-D arrays of equal length")
        if values.size == 0:
            raise ValueError("a sample needs at least one atom")
        if not np.all(np.isfinite(values)) or not np.all(np.isfinite(probs)):
            raise ValueError("sample atoms must be finite")
        if np.any(probs <= 0.0):
            raise ValueError("probabilities must be strictly positive")
        if abs(probs.sum() - 1.0) > _PROB_SUM_TOL:
            raise ValueError(f"probabilities must sum to 1 within {_PROB_SUM_TOL}, "
                             f"got {probs.sum()!r}")
        if np.any(np.diff(values) <= 0.0):
            raise ValueError("values must be strictly increasing; merge ties first")

    @classmethod
    def from_arrays(cls, values, probabilities) -> "EmpiricalSample":
        """Build a sample from raw draws: sorts by value and merges ties."""
        values = np.asarray(values, dtype=float)
        probs = np.asarray(probabilities, dtype=float)
        if np.any(probs <= 0.0):
            raise ValueError("probabilities must be strictly positive")
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

    def cdf(self) -> np.ndarray:
        out = np.cumsum(self.probabilities)
        # total mass is 1 by invariant; pin the top so tail weights are exact
        out[-1] = 1.0
        return out


def var(sample: EmpiricalSample, alpha: float) -> float:
    """Smallest sample value whose cumulative probability reaches ``alpha``.

    Exact on the discrete CDF, no interpolation: when ``alpha`` lands exactly
    on a CDF jump the value at the jump is returned (the min of the
    superlevel set).
    """
    idx, _ = _tail_index(sample, _check_alpha(alpha))
    return float(sample.values[idx])


def _tail_index(sample: EmpiricalSample, alpha: float) -> tuple[int, np.ndarray]:
    """Index of the ``alpha`` quantile atom, and the CDF it was found on."""
    cdf = sample.cdf()
    idx = int(np.searchsorted(cdf, alpha, side="left"))
    # float accumulation can leave cdf[-1] a hair under 1.0
    return min(idx, sample.values.size - 1), cdf


def cvar_direct(sample: EmpiricalSample, alpha: float) -> float:
    """Tail expectation above the ``alpha`` quantile, computed exactly.

    The atom at the quantile carries weight (F(q) - alpha) / (1 - alpha) and
    every atom above it carries p / (1 - alpha); the rescaled weights sum to
    one by construction.
    """
    alpha = _check_alpha(alpha)
    idx, cdf = _tail_index(sample, alpha)
    scale = 1.0 - alpha
    weights = np.zeros(sample.values.size)
    weights[idx] = (cdf[idx] - alpha) / scale
    weights[idx + 1:] = sample.probabilities[idx + 1:] / scale
    return float(weights @ sample.values)


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


def committed_requirement(aggregate_net_load: EmpiricalSample, alpha: float,
                          total_committed: float) -> float:
    """Residual shortfall risk left after committing ``total_committed`` MW.

    Zero exactly when the committed power meets or exceeds the CVaR of the
    aggregate net load; otherwise the positive gap.
    """
    total_committed = float(total_committed)
    if total_committed < 0.0:
        raise ValueError("total committed power must be non-negative")
    return max(0.0, cvar_direct(aggregate_net_load, alpha) - total_committed)

