"""Risk engine tests: hand oracles first, then the coherence axioms."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridclear import risk
from gridclear import (EmpiricalSample, committed_upper_bound, cvar_direct,
                       cvar_rockafellar, cvar_rows, rockafellar_objective, var)

# ---------------------------------------------------------------------------
# independent oracles


def tail_quantile_oracle(points, alpha):
    """min{z : F(z) >= alpha} by a plain scan of the sorted CDF."""
    total = 0.0
    for v, p in sorted(points):
        total += p
        if total >= alpha:
            return v
    return sorted(points)[-1][0]


def tail_expectation_oracle(points, alpha):
    """Rescaled-tail expectation computed atom by atom."""
    pts = sorted(points)
    q = tail_quantile_oracle(points, alpha)
    cdf_at_q = sum(p for v, p in pts if v <= q)
    acc = q * (cdf_at_q - alpha) / (1.0 - alpha)
    for v, p in pts:
        if v > q:
            acc += v * p / (1.0 - alpha)
    return acc


def rockafellar_grid_oracle(points, alpha, step_frac=1e-4):
    """Minimize eta + E[(X - eta)+]/(1-alpha) over a fine grid plus the atoms.

    Returns (min objective, argmin).  The grid extends below the support so
    the argmin location is informative.
    """
    values = np.array(sorted(v for v, _ in points))
    probs = np.array([p for _, p in sorted(points)])
    lo, hi = values[0], values[-1]
    span = max(hi - lo, 1e-6)
    grid = np.arange(lo - 0.5 * span, hi + step_frac * span, step_frac * span)
    candidates = np.union1d(grid, values)
    excess = np.maximum(values[None, :] - candidates[:, None], 0.0)
    objective = candidates + (excess @ probs) / (1.0 - alpha)
    i = int(objective.argmin())
    return float(objective[i]), float(candidates[i])


def _sample(points):
    return EmpiricalSample.from_points(points)


def random_sample(rng, max_atoms=50):
    m = rng.integers(1, max_atoms + 1)
    values = rng.normal(0.0, 100.0, m)
    probs = rng.random(m) + 1e-3
    probs /= probs.sum()
    return EmpiricalSample.from_arrays(values, probs)


# ---------------------------------------------------------------------------
# construction and validation


def test_sample_requires_positive_probabilities():
    with pytest.raises(ValueError):
        EmpiricalSample.from_points([(1.0, 0.0), (2.0, 1.0)])


def test_sample_requires_normalized_probabilities():
    with pytest.raises(ValueError):
        EmpiricalSample.from_points([(1.0, 0.5), (2.0, 0.4)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sample_names_non_finite_probabilities(bad):
    with pytest.raises(ValueError, match="^probabilities must be finite$"):
        EmpiricalSample.from_arrays([1.0, 2.0], [bad, 0.5])


@pytest.mark.parametrize("probs", [[1.0], [0.5, 0.5, 0.0], [0.25, 0.25, 0.25, 0.25]])
def test_sample_needs_one_probability_per_value(probs):
    with pytest.raises(ValueError, match="^one probability per value$"):
        EmpiricalSample.from_arrays([1.0, 2.0], probs)


def test_sample_needs_a_vector_of_draws():
    with pytest.raises(ValueError, match="^values must be a 1-D array of draws"):
        EmpiricalSample.from_arrays([[1.0, 2.0]], [0.5, 0.5])
    with pytest.raises(ValueError, match="^values must be a 1-D array of draws"):
        EmpiricalSample(np.array([[1.0, 2.0]]), np.array([0.5, 0.5]))


def test_sample_merges_ties_and_sorts():
    s = _sample([(3.0, 0.25), (1.0, 0.5), (3.0, 0.25)])
    assert s.points == [(1.0, 0.5), (3.0, 0.5)]


def test_tied_probabilities_add_in_draw_order():
    # unequal weights on two interleaved values: each atom's probability is
    # the += sum of its draws' weights in draw order, which another order
    # rounds differently (here the reverse one does, on the upper atom)
    rng = np.random.default_rng(3)
    values = np.where(rng.random(64) < 0.5, 0.0, 1.0)
    probs = rng.random(64) + 1e-3
    probs /= probs.sum()
    want = [0.0, 0.0]
    for v, p in zip(values, probs):
        want[int(v)] += p
    assert EmpiricalSample.from_arrays(values, probs).probabilities.tolist() == want
    # below the lower atom's mass the CVaR is the upper atom's probability
    # over the tail mass
    got_var, got_cvar = cvar_rows(values[None, :], probs, 0.3)
    assert want[0] > 0.3 and got_var[0] == 0.0 and got_cvar[0] == want[1] / 0.7


def test_alpha_domain_errors():
    s = _sample([(5.0, 1.0)])
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            var(s, bad)
        with pytest.raises(ValueError):
            cvar_direct(s, bad)
        with pytest.raises(ValueError):
            cvar_rockafellar(s, bad)


@pytest.mark.parametrize("values,probs,message", [
    ([[1.0, np.nan]], [0.5, 0.5], "^sample atoms must be finite$"),
    ([[1.0, 2.0], [np.inf, 0.0]], [0.5, 0.5], "^sample atoms must be finite$"),
    ([[1.0, 2.0]], [0.5, np.nan], "^probabilities must be finite$"),
    ([[1.0, 2.0]], [-np.inf, 0.5], "^probabilities must be finite$"),
    ([[1.0, 2.0]], [1.0, 0.0], "^probabilities must be strictly positive$"),
    ([[1.0, 2.0]], [1.5, -0.5], "^probabilities must be strictly positive$"),
    ([[1.0, 2.0]], [0.5, 0.4], "^probabilities must sum to 1 within"),
    ([1.0, 2.0], [0.5, 0.5], "^values must be a 2-D array of draws"),
    ([[[1.0, 2.0]]], [0.5, 0.5], "^values must be a 2-D array of draws"),
    ([[1.0, 2.0]], [[0.5, 0.5]], "^one probability per value$"),
    ([[1.0, 2.0]], [0.25, 0.25, 0.5], "^one probability per value$"),
    ([[1.0, 2.0]], [1.0], "^one probability per value$"),
    (np.empty((1, 0)), [], "^a sample needs at least one atom$"),
])
def test_cvar_rows_rejects_what_no_sample_holds(values, probs, message):
    with pytest.raises(ValueError, match=message):
        cvar_rows(values, probs, 0.5)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7, np.nan])
def test_cvar_rows_alpha_domain(bad):
    with pytest.raises(ValueError, match="strictly inside"):
        cvar_rows([[1.0, 2.0]], [0.5, 0.5], bad)


# ---------------------------------------------------------------------------
# quantile (worked examples frozen from the scan oracle)


def test_var_three_atom():
    pts = [(10, 0.5), (20, 0.3), (30, 0.2)]
    assert var(_sample(pts), 0.7) == 20.0
    assert tail_quantile_oracle(pts, 0.7) == 20


def test_var_point_mass():
    for alpha in (0.1, 0.5, 0.99):
        assert var(_sample([(7.25, 1.0)]), alpha) == 7.25


def test_var_top_atom():
    pts = [(0, 0.9), (100, 0.1)]
    assert var(_sample(pts), 0.95) == 100.0
    assert tail_quantile_oracle(pts, 0.95) == 100


def test_var_at_exact_jump_takes_the_jump_value():
    # alpha equal to a CDF value: the min of the superlevel set
    assert var(_sample([(10, 0.5), (20, 0.5)]), 0.5) == 10.0


# ---------------------------------------------------------------------------
# tail expectation


def test_cvar_direct_three_atom():
    pts = [(10, 0.5), (20, 0.3), (30, 0.2)]
    expected = 20 * (1 / 3) + 30 * (2 / 3)
    got = cvar_direct(_sample(pts), 0.7)
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx(tail_expectation_oracle(pts, 0.7), abs=1e-12)


def test_cvar_direct_point_mass():
    for alpha in (0.3, 0.9):
        assert cvar_direct(_sample([(4.5, 1.0)]), alpha) == pytest.approx(4.5, abs=0)


def test_cvar_direct_tail_on_upper_atom():
    got = cvar_direct(_sample([(0, 0.5), (1, 0.5)]), 0.5)
    assert got == pytest.approx(1.0, abs=1e-12)


def test_cvar_rockafellar_matches_grid_oracle():
    pts = [(10, 0.5), (20, 0.3), (30, 0.2)]
    mins, _ = rockafellar_grid_oracle(pts, 0.7)
    assert cvar_rockafellar(_sample(pts), 0.7) == pytest.approx(mins, abs=1e-9)
    assert cvar_rockafellar(_sample(pts), 0.7) == pytest.approx(26.666666666666668, abs=1e-9)


def test_cvar_rockafellar_point_mass():
    assert cvar_rockafellar(_sample([(3.0, 1.0)]), 0.9) == pytest.approx(3.0, abs=1e-12)


def test_cvar_rockafellar_two_atom():
    pts = [(0, 0.5), (1, 0.5)]
    mins, _ = rockafellar_grid_oracle(pts, 0.5)
    assert cvar_rockafellar(_sample(pts), 0.5) == pytest.approx(1.0, abs=1e-12)
    assert mins == pytest.approx(1.0, abs=1e-9)


def test_cvar_rows_memory_is_bounded_by_the_sort_block():
    # the (1584, 1000) rows of a default-size feeder sweep's CVaR call; a
    # kernel that sorted and weighted every row at once peaked at 136 MB
    values = np.random.default_rng(16).normal(300.0, 40.0, (1584, 1000))
    probs = np.full(1000, 1e-3)
    # one byte per draw for the finiteness check, and one block's sorted copy
    # with its tie test, four times over for margin
    bound = values.size + 4 * 8 * risk._SORT_BLOCK
    tracemalloc.start()
    try:
        cvar_rows(values, probs, 0.95)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound


# ---------------------------------------------------------------------------
# committed requirement: a commitment meets it when it reaches the CVaR


def test_committed_requirement_balanced():
    s = _sample([(500.0, 1.0)])
    assert cvar_direct(s, 0.9) <= 500.0


# ---------------------------------------------------------------------------
# subadditivity gap


def bound_gap(per_bus, joint, alpha):
    """Sum of per-bus CVaRs minus the joint CVaR, as the planned-power bound reads it."""
    _, gap = committed_upper_bound([cvar_direct(s, alpha) for s in per_bus],
                                   cvar_direct(joint, alpha))
    return gap


def test_gap_deterministic_point_masses():
    a = _sample([(10.0, 1.0)])
    b = _sample([(10.0, 1.0)])
    joint = _sample([(20.0, 1.0)])
    assert bound_gap([a, b], joint, 0.5) == pytest.approx(0.0, abs=1e-12)


def test_gap_anti_comonotone_pair():
    a = _sample([(0, 0.5), (10, 0.5)])
    b = _sample([(10, 0.5), (0, 0.5)])
    joint = _sample([(10.0, 1.0)])
    # each marginal tail sits on its own upper atom
    assert cvar_direct(a, 0.5) == pytest.approx(tail_expectation_oracle(a.points, 0.5))
    assert bound_gap([a, b], joint, 0.5) == pytest.approx(10.0, abs=1e-12)


def test_gap_comonotone_is_zero():
    # one scenario index drives both variables with the same ordering
    xs = [1.0, 2.0, 3.0, 4.0]
    ys = [10.0, 20.0, 30.0, 40.0]
    probs = [0.25] * 4
    a = EmpiricalSample.from_arrays(xs, probs)
    b = EmpiricalSample.from_arrays(ys, probs)
    joint = EmpiricalSample.from_arrays([x + y for x, y in zip(xs, ys)], probs)
    for alpha in (0.3, 0.5, 0.8):
        expected = (tail_expectation_oracle(a.points, alpha)
                    + tail_expectation_oracle(b.points, alpha)
                    - tail_expectation_oracle(joint.points, alpha))
        assert expected == pytest.approx(0.0, abs=1e-9)
        assert bound_gap([a, b], joint, alpha) == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# route agreement and axioms on random samples


def test_direct_equals_rockafellar_on_random_samples():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        s = random_sample(rng)
        alpha = float(rng.uniform(0.01, 0.99))
        assert cvar_direct(s, alpha) == pytest.approx(cvar_rockafellar(s, alpha), abs=1e-9)


def test_cvar_dominates_var():
    rng = np.random.default_rng(12)
    for _ in range(500):
        s = random_sample(rng)
        alpha = float(rng.uniform(0.01, 0.99))
        assert cvar_direct(s, alpha) >= var(s, alpha) - 1e-12


def test_nonnegative_sample_minimizer_is_nonnegative():
    # grid search over a window extending below zero still lands at eta >= 0
    rng = np.random.default_rng(13)
    for _ in range(50):
        m = rng.integers(1, 12)
        values = np.abs(rng.normal(0.0, 50.0, m))
        probs = rng.random(m) + 1e-3
        probs /= probs.sum()
        alpha = float(rng.uniform(0.05, 0.95))
        _, argmin = rockafellar_grid_oracle(list(zip(values, probs)), alpha, step_frac=1e-3)
        assert argmin >= -1e-12


@st.composite
def sample_strategy(draw):
    m = draw(st.integers(min_value=1, max_value=20))
    values = draw(st.lists(st.floats(min_value=-1e4, max_value=1e4,
                                     allow_nan=False, allow_infinity=False),
                           min_size=m, max_size=m))
    weights = draw(st.lists(st.floats(min_value=1e-3, max_value=1.0),
                            min_size=m, max_size=m))
    total = sum(weights)
    return EmpiricalSample.from_arrays(values, [w / total for w in weights])


@settings(max_examples=200, deadline=None)
@given(sample_strategy(), st.floats(min_value=0.02, max_value=0.98),
       st.floats(min_value=-500.0, max_value=500.0))
def test_translation_equivariance(s, alpha, c):
    shifted = EmpiricalSample.from_arrays(s.values + c, s.probabilities)
    assert cvar_direct(shifted, alpha) == pytest.approx(cvar_direct(s, alpha) + c, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(sample_strategy(), st.floats(min_value=0.02, max_value=0.98),
       st.floats(min_value=1e-3, max_value=50.0))
def test_positive_homogeneity(s, alpha, lam):
    scaled = EmpiricalSample.from_arrays(lam * s.values, s.probabilities)
    assert cvar_direct(scaled, alpha) == pytest.approx(lam * cvar_direct(s, alpha),
                                                       abs=1e-9 * max(1.0, lam))


@settings(max_examples=200, deadline=None)
@given(sample_strategy(), st.floats(min_value=0.02, max_value=0.5),
       st.floats(min_value=0.5, max_value=0.98))
def test_alpha_monotonicity(s, a1, a2):
    lo, hi = min(a1, a2), max(a1, a2)
    assert cvar_direct(s, lo) <= cvar_direct(s, hi) + 1e-12


@settings(max_examples=200, deadline=None)
@given(sample_strategy(), st.floats(min_value=0.02, max_value=0.98),
       st.floats(min_value=-2e4, max_value=2e4))
def test_rockafellar_objective_is_minimized_at_the_var(s, alpha, eta):
    # Rockafellar & Uryasev (J. Risk, 2000): the objective's minimum over eta
    # is the CVaR, attained at the VaR, so cvar_rockafellar evaluates it once
    cvar = cvar_direct(s, alpha)
    assert rockafellar_objective(s, alpha, eta) >= cvar - 1e-9
    assert rockafellar_objective(s, alpha, var(s, alpha)) == pytest.approx(cvar, abs=1e-9)
