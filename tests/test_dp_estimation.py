import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fairpost.data_io import GroupedSamples
from fairpost.dp_estimation import (check_epsilon, empirical_joint, estimate_private_dists,
                                    group_weights, isotonic_midrange, privatize_joint,
                                    renormalize_cdf, sample_laplace_many)
from fairpost.grid import make_grid
from sample_rows import from_rows


class FakeUniform:
    """Stand-in generator yielding scripted uniform draws."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        return np.array([self.values.pop(0) for _ in range(size)])


def literal_isotonic(values):
    """O(k^2) evaluation of the pairwise-argmax definition: for each j the
    best (l, r) with l <= j <= r maximizing values[l] - values[r]."""
    values = np.asarray(values, dtype=float)
    k = len(values)
    out = np.empty(k)
    for j in range(k):
        best_l = max(values[: j + 1])
        best_r = min(values[j:])
        out[j] = 0.5 * (best_l + best_r)
    return out


# ---------------------------------------------------------------- empirical


def test_empirical_joint_counts():
    s = from_rows([("A", 0.1), ("A", 0.9), ("B", 0.6)])
    joint = empirical_joint(s, make_grid(0, 1, 2))
    assert np.allclose(joint, [[1 / 3, 1 / 3], [0, 1 / 3]])


def test_empirical_joint_single_mass():
    s = from_rows([("A", 0.5)])
    joint = empirical_joint(s, make_grid(0, 1, 1))
    assert np.allclose(joint, [[1.0]])


def test_empirical_joint_empty_errors():
    s = GroupedSamples(groups=("A",), group_idx=np.array([], dtype=np.intp),
                       scores=np.array([]))
    with pytest.raises(ValueError):
        empirical_joint(s, make_grid(0, 1, 2))


def test_substitution_changes_l1_by_two_over_n():
    g = make_grid(0, 1, 4)
    base = [("A", 0.1), ("A", 0.4), ("B", 0.8), ("B", 0.9)]
    swapped = [("A", 0.1), ("A", 0.9), ("B", 0.8), ("B", 0.9)]
    p = empirical_joint(from_rows(base, groups=("A", "B")), g)
    q = empirical_joint(from_rows(swapped, groups=("A", "B")), g)
    assert np.abs(p - q).sum() == pytest.approx(2 / 4, abs=1e-12)


# ------------------------------------------------------------------ laplace


def test_laplace_median_is_zero():
    assert sample_laplace_many(FakeUniform([0.5]), 3.0, 1)[0] == 0.0


def test_laplace_inverse_cdf_at_plus_b():
    # F(b) = 1 - exp(-1)/2, so u = 0.5 * (1 + (1 - exp(-1))) maps to +b
    u = 0.5 * (1 + (1 - math.exp(-1)))
    b = 2.5
    assert sample_laplace_many(FakeUniform([u]), b, 1)[0] == pytest.approx(b, abs=1e-12)


def test_laplace_monte_carlo_moments():
    rng = np.random.default_rng(1234)
    draws = sample_laplace_many(rng, 1.0, 10 ** 6)
    assert abs(draws.mean()) < 0.01
    assert abs(np.abs(draws).mean() - 1.0) < 0.01


def test_laplace_vector_matches_scalar_stream():
    draws_vec = sample_laplace_many(np.random.default_rng(5), 0.7, 16)
    rng = np.random.default_rng(5)
    draws_scalar = [sample_laplace_many(rng, 0.7, 1)[0] for _ in range(16)]
    assert np.array_equal(draws_vec, np.array(draws_scalar))


def test_laplace_rejects_bad_scale():
    with pytest.raises(ValueError):
        sample_laplace_many(np.random.default_rng(0), 0.0, 1)


# ----------------------------------------------------------------- privatize


def test_privatize_infinite_epsilon_is_identity():
    """No noise, and the stream is left where it was."""
    joint = np.array([[0.25, 0.75]])
    rng = np.random.default_rng(0)
    out = privatize_joint(joint, 4, math.inf, rng)
    assert np.array_equal(out, joint) and out is not joint
    assert rng.random() == np.random.default_rng(0).random()


def test_privatize_draws_laplace_at_two_over_n_epsilon():
    """On a zero joint the result is the noise itself: Laplace(2/(n*epsilon)),
    scale 0.004 at n = 1000 and epsilon = 0.5, drawn as one vector."""
    out = privatize_joint(np.zeros((2, 3)), 1000, 0.5, np.random.default_rng(9))
    expected = sample_laplace_many(np.random.default_rng(9), 0.004, 6)
    assert np.array_equal(out, expected.reshape(2, 3))


def test_privatize_deterministic_under_seed():
    joint = np.full((2, 3), 1 / 6)
    a = privatize_joint(joint, 6, 1.0, np.random.default_rng(77))
    b = privatize_joint(joint, 6, 1.0, np.random.default_rng(77))
    assert np.array_equal(a, b)


def test_epsilon_and_sample_count_validation():
    """epsilon is positive or +inf, never NaN, and the noise needs n >= 1 rows."""
    for epsilon in (1e-300, 0.5, math.inf):
        check_epsilon(epsilon)
    for epsilon in (0.0, -1.0, -math.inf, math.nan):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            check_epsilon(epsilon)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            privatize_joint(np.zeros((1, 2)), 5, epsilon, np.random.default_rng(0))
    for epsilon in (1.0, math.inf):
        with pytest.raises(ValueError, match="sample count must be >= 1"):
            privatize_joint(np.zeros((1, 2)), 0, epsilon, np.random.default_rng(0))


# -------------------------------------------------------------- group weights


def test_group_weights_clips_negative_sum():
    assert group_weights(np.array([[0.3, -0.5]]))[0] == 0.0


def test_group_weights_plain_sum():
    assert group_weights(np.array([[0.25, 0.25]]))[0] == pytest.approx(0.5)


def test_group_weights_match_empirical_fractions():
    s = from_rows([("A", 0.1), ("A", 0.2), ("B", 0.9)])
    joint = empirical_joint(s, make_grid(0, 1, 3))
    assert np.allclose(group_weights(joint), [2 / 3, 1 / 3])


# ------------------------------------------------------------- renormalize


def row_for_partial(partial, weight=1.0):
    """Invert the cumulative-sum step so renormalize_cdf sees the given
    scaled partial sums (dyadic values keep the cumsum exact)."""
    return np.diff(np.asarray(partial, dtype=float), prepend=0.0) * weight


def test_renormalize_non_monotone_example():
    cdf, pmf = renormalize_cdf(row_for_partial([0.2, 0.1, 1.1]), 1.0)
    assert np.allclose(cdf, [0.15, 0.15, 1.0], atol=1e-12)
    assert np.allclose(pmf, [0.15, 0.0, 0.85], atol=1e-12)


def test_renormalize_isotone_passthrough():
    cdf, pmf = renormalize_cdf(row_for_partial([0.2, 0.5, 0.9]), 1.0)
    assert np.allclose(cdf, [0.2, 0.5, 1.0], atol=1e-12)
    assert np.allclose(pmf, [0.2, 0.3, 0.5], atol=1e-12)


def test_renormalize_clamps_below_zero():
    cdf, pmf = renormalize_cdf(row_for_partial([-0.1, 0.5, 0.9]), 1.0)
    assert np.allclose(cdf, [0.0, 0.5, 1.0], atol=1e-12)
    assert np.allclose(pmf, [0.0, 0.5, 0.5], atol=1e-12)


def test_renormalize_zero_weight_gives_last_bin_mass():
    cdf, pmf = renormalize_cdf(np.array([0.4, 0.6, 0.2]), 0.0)
    assert np.array_equal(cdf, [0.0, 0.0, 1.0])
    assert np.array_equal(pmf, [0.0, 0.0, 1.0])


def _assert_valid_cdf_pmf(cdf, pmf):
    assert (np.diff(cdf) >= 0).all()
    assert cdf[-1] == 1.0
    assert (cdf >= 0).all() and (cdf <= 1).all()
    assert (pmf >= 0).all()
    assert abs(pmf.sum() - 1.0) <= 1e-9
    assert np.allclose(np.diff(cdf, prepend=0.0), pmf)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=64),
       st.floats(0, 3))
@example([5.0], 3e-308)  # partial sums near the float maximum: their sum overflows
def test_renormalize_always_valid(row, weight):
    cdf, pmf = renormalize_cdf(np.array(row), weight)
    _assert_valid_cdf_pmf(cdf, pmf)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 40), st.floats(1e-300, 3))
def test_batched_renormalize_equals_each_row(seed, n_rows, k, scale):
    """One call over a (G, k) stack gives each row's 1-D result bit for bit,
    zero and tiny weights included."""
    rng = np.random.default_rng(seed)
    rows = rng.laplace(0.0, 0.1, (n_rows, k)) + rng.random((n_rows, k)) / k
    weights = np.maximum(rows.sum(axis=1), 0.0) * scale
    weights[rng.random(n_rows) < 0.3] = 0.0
    cdfs, pmfs = renormalize_cdf(rows, weights)
    for a in range(n_rows):
        cdf, pmf = renormalize_cdf(rows[a], weights[a])
        assert np.array_equal(cdfs[a], cdf) and np.array_equal(pmfs[a], pmf)
        assert np.array_equal(isotonic_midrange(rows)[a], isotonic_midrange(rows[a]))


def test_renormalize_rejects_bad_shapes_and_weights():
    with pytest.raises(ValueError):
        renormalize_cdf(np.zeros((2, 3)), np.ones(3))
    with pytest.raises(ValueError):
        renormalize_cdf(np.zeros((2, 0)), np.ones(2))
    with pytest.raises(ValueError):
        renormalize_cdf(np.zeros((2, 3)), np.array([1.0, -1.0]))


@given(st.lists(st.integers(0, 64), min_size=1, max_size=32))
def test_renormalize_idempotent_on_valid_cdfs(levels):
    # dyadic CDF values (multiples of 1/64) keep every difference and
    # partial sum exact in binary floating point
    partial = np.sort(np.array(levels, dtype=float)) / 64.0
    partial[-1] = 1.0
    cdf, _ = renormalize_cdf(row_for_partial(partial), 1.0)
    assert np.array_equal(cdf, partial)


@given(st.lists(st.floats(-5, 5), min_size=1, max_size=64))
def test_fast_isotonic_matches_literal_argmax(values):
    fast = isotonic_midrange(np.array(values))
    assert np.allclose(fast, literal_isotonic(values), atol=1e-12)


# --------------------------------------------------------------- composition


def test_estimate_noiseless_single_group():
    s = from_rows([("A", 0.5), ("A", 0.45)])
    weights, pmfs = estimate_private_dists(s, make_grid(0, 1, 3), math.inf,
                                           np.random.default_rng(0))
    assert np.allclose(pmfs, [[0, 1, 0]])
    assert weights[0] == pytest.approx(1.0)


def test_estimate_refuses_nan_scores_by_row():
    """A NaN score has no bin: it is refused, not put in the top bin."""
    s = from_rows([("A", 0.2), ("A", 0.7), ("B", math.nan), ("B", math.nan)])
    for epsilon in (math.inf, 1.0):
        with pytest.raises(ValueError, match=r"^row 2: NaN has no bin$"):
            estimate_private_dists(s, make_grid(0, 1, 4), epsilon, np.random.default_rng(0))


def test_estimate_noiseless_matches_empirical_conditionals():
    rng = np.random.default_rng(3)
    rows = [("A", float(v)) for v in rng.random(40)] + \
           [("B", float(v)) for v in rng.random(25)]
    s = from_rows(rows)
    g = make_grid(0, 1, 6)
    weights, pmfs = estimate_private_dists(s, g, math.inf, np.random.default_rng(0))
    joint = empirical_joint(s, g)
    for a in range(2):
        w = joint[a].sum()
        assert weights[a] == pytest.approx(w, abs=1e-15)
        assert np.allclose(pmfs[a], joint[a] / w, atol=1e-12)


def test_estimate_deterministic_bit_exact():
    rows = [("A", 0.1), ("A", 0.7), ("B", 0.4), ("B", 0.2)]
    s = from_rows(rows)
    g = make_grid(0, 1, 5)
    w1, p1 = estimate_private_dists(s, g, 0.8, np.random.default_rng(11))
    w2, p2 = estimate_private_dists(s, g, 0.8, np.random.default_rng(11))
    assert np.array_equal(p1, p2)
    assert np.array_equal(w1, w2)


@settings(deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_estimate_output_always_valid(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    rows = [(f"g{int(rng.integers(0, 3))}", float(rng.normal(0.5, 0.4)))
            for _ in range(n)]
    s = from_rows(rows)
    g = make_grid(0, 1, int(rng.integers(1, 9)))
    eps = float(rng.choice([0.1, 1.0, math.inf]))
    weights, pmfs = estimate_private_dists(s, g, eps, np.random.default_rng(seed + 1))
    assert (weights >= 0).all()
    assert (pmfs >= 0).all()
    assert np.abs(pmfs.sum(axis=1) - 1.0).max() <= 1e-9
