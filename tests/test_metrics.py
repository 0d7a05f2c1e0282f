import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairpost.barycenter_lp import monotone_coupling
from fairpost.grid import discretize_many, make_grid
from fairpost.metrics import mse, statistical_parity_gap
from lp_oracles import ks_distance, monotone_coupling_loop, w2sq_monotone


def random_pmf(rng, k):
    x = rng.random(k) + 1e-3
    return x / x.sum()


# ------------------------------------------------------------------ distances


def test_ks_two_bins():
    assert ks_distance([0.5, 0.5], [1, 0]) == pytest.approx(0.5)


def test_ks_identity():
    assert ks_distance([0.3, 0.7], [0.3, 0.7]) == 0.0


def test_ks_disjoint_extremes():
    assert ks_distance([1, 0, 0], [0, 0, 1]) == pytest.approx(1.0)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12))
def test_norm_ordering_and_symmetry(seed, k):
    rng = np.random.default_rng(seed)
    p, q = random_pmf(rng, k), random_pmf(rng, k)
    ks, l1 = ks_distance(p, q), np.abs(p - q).sum()
    assert ks <= 0.5 * l1 + 1e-12
    assert 0.5 * l1 <= 1 + 1e-12
    assert ks == pytest.approx(ks_distance(q, p))


# ------------------------------------------------------------------ transport


def test_w2sq_point_masses():
    g = make_grid(0, 1, 3)
    cost, _ = w2sq_monotone([1, 0, 0], [0, 0, 1], g)
    assert cost == pytest.approx((5 / 6 - 1 / 6) ** 2)


def test_w2sq_identity_diagonal():
    g = make_grid(0, 1, 3)
    p = [0.2, 0.5, 0.3]
    cost, coupling = w2sq_monotone(p, p, g)
    assert cost == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(coupling, np.diag(p))


def brute_force_two_bin_cost(p, q, g):
    """Couplings of two 2-bin distributions form a one-parameter family;
    scan it finely and take the minimum cost."""
    v = g.midpoints
    best = np.inf
    for t in np.linspace(0, min(p[0], q[0]), 20001):
        pi = np.array([[t, p[0] - t], [q[0] - t, p[1] - (p[0] - t)]])
        if pi.min() < -1e-12:
            continue
        best = min(best, ((v[:, None] - v[None, :]) ** 2 * pi).sum())
    return best


def test_w2sq_two_bin_matches_exhaustive_minimum():
    g = make_grid(0, 1, 2)
    cost, _ = w2sq_monotone([0.5, 0.5], [1, 0], g)
    assert cost == pytest.approx(0.125)
    assert cost == pytest.approx(brute_force_two_bin_cost([0.5, 0.5], [1.0, 0.0], g),
                                 abs=1e-9)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 10))
def test_w2sq_marginals_reproduced(seed, k):
    rng = np.random.default_rng(seed)
    p, q = random_pmf(rng, k), random_pmf(rng, k)
    g = make_grid(0, 1, k)
    _, coupling = w2sq_monotone(p, q, g)
    assert np.abs(coupling.sum(axis=1) - p).max() < 1e-12
    assert np.abs(coupling.sum(axis=0) - q).max() < 1e-12


def perturb_coupling(rng, pi):
    """Random marginal-preserving rebalancing moves applied to a coupling."""
    pi = pi.copy()
    k = pi.shape[0]
    for _ in range(20):
        i1, i2 = rng.integers(0, k, 2)
        j1, j2 = rng.integers(0, k, 2)
        if i1 == i2 or j1 == j2:
            continue
        t = min(pi[i1, j1], pi[i2, j2]) * rng.random()
        pi[i1, j1] -= t
        pi[i2, j2] -= t
        pi[i1, j2] += t
        pi[i2, j1] += t
    return pi


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8))
def test_w2sq_not_beaten_by_feasible_couplings(seed, k):
    rng = np.random.default_rng(seed)
    p, q = random_pmf(rng, k), random_pmf(rng, k)
    g = make_grid(0, 1, k)
    cost, opt = w2sq_monotone(p, q, g)
    v = g.midpoints
    sq = (v[:, None] - v[None, :]) ** 2
    product = np.outer(p, q)  # independent coupling, always feasible
    for candidate in (product, perturb_coupling(rng, product), perturb_coupling(rng, opt)):
        assert cost <= (sq * candidate).sum() + 1e-12


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8))
def test_w2_triangle_inequality(seed, k):
    rng = np.random.default_rng(seed)
    p, q, r = (random_pmf(rng, k) for _ in range(3))
    g = make_grid(0, 1, k)
    d = lambda a, b: np.sqrt(w2sq_monotone(a, b, g)[0])
    assert d(p, q) <= d(p, r) + d(r, q) + 1e-9


def test_monotone_coupling_tie_split_deterministic():
    a = monotone_coupling(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    assert np.array_equal(a, np.diag([0.5, 0.5]))


@st.composite
def pmf_pairs(draw):
    """(p, q) on k = 1..120 bins with exact zero masses and float-dust masses
    of at most 1e-15; q = p for some pairs."""
    k = draw(st.integers(1, 120))
    mass = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(1e-18, 1e-15))

    def pmf():
        x = np.array(draw(st.lists(mass, min_size=k, max_size=k)))
        x[draw(st.integers(0, k - 1))] += 1e-3  # at least one positive mass
        return x / x.sum()
    p = pmf()
    return p, p.copy() if draw(st.booleans()) else pmf()


@settings(max_examples=200, deadline=None)
@given(pmf_pairs())
def test_monotone_coupling_matches_the_pointer_loop(pair):
    p, q = pair
    k = len(p)
    got, want = monotone_coupling(p, q), monotone_coupling_loop(p, q)
    assert got.shape == (k, k)
    assert np.abs(got - want).max() <= 1e-14
    v = (np.arange(k) + 0.5) / k
    sq = (v[:, None] - v[None, :]) ** 2
    assert abs((sq * got).sum() - (sq * want).sum()) <= 1e-14
    # a staircase: support cells sorted by row have nondecreasing columns
    rows, cols = np.nonzero(got)
    assert (np.diff(cols) >= 0).all() and (np.diff(rows) >= 0).all()
    assert np.abs(got.sum(axis=1) - p).max() <= 1e-14
    assert np.abs(got.sum(axis=0) - q).max() <= 1e-14
    # a row whose CDF step is positive, one ulp included, keeps its mass
    assert (got.sum(axis=1)[np.diff(np.cumsum(p), prepend=0.0) > 0] > 0).all()
    if np.array_equal(p, q):
        assert np.array_equal(rows, cols)  # the identity coupling


def test_monotone_coupling_keeps_a_dust_bin():
    """A bin of mass 1e-16 keeps its one dust piece instead of losing its row."""
    p = np.array([0.5, 1e-16, 0.5 - 1e-16])
    got = monotone_coupling(p, np.array([0.25, 0.5, 0.25]))
    assert (got.sum(axis=1)[p > 0] > 0).all()
    assert np.abs(got.sum(axis=1) - p).max() <= 1e-15


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 30), st.integers(1, 3), st.integers(1, 4))
def test_batched_coupling_equals_each_pair(seed, k, b0, b1):
    rng = np.random.default_rng(seed)
    p = rng.random((b0, b1, k)) * (rng.random((b0, b1, k)) < 0.7) + 1e-12
    q = rng.random((b0, b1, k)) * (rng.random((b0, b1, k)) < 0.7) + 1e-12
    p /= p.sum(axis=-1, keepdims=True)
    q /= q.sum(axis=-1, keepdims=True)
    got = monotone_coupling(p, q)
    assert got.shape == (b0, b1, k, k)
    for i, j in np.ndindex(b0, b1):
        assert np.array_equal(got[i, j], monotone_coupling(p[i, j], q[i, j]))


# ------------------------------------------------------------------ parity gap


def columns(seqs):
    """Per-group output sequences as (group_idx, outputs, n_groups) columns."""
    group_idx = np.repeat(np.arange(len(seqs)), [len(ys) for ys in seqs])
    outputs = np.concatenate([np.asarray(ys, dtype=float) for ys in seqs] + [np.empty(0)])
    return group_idx, outputs, len(seqs)


def test_parity_gap_single_group_is_zero():
    g = make_grid(0, 1, 4)
    assert statistical_parity_gap(*columns([[0.1, 0.2, 0.9]]), g) == 0.0


def test_parity_gap_disjoint_point_masses():
    g = make_grid(0, 1, 2)
    assert statistical_parity_gap(*columns([[0.2, 0.2], [0.8]]), g) == pytest.approx(1.0)


def test_parity_gap_identical_outputs():
    g = make_grid(0, 1, 5)
    ys = [0.1, 0.5, 0.5, 0.9]
    assert statistical_parity_gap(*columns([ys, list(ys)]), g) == 0.0


def test_parity_gap_skips_empty_groups():
    g = make_grid(0, 1, 2)
    assert statistical_parity_gap(*columns([[0.1], []]), g) == 0.0


def test_parity_gap_all_empty_raises():
    g = make_grid(0, 1, 2)
    with pytest.raises(ValueError):
        statistical_parity_gap(*columns([[], []]), g)


def pairwise_parity_gap(seqs, grid):
    """The O(G^2) definition: max KS distance over every pair of groups."""
    hists = [np.bincount(discretize_many(grid, np.asarray(ys, dtype=float)),
                         minlength=grid.k) / len(ys) for ys in seqs if len(ys)]
    return max((ks_distance(a, b) for i, a in enumerate(hists) for b in hists[i + 1:]),
               default=0.0)


def per_group_parity_gap(seqs, grid):
    """One group at a time: each nonempty group's CDF from its own integer
    running counts, then the spread of the CDFs at each bin."""
    cdfs = [np.cumsum(np.bincount(discretize_many(grid, np.asarray(ys, dtype=float)),
                                  minlength=grid.k)) / len(ys) for ys in seqs if len(ys)]
    return float((np.max(cdfs, axis=0) - np.min(cdfs, axis=0)).max())


group_outputs = (st.lists(st.lists(st.floats(-0.2, 1.2), max_size=40), min_size=1, max_size=8)
                 .filter(lambda seqs: any(seqs)))


@settings(max_examples=300)
@given(st.integers(1, 64), group_outputs)
def test_parity_gap_matches_pairwise_definition(k, seqs):
    g = make_grid(0, 1, k)
    assert abs(statistical_parity_gap(*columns(seqs), g) - pairwise_parity_gap(seqs, g)) <= 1e-15


@settings(max_examples=300)
@given(st.integers(1, 64), group_outputs, st.randoms(use_true_random=False))
def test_parity_gap_equals_per_group_reference_bit_for_bit(k, seqs, shuffle):
    """Empty groups, a single nonempty group and outputs outside [0, 1]
    included; the row order does not matter."""
    g = make_grid(0, 1, k)
    group_idx, outputs, n_groups = columns(seqs)
    order = list(range(len(outputs)))
    shuffle.shuffle(order)
    got = statistical_parity_gap(group_idx[order], outputs[order], n_groups, g)
    assert got == per_group_parity_gap(seqs, g)


# ------------------------------------------------------------------------ mse


def test_mse_identity_zero():
    assert mse([0.1, 0.9], [0.1, 0.9]) == 0.0


def test_mse_fair_coin_constant_half():
    assert mse([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == pytest.approx(0.25)


def test_mse_swapped():
    assert mse([0, 1], [1, 0]) == pytest.approx(1.0)


def test_mse_errors():
    with pytest.raises(ValueError):
        mse([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        mse([], [])
