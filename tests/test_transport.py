import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairpost.barycenter_lp import build_lp, solve
from fairpost.dp_estimation import PrivateGroupDists
from fairpost.grid import make_grid
from fairpost.transport import extract_kernels, row_means, sample_bins


def dists_from_pmfs(pmfs, weights=None):
    pmfs = np.asarray(pmfs, dtype=float)
    if weights is None:
        weights = np.full(len(pmfs), 1.0 / len(pmfs))
    return PrivateGroupDists(weights=np.asarray(weights, dtype=float), pmfs=pmfs)


def random_pmf(rng, k):
    x = rng.random(k) + 1e-3
    return x / x.sum()


def solved_example():
    """The opposed-point-mass instance with the 1/9 optimum."""
    g = make_grid(0, 1, 3)
    d = dists_from_pmfs([[1.0, 0, 0], [0, 0, 1.0]], [0.5, 0.5])
    return g, d, solve(build_lp(d, g, 0.0))


def test_kernel_rows_from_lp_example():
    _, d, sol = solved_example()
    kern = extract_kernels(sol, d)
    assert np.allclose(kern[0, 0], [0, 1, 0])
    assert np.allclose(kern[0, 1], [0, 1, 0])  # zero-mass bin: identity
    assert np.allclose(kern[0, 2], [0, 0, 1])
    assert np.allclose(kern[1, 2], [0, 1, 0])


def test_identity_couplings_give_identity_kernels():
    rng = np.random.default_rng(2)
    g = make_grid(0, 1, 4)
    d = dists_from_pmfs([random_pmf(rng, 4), random_pmf(rng, 4)])
    kern = extract_kernels(solve(build_lp(d, g, math.inf)), d)
    for a in range(2):
        assert np.allclose(kern[a], np.eye(4))


def test_zero_mass_bins_always_identity_rows():
    rng = np.random.default_rng(4)
    g = make_grid(0, 1, 5)
    p = np.array([0.5, 0.0, 0.0, 0.0, 0.5])
    q = random_pmf(rng, 5)
    d = dists_from_pmfs([p, q])
    kern = extract_kernels(solve(build_lp(d, g, 0.2)), d)
    for j in (1, 2, 3):
        row = np.zeros(5)
        row[j] = 1.0
        assert np.array_equal(kern[0, j], row)


def test_rows_always_stochastic():
    rng = np.random.default_rng(9)
    for trial in range(15):
        k = int(rng.integers(1, 8))
        n_groups = int(rng.integers(1, 4))
        alpha = float(rng.choice([0.0, 0.1, 0.5, math.inf]))
        d = dists_from_pmfs([random_pmf(rng, k) for _ in range(n_groups)],
                            rng.random(n_groups))
        g = make_grid(0, 1, k)
        kern = extract_kernels(solve(build_lp(d, g, alpha)), d)
        sums = kern.sum(axis=2)
        assert (kern >= 0).all()
        assert np.abs(sums - 1.0).max() <= 1e-9


def test_push_forward_reaches_targets():
    rng = np.random.default_rng(11)
    for _ in range(10):
        k = int(rng.integers(1, 8))
        n_groups = int(rng.integers(1, 4))
        alpha = float(rng.choice([0.0, 0.15, math.inf]))
        d = dists_from_pmfs([random_pmf(rng, k) for _ in range(n_groups)])
        g = make_grid(0, 1, k)
        sol = solve(build_lp(d, g, alpha))
        kern = extract_kernels(sol, d)
        for a in range(n_groups):
            got = d.pmfs[a] @ kern[a]
            assert np.abs(got - sol.targets[a]).max() <= 1e-9


def test_push_forward_identity_kernel():
    d = dists_from_pmfs([[0.3, 0.7]])
    g = make_grid(0, 1, 2)
    kern = extract_kernels(solve(build_lp(d, g, math.inf)), d)
    p = np.array([0.6, 0.4])
    assert np.allclose(p @ kern[0], p)


def test_push_forward_point_mass_reads_row():
    _, d, sol = solved_example()
    kern = extract_kernels(sol, d)
    p = np.zeros(3)
    p[0] = 1.0
    assert np.allclose(p @ kern[0], kern[0, 0])


def draw_bins(kern, a, j, u):
    n = len(u)
    return sample_bins(np.cumsum(kern, axis=2), np.full(n, a), np.full(n, j),
                       np.asarray(u, dtype=float))


def test_sample_bins_identity_row():
    _, d, sol = solved_example()
    kern = extract_kernels(sol, d)
    assert (draw_bins(kern, 0, 1, np.random.default_rng(0).random(20)) == 1).all()


def test_sample_bins_deterministic_row():
    _, d, sol = solved_example()
    kern = extract_kernels(sol, d)  # row 0 of group 0 is (0, 1, 0)
    assert (draw_bins(kern, 0, 0, np.random.default_rng(0).random(20)) == 1).all()


def test_sample_bins_monte_carlo_frequencies():
    kern = np.array([[[0.5, 0.5, 0.0],
                      [0.0, 1.0, 0.0],
                      [0.0, 0.0, 1.0]]])
    draws = draw_bins(kern, 0, 0, np.random.default_rng(123).random(10 ** 5))
    freq = np.bincount(draws, minlength=3) / len(draws)
    assert np.abs(freq - [0.5, 0.5, 0.0]).max() < 0.01


def test_kernel_row_cdfs_are_ordered_on_mass_bearing_rows():
    """Cumulative kernel rows from monotone couplings are pointwise ordered
    across input bins (restricted to bins carrying input mass)."""
    rng = np.random.default_rng(21)
    for _ in range(10):
        k = int(rng.integers(2, 8))
        d = dists_from_pmfs([random_pmf(rng, k) for _ in range(2)])
        g = make_grid(0, 1, k)
        sol = solve(build_lp(d, g, float(rng.choice([0.0, 0.2]))))
        kern = extract_kernels(sol, d)
        for a in range(2):
            mass_rows = [j for j in range(k) if d.pmfs[a][j] > 0]
            cdfs = np.cumsum(kern[a], axis=1)
            for lo, hi in zip(mass_rows[:-1], mass_rows[1:]):
                assert (cdfs[lo] >= cdfs[hi] - 1e-9).all()


def extract_kernels_loop(couplings, pmfs):
    """Per-row reference: clip, divide by the row total, identity rows where
    the input bin has no mass or the clipped row sums to zero."""
    n_groups, k, _ = couplings.shape
    out = np.zeros_like(couplings)
    for a in range(n_groups):
        np.fill_diagonal(out[a], 1.0)
        for j in range(k):
            if pmfs[a, j] > 0.0:
                row = np.clip(couplings[a, j], 0.0, None)
                total = row.sum()
                if total > 0.0:
                    out[a, j] = row / total
    return out


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 160), st.integers(0, 2 ** 32 - 1))
def test_extract_kernels_matches_per_row_loop_bit_for_bit(n_groups, k, seed):
    rng = np.random.default_rng(seed)
    pmfs = rng.random((n_groups, k)) * (rng.random((n_groups, k)) < 0.7)
    pmfs[pmfs.sum(axis=1) == 0.0, 0] = 1.0
    pmfs /= pmfs.sum(axis=1, keepdims=True)
    couplings = rng.random((n_groups, k, k)) * (rng.random((n_groups, k, k)) < 0.4)
    couplings *= pmfs[:, :, None] / np.maximum(couplings.sum(axis=2, keepdims=True), 1e-300)
    couplings += rng.normal(0.0, 1e-12, couplings.shape)  # solver dust, some negative
    couplings[rng.random((n_groups, k)) < 0.1] = -1e-13  # rows clipped to zero
    sol = SimpleNamespace(couplings=couplings)
    kern = extract_kernels(sol, dists_from_pmfs(pmfs))
    assert np.array_equal(kern, extract_kernels_loop(couplings, pmfs))


def test_row_means_barycentric_projection():
    _, d, sol = solved_example()
    kern = extract_kernels(sol, d)
    g = make_grid(0, 1, 3)
    means = row_means(kern, g)
    assert means[0, 0] == pytest.approx(0.5)   # row (0,1,0) -> v_2
    assert means[0, 2] == pytest.approx(5 / 6)  # identity row keeps its midpoint
