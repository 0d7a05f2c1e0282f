import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bin_oracles import full_row_draws
from fairpost.barycenter_lp import build_lp, solve
from fairpost.grid import make_grid
from fairpost.transport import extract_kernels, row_bands, row_means, sample_bins
from lp_oracles import dists_from_pmfs


def random_pmf(rng, k):
    x = rng.random(k) + 1e-3
    return x / x.sum()


def solved_example():
    """The opposed-point-mass instance with the 1/9 optimum."""
    g = make_grid(0, 1, 3)
    d = dists_from_pmfs([[1.0, 0, 0], [0, 0, 1.0]], [0.5, 0.5])
    return g, d, solve(build_lp(d, 0.0))


def test_kernel_rows_from_lp_example():
    _, d, sol = solved_example()
    kern = extract_kernels(sol, d.pmfs)
    assert np.allclose(kern[0, 0], [0, 1, 0])
    assert np.allclose(kern[0, 1], [0, 1, 0])  # zero-mass bin: identity
    assert np.allclose(kern[0, 2], [0, 0, 1])
    assert np.allclose(kern[1, 2], [0, 1, 0])


def test_identity_couplings_give_identity_kernels():
    rng = np.random.default_rng(2)
    d = dists_from_pmfs([random_pmf(rng, 4), random_pmf(rng, 4)])
    kern = extract_kernels(solve(build_lp(d, math.inf)), d.pmfs)
    for a in range(2):
        assert np.allclose(kern[a], np.eye(4))


def test_zero_mass_bins_always_identity_rows():
    rng = np.random.default_rng(4)
    p = np.array([0.5, 0.0, 0.0, 0.0, 0.5])
    q = random_pmf(rng, 5)
    d = dists_from_pmfs([p, q])
    kern = extract_kernels(solve(build_lp(d, 0.2)), d.pmfs)
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
        kern = extract_kernels(solve(build_lp(d, alpha)), d.pmfs)
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
        sol = solve(build_lp(d, alpha))
        kern = extract_kernels(sol, d.pmfs)
        for a in range(n_groups):
            got = d.pmfs[a] @ kern[a]
            assert np.abs(got - sol.targets[a]).max() <= 1e-9


def test_push_forward_identity_kernel():
    d = dists_from_pmfs([[0.3, 0.7]])
    kern = extract_kernels(solve(build_lp(d, math.inf)), d.pmfs)
    p = np.array([0.6, 0.4])
    assert np.allclose(p @ kern[0], p)


def test_push_forward_point_mass_reads_row():
    _, d, sol = solved_example()
    kern = extract_kernels(sol, d.pmfs)
    p = np.zeros(3)
    p[0] = 1.0
    assert np.allclose(p @ kern[0], kern[0, 0])


def draw_bins(kern, a, j, u):
    n = len(u)
    return sample_bins(row_bands(kern), np.full(n, a), np.full(n, j),
                       np.asarray(u, dtype=float))


def test_sample_bins_identity_row():
    _, d, sol = solved_example()
    kern = extract_kernels(sol, d.pmfs)
    assert (draw_bins(kern, 0, 1, np.random.default_rng(0).random(20)) == 1).all()


def test_sample_bins_deterministic_row():
    _, d, sol = solved_example()
    kern = extract_kernels(sol, d.pmfs)  # row 0 of group 0 is (0, 1, 0)
    assert (draw_bins(kern, 0, 0, np.random.default_rng(0).random(20)) == 1).all()


def test_sample_bins_monte_carlo_frequencies():
    kern = np.array([[[0.5, 0.5, 0.0],
                      [0.0, 1.0, 0.0],
                      [0.0, 0.0, 1.0]]])
    draws = draw_bins(kern, 0, 0, np.random.default_rng(123).random(10 ** 5))
    freq = np.bincount(draws, minlength=3) / len(draws)
    assert np.abs(freq - [0.5, 0.5, 0.0]).max() < 0.01


def banded_kernels(rng, n_groups, k):
    """Row-stochastic kernels whose rows are short runs of mass, as monotone
    couplings give, with dust entries outside the run, identity rows, rows
    whose only mass is in the last bin, and rows holding -0.0 entries."""
    kern = np.zeros((n_groups, k, k))
    for a in range(n_groups):
        for j in range(k):
            lo = int(rng.integers(0, k))
            hi = min(k, lo + int(rng.integers(1, 5)))
            kern[a, j, lo:hi] = rng.random(hi - lo) + 1e-3
            kind = rng.random()
            if kind < 0.1:
                kern[a, j, rng.integers(0, k, 2)] += 1e-17
            elif kind < 0.2:
                kern[a, j] = np.eye(k)[j]
            elif kind < 0.3:
                kern[a, j] = np.eye(k)[k - 1]
            elif kind < 0.35:
                kern[a, j, kern[a, j] == 0.0] = -0.0
            kern[a, j] /= kern[a, j].sum()
    return kern


def sampler_cases(rng, kern, n):
    """Row indices and uniforms: random ones, 0, values equal to entries of
    the row CDFs, their float neighbours, and 1 - 2**-53."""
    n_groups, k, _ = kern.shape
    a, j = rng.integers(0, n_groups, n), rng.integers(0, k, n)
    cdfs = np.cumsum(kern, axis=2)
    at_cdf = cdfs[a, j, rng.integers(0, k, n)]
    u = np.concatenate([rng.random(n), np.zeros(n), at_cdf, np.nextafter(at_cdf, 0.0),
                        np.nextafter(at_cdf, 1.0), np.full(n, 1.0 - 2.0 ** -53)])
    return np.tile(a, 6), np.tile(j, 6), np.minimum(u, 1.0 - 2.0 ** -53)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 90), st.integers(0, 2 ** 32 - 1))
def test_sample_bins_equals_the_full_row_count(n_groups, k, seed):
    rng = np.random.default_rng(seed)
    kern = banded_kernels(rng, n_groups, k)
    a, j, u = sampler_cases(rng, kern, 700)  # 4,200 rows: more than one block
    assert np.array_equal(sample_bins(row_bands(kern), a, j, u), full_row_draws(kern, a, j, u))


def test_sample_bins_on_fitted_kernels_equals_the_full_row_count():
    """Kernels from fits, identity rows of zero-mass bins included, at k = 1
    and at bin counts whose bands are a few columns wide."""
    rng = np.random.default_rng(17)
    for k in (1, 2, 12, 36, 60):
        pmfs = [random_pmf(rng, k) * (rng.random(k) < 0.8) for _ in range(3)]
        pmfs = [p / p.sum() if p.sum() > 0 else np.eye(k)[-1] for p in pmfs]
        d = dists_from_pmfs(pmfs)
        for alpha in (0.0, 0.05, math.inf):
            kern = extract_kernels(solve(build_lp(d, alpha)), d.pmfs)
            bands = row_bands(kern)
            assert len(bands.cdf) <= k
            a, j, u = sampler_cases(rng, kern, 300)
            assert np.array_equal(sample_bins(bands, a, j, u), full_row_draws(kern, a, j, u))


def test_row_bands_hold_each_row_cdf_where_it_changes():
    """Before the band a row CDF is exactly 0 and from the band's end on
    exactly its total; the band is as wide as the widest run of nonzero
    entries, and an all-zero row costs one column."""
    kern = np.array([[[0.0, 0.5, 0.5, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 0.0, 1.0],
                      [0.25, 0.0, 0.0, 0.75, 0.0],
                      [0.0, 0.0, 0.0, 0.0, 0.0],
                      [1.0, 0.0, 0.0, 0.0, 0.0]]])
    bands = row_bands(kern)
    assert bands.k == 5 and bands.cdf.shape == (4, 5)
    assert list(bands.start) == [1, 1, 0, 0, 0]
    assert list(bands.total) == [1.0, 1.0, 1.0, 0.0, 1.0]
    cdfs = np.cumsum(kern[0], axis=1)
    for r in range(5):
        s = bands.start[r]
        assert np.array_equal(bands.cdf[:, r], cdfs[r, s:s + 4])
        assert (cdfs[r, :s] == 0.0).all() and (cdfs[r, s + 4:] == bands.total[r]).all()


def test_kernel_row_cdfs_are_ordered_on_mass_bearing_rows():
    """Cumulative kernel rows from monotone couplings are pointwise ordered
    across input bins (restricted to bins carrying input mass)."""
    rng = np.random.default_rng(21)
    for _ in range(10):
        k = int(rng.integers(2, 8))
        d = dists_from_pmfs([random_pmf(rng, k) for _ in range(2)])
        sol = solve(build_lp(d, float(rng.choice([0.0, 0.2]))))
        kern = extract_kernels(sol, d.pmfs)
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
    kern = extract_kernels(sol, dists_from_pmfs(pmfs).pmfs)
    assert np.array_equal(kern, extract_kernels_loop(couplings, pmfs))


def test_row_means_barycentric_projection():
    _, d, sol = solved_example()
    kern = extract_kernels(sol, d.pmfs)
    g = make_grid(0, 1, 3)
    means = row_means(kern, g)
    assert means[0, 0] == pytest.approx(0.5)   # row (0,1,0) -> v_2
    assert means[0, 2] == pytest.approx(5 / 6)  # identity row keeps its midpoint
