import itertools
import logging
import math
import re

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from fairpost import barycenter_lp
from fairpost.barycenter_lp import build_lp, linprog, monotone_coupling, solve
from fairpost.errors import SolverFailure
from fairpost.grid import make_grid
from lp_oracles import (dists_from_pmfs, fixed_target_cost, full_program, ks_distance, phi_table,
                        table_centers, w2sq_monotone)


def random_pmf(rng, k):
    x = rng.random(k) + 1e-3
    return x / x.sum()


def barycenter_objective(pmfs, weights, q, grid):
    """Score a candidate center against the monotone-coupling oracle."""
    return sum(w * w2sq_monotone(p, q, grid)[0] for p, w in zip(pmfs, weights))


def enumerate_simplex(k, denominator):
    """All PMFs on k bins with masses that are multiples of 1/denominator."""
    for cuts in itertools.combinations_with_replacement(range(denominator + 1), k - 1):
        parts = np.diff((0,) + cuts + (denominator,))
        yield parts / denominator


# ---------------------------------------------------------------------- build


def test_variable_and_row_counts():
    d = dists_from_pmfs([[1, 0, 0], [0, 0, 1]], [0.5, 0.5])
    lp = build_lp(d, 0.1)
    full = full_program(lp)
    # couplings, center running sums Q, target running sums S_a
    assert lp.n_vars == 2 * 9 + 3 + 2 * 3 == 27 == len(full.cost)
    # row marginals, column marginals as running-sum steps
    assert full.a_eq.shape[0] == 2 * 2 * 3
    assert full.a_eq.nnz == 2 * 2 * 9 + 2 * (2 * 3 - 1)
    # paired KS rows with two nonzeros each, then k - 1 center rows
    assert full.a_ub.shape[0] == 2 * 2 * 3 + 2
    assert np.array_equal(np.diff(full.a_ub.indptr), [2] * 14)
    # build_lp keeps the coupling costs and only the 3 + 6 Q and S columns:
    # the S steps of the column-marginal rows, and every inequality entry
    assert lp.cost.shape == (2 * 9,)
    assert lp.a_eq.shape == (12, 9) and lp.a_eq.nnz == 2 * (2 * 3 - 1)
    assert lp.a_ub.shape == (14, 9) and lp.a_ub.nnz == 2 * 14


def test_infinite_alpha_omits_ks_rows():
    d = dists_from_pmfs([[1, 0, 0], [0, 0, 1]])
    lp = build_lp(d, math.inf)
    full = full_program(lp)
    assert full.a_ub is None and full.b_ub is None
    assert lp.a_ub is None and lp.b_ub is None
    assert lp.a_eq.nnz == 2 * (2 * 3 - 1)


def test_zero_alpha_keeps_paired_rows_at_zero():
    d = dists_from_pmfs([[1, 0, 0], [0, 0, 1]])
    lp = build_lp(d, 0.0)
    full = full_program(lp)
    assert full.a_ub.shape[0] == 12 + 2
    assert (full.b_ub == 0).all()
    assert lp.a_ub.nnz == 2 * 14 and (lp.b_ub == 0).all()


def test_negative_alpha_rejected():
    with pytest.raises(ValueError):
        build_lp(dists_from_pmfs([[1, 0]]), -0.1)


def test_nan_alpha_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        build_lp(dists_from_pmfs([[1, 0]]), math.nan)


# ---------------------------------------------------------------------- solve


def test_opposed_point_masses_exact_barycenter():
    """Two point masses at the ends, alpha = 0: enumerate every candidate
    center on a 1/8-resolution simplex grid, score each with the transport
    oracle, and confirm the LP lands on the enumerated minimum."""
    g = make_grid(0, 1, 3)
    pmfs = np.array([[1.0, 0, 0], [0, 0, 1.0]])
    weights = np.array([0.5, 0.5])
    sol = solve(build_lp(dists_from_pmfs(pmfs, weights), 0.0))

    best_q, best_cost = None, np.inf
    for q in enumerate_simplex(3, 8):
        c = barycenter_objective(pmfs, weights, q, g)
        if c < best_cost:
            best_q, best_cost = q, c
    assert best_cost == pytest.approx(1 / 9)
    assert np.allclose(best_q, [0, 1, 0])
    assert sol.objective == pytest.approx(1 / 9, abs=1e-9)
    assert np.allclose(sol.barycenter, [0, 1, 0], atol=1e-9)
    assert np.allclose(sol.targets, [[0, 1, 0], [0, 1, 0]], atol=1e-9)


def test_identical_groups_zero_objective_identity_couplings():
    p = np.array([0.1, 0.4, 0.3, 0.2])
    for alpha in (0.0, 0.2, math.inf):
        sol = solve(build_lp(dists_from_pmfs([p, p]), alpha))
        assert sol.objective == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(sol.targets, [p, p], atol=1e-9)
        for a in range(2):
            assert np.allclose(sol.couplings[a], np.diag(p), atol=1e-9)
    # the center itself is pinned only when the KS ball has zero radius
    sol0 = solve(build_lp(dists_from_pmfs([p, p]), 0.0))
    assert np.allclose(sol0.barycenter, p, atol=1e-9)


def test_alpha_two_never_binds():
    rng = np.random.default_rng(0)
    pmfs = [random_pmf(rng, 5) for _ in range(3)]
    sol = solve(build_lp(dists_from_pmfs(pmfs), 2.0))
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(sol.targets, pmfs, atol=1e-7)


def test_infinite_alpha_short_circuit():
    rng = np.random.default_rng(1)
    pmfs = [random_pmf(rng, 4) for _ in range(3)]
    sol = solve(build_lp(dists_from_pmfs(pmfs), math.inf))
    assert sol.objective == 0.0
    assert np.allclose(sol.targets, pmfs)
    for a in range(3):
        assert np.allclose(sol.couplings[a], np.diag(pmfs[a]))
    # the center every alpha stores: the midrange of the targets' CDFs, differenced
    cdfs = np.cumsum(pmfs, axis=1)
    assert np.allclose(np.cumsum(sol.barycenter), (cdfs.max(axis=0) + cdfs.min(axis=0)) / 2)


# ------------------------------------------------------------ oracle bridges


def test_fixed_target_point_mass_cost():
    g = make_grid(0, 1, 3)
    assert fixed_target_cost([1, 0, 0], [0, 0, 1], g) == pytest.approx(4 / 9, abs=1e-9)


def test_fixed_target_identity_zero():
    g = make_grid(0, 1, 3)
    p = [0.2, 0.3, 0.5]
    assert fixed_target_cost(p, p, g) == pytest.approx(0.0, abs=1e-12)


def test_fixed_target_infeasible_mass_mismatch():
    g = make_grid(0, 1, 2)
    with pytest.raises(SolverFailure):
        fixed_target_cost([0.5, 0.5], [0.2, 0.2], g)


def test_fixed_target_matches_oracle_randomized():
    rng = np.random.default_rng(42)
    for _ in range(200):
        k = int(rng.integers(1, 9))
        g = make_grid(0, 1, k)
        p, q = random_pmf(rng, k), random_pmf(rng, k)
        lp_cost = fixed_target_cost(p, q, g)
        oracle_cost, _ = w2sq_monotone(p, q, g)
        assert lp_cost == pytest.approx(oracle_cost, abs=1e-7)


def test_single_group_alpha_zero_matches_oracle():
    """With one group and alpha = 0 the LP reduces to a free-target
    transport, whose optimum is the zero-cost self-coupling."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = int(rng.integers(1, 9))
        p = random_pmf(rng, k)
        sol = solve(build_lp(dists_from_pmfs([p], [1.0]), 0.0))
        assert sol.objective == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(sol.targets[0], p, atol=1e-7)


def shifted_pair(rng, k, shift):
    """A pmf and its translate by 2*shift bins: the quantile-average
    barycenter sits exactly on the grid, shifted by `shift` bins."""
    core = random_pmf(rng, k - 2 * shift)
    p = np.zeros(k)
    q = np.zeros(k)
    p[:k - 2 * shift] = core
    q[2 * shift:] = core
    return p, q


def test_two_group_quantile_average_barycenter():
    rng = np.random.default_rng(7)
    for _ in range(30):
        k = int(rng.integers(3, 9))
        shift = int(rng.integers(1, k // 2 + 1))
        if k - 2 * shift < 1:
            continue
        g = make_grid(0, 1, k)
        p, q = shifted_pair(rng, k, shift)
        sol = solve(build_lp(dists_from_pmfs([p, q], [0.5, 0.5]), 0.0))
        w2, _ = w2sq_monotone(p, q, g)
        assert sol.objective == pytest.approx(0.25 * w2, abs=1e-7)


def test_two_group_point_mass_quantile_average():
    g = make_grid(0, 1, 5)
    p = np.array([0.0, 1.0, 0, 0, 0])
    q = np.array([0.0, 0, 0, 1.0, 0])  # indices 1 and 3 average to 2
    sol = solve(build_lp(dists_from_pmfs([p, q], [0.5, 0.5]), 0.0))
    w2, _ = w2sq_monotone(p, q, g)
    assert sol.objective == pytest.approx(0.25 * w2, abs=1e-9)
    assert np.allclose(sol.barycenter, [0, 0, 1, 0, 0], atol=1e-9)


# ----------------------------------------------------------------- invariants


def assert_solution_invariants(lp, sol, alpha):
    for a in range(lp.n_groups):
        assert np.abs(sol.couplings[a].sum(axis=1) - lp.pmfs[a]).max() < 1e-6
        assert np.abs(sol.couplings[a].sum(axis=0) - sol.targets[a]).max() < 1e-6
        if not math.isinf(alpha):
            partial = np.cumsum(sol.targets[a] - sol.barycenter)
            assert np.abs(partial).max() <= alpha / 2 + 1e-6
    for a in range(lp.n_groups):
        for b in range(a + 1, lp.n_groups):
            gap = ks_distance(sol.targets[a] / sol.targets[a].sum(),
                              sol.targets[b] / sol.targets[b].sum())
            assert gap <= min(alpha, 1.0) + 1e-6


def assert_monotone_support(coupling, tol=1e-7):
    # no earlier row may reach past a later row's smallest active column
    running_max = -1
    for j in range(coupling.shape[0]):
        active = np.nonzero(coupling[j] > tol)[0]
        if len(active) == 0:
            continue
        assert running_max <= active.min()
        running_max = max(running_max, active.max())


def test_random_instances_feasible_fair_and_monotone():
    rng = np.random.default_rng(17)
    for trial in range(40):
        k = int(rng.integers(1, 9))
        n_groups = int(rng.integers(1, 4))
        alpha = float(rng.choice([0.0, 0.05, 0.3, 1.0, math.inf]))
        weights = rng.random(n_groups)
        if trial % 5 == 0 and n_groups > 1:
            weights[0] = 0.0  # zero-weight groups stay in the program
        pmfs = [random_pmf(rng, k) for _ in range(n_groups)]
        lp = build_lp(dists_from_pmfs(pmfs, weights), alpha)
        sol = solve(lp)
        assert_solution_invariants(lp, sol, alpha)
        for a in range(n_groups):
            assert_monotone_support(sol.couplings[a])


def test_objective_monotone_in_alpha():
    rng = np.random.default_rng(5)
    pmfs = [random_pmf(rng, 6) for _ in range(3)]
    d = dists_from_pmfs(pmfs)
    alphas = [0.0, 0.05, 0.1, 0.3, 0.7, 2.0]
    objectives = [solve(build_lp(d, a)).objective for a in alphas]
    for lo, hi in zip(objectives[1:], objectives[:-1]):
        assert lo <= hi + 1e-8




def test_infinite_alpha_couplings_are_exact_diagonals():
    rng = np.random.default_rng(3)
    pmfs = [random_pmf(rng, 6) for _ in range(3)]
    sol = solve(build_lp(dists_from_pmfs(pmfs), math.inf))
    for a in range(3):
        assert np.array_equal(sol.couplings[a], np.diag(pmfs[a]))


# ---------------------------------------------------- the reference program

# a bin's mass: empty, float dust, or an ordinary share
MASSES = st.one_of(st.just(0.0), st.floats(1e-30, 1e-15), st.floats(1e-3, 1.0))
# Group weights with an integer relation, such as 0.1 + 0.1 + 0.1 + ... = 0.5,
# let the slopes of different groups' Phi cancel, which can leave several
# optimal target sets.  Distinct square roots of primes have no such relation.
TIED_WEIGHTS = (0.0, 0.1, 0.5, 1.0)
FREE_WEIGHTS = tuple(np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0]) / 10)


def pmf_lists(draw, n, k):
    pmfs = []
    for _ in range(n):
        x = np.array(draw(st.lists(MASSES, min_size=k, max_size=k)))
        if x.sum() == 0:
            x[draw(st.integers(0, k - 1))] = 1.0
        pmfs.append(x / x.sum())
    return pmfs


@st.composite
def lp_instances(draw, alphas=(0.0, 0.01, 0.05, 0.2, 2.0), max_k=40):
    n_groups = draw(st.integers(1, 5))
    k = draw(st.integers(1, max_k))
    pmfs = pmf_lists(draw, n_groups, k)
    if draw(st.booleans()):
        weights = draw(st.lists(st.sampled_from(TIED_WEIGHTS),
                                min_size=n_groups, max_size=n_groups))
    else:
        drop = draw(st.lists(st.booleans(), min_size=n_groups, max_size=n_groups))
        weights = np.where(drop, 0.0, draw(st.permutations(FREE_WEIGHTS))[:n_groups])
    alpha = draw(st.sampled_from(alphas))
    return build_lp(dists_from_pmfs(pmfs, weights), alpha)


def same_csr(got, want):
    """Equal shape, dtype, entries and entry order, once both are canonical."""
    got, want = got.tocsr(), want.tocsr()
    got.sort_indices()
    want.sort_indices()
    return (got.shape == want.shape and got.dtype == want.dtype
            and all(np.array_equal(getattr(got, name), getattr(want, name))
                    for name in ("indptr", "indices", "data")))


@settings(deadline=None, max_examples=200)
@given(lp_instances(alphas=(0.0, 0.05, 2.0, math.inf)))
def test_build_lp_is_the_full_programs_q_and_s_block(lp):
    """build_lp's matrices are the oracle's Q and S columns, and its costs
    the oracle's coupling costs, bit for bit; the right-hand sides agree."""
    full = full_program(lp)
    nc = lp.n_groups * lp.k * lp.k
    assert lp.n_vars == len(full.cost)
    assert np.array_equal(lp.cost, full.cost[:nc]) and not full.cost[nc:].any()
    assert same_csr(lp.a_eq, full.a_eq[:, nc:])
    assert np.array_equal(lp.b_eq, full.b_eq)
    if math.isinf(lp.alpha):
        assert lp.a_ub is None and lp.b_ub is None and full.a_ub is None
    else:
        assert same_csr(lp.a_ub, full.a_ub[:, nc:])
        assert np.array_equal(lp.b_ub, full.b_ub)


class Captured(Exception):
    pass


@settings(deadline=None, max_examples=50)
@given(lp_instances(alphas=(0.0, 0.05, math.inf)))
def test_linprog_hands_highs_the_full_program(lp):
    """The reference solves exactly the oracle's full program."""
    args = {}

    def capture(c, **kwargs):
        args.update(kwargs, c=c)
        raise Captured

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scipy.optimize, "linprog", capture)
        with pytest.raises(Captured):
            linprog(lp)
    full = full_program(lp)
    assert np.array_equal(args["c"], full.cost)
    assert same_csr(args["A_eq"], full.a_eq) and np.array_equal(args["b_eq"], full.b_eq)
    if math.isinf(lp.alpha):
        assert args["A_ub"] is None and args["b_ub"] is None
    else:
        assert same_csr(args["A_ub"], full.a_ub) and np.array_equal(args["b_ub"], full.b_ub)
    assert (args["bounds"], args["method"]) == ((0, None), "highs")


@settings(deadline=None, max_examples=40)
@given(lp_instances())
def test_isotonic_solve_matches_the_linprog_reference(lp):
    """Objectives agree within 1e-9 on every instance.  The targets of
    positive-weight groups agree within 1e-9 too when those weights are
    distinct square roots of primes; with tied weights the reference may
    pick another optimal target set."""
    sol, ref = solve(lp), linprog(lp)
    assert sol.objective == pytest.approx(ref.objective, abs=1e-9)
    assert_solution_invariants(lp, sol, lp.alpha)
    positive = lp.weights > 0
    if set(lp.weights[positive]) <= set(FREE_WEIGHTS):
        assert np.abs(sol.targets[positive] - ref.targets[positive]).max(initial=0.0) <= 1e-9


# ------------------------------------------------------ the isotonic reduction


def psi(cdf, n, s):
    """psi_n(s) for the CDF values ``cdf`` at the gaps, by its definition:
    sum_{m <= n} c_mn (F(m) - s)_+ + sum_{m >= n} c_mn (s - F(m))_+ with
    c_mn = 2 for m != n and 1 for m = n, at each s of the array ``s``."""
    m = np.arange(len(cdf))
    c = np.where(m == n, 1.0, 2.0)
    s = np.asarray(s, dtype=float)[..., None]
    return ((c * np.where(m <= n, np.maximum(cdf - s, 0.0), 0.0)).sum(axis=-1)
            + (c * np.where(m >= n, np.maximum(s - cdf, 0.0), 0.0)).sum(axis=-1))


@st.composite
def pmf_pairs(draw):
    k = draw(st.integers(1, 40))
    return pmf_lists(draw, 2, k)


@settings(deadline=None, max_examples=300)
@given(pmf_pairs())
def test_w2_is_separable_in_the_target_cdf(pair):
    """W2^2(p, q) = d^2 sum_n psi_n(F_q(n)) over the k - 1 gaps, the cost of
    the monotone coupling on a grid of spacing d."""
    p, q = pair
    k = len(p)
    grid = make_grid(0, 1, k)
    sq = (grid.midpoints[:, None] - grid.midpoints[None, :]) ** 2
    direct = float((sq * monotone_coupling(p, q)).sum())
    fp, fq = np.cumsum(p)[:-1], np.cumsum(q)[:-1]
    separable = sum(float(psi(fp, n, fq[n])) for n in range(k - 1)) / k ** 2
    assert separable == pytest.approx(direct, abs=1e-12)


@settings(deadline=None, max_examples=100)
@given(lp_instances(max_k=12))
def test_phi_table_follows_its_definition(lp):
    """Each entry is sum_a w_a d^2 psi_{a,n}(clip(F_a(n), x - alpha/2, x + alpha/2))
    at a breakpoint x, and the breakpoints are every F_a(n) +- alpha/2."""
    h = lp.alpha / 2
    gaps = np.cumsum(lp.pmfs, axis=1)[:, :-1]
    x, table = phi_table(lp, gaps)
    assert np.array_equal(x, np.unique(np.concatenate([gaps.ravel() - h, gaps.ravel() + h])))
    want = np.zeros((lp.k - 1, len(x)))
    for w, f in zip(lp.weights, gaps):
        for n in range(lp.k - 1):
            want[n] += w * psi(f, n, np.clip(f[n], x - h, x + h)) / lp.k ** 2
    assert np.allclose(table, want, rtol=0, atol=1e-12)


@settings(deadline=None, max_examples=200)
@given(lp_instances())
def test_centers_meet_the_separable_lower_bound(lp):
    """Each gap's lowest minimizer of Phi_n is nondecreasing in n up to float
    ties, so the table's centers are in order and cost sum_n min Phi_n.
    They are the lowest such centers: no gap sits above its own lowest
    minimizer."""
    table = phi_table(lp, np.cumsum(lp.pmfs, axis=1)[:, :-1])[1]
    picks = table_centers(table)
    assert len(picks) == lp.k - 1 and (np.diff(picks) >= 0).all()
    if len(table):
        assert (picks <= table.argmin(axis=1)).all()
        cost = table[np.arange(len(table)), picks].sum()
        assert cost == pytest.approx(table.min(axis=1).sum(), rel=0, abs=1e-12)


PHI_ALPHAS = (0.0, 0.01, 0.05, 0.2, 1.5, 3.0)


@settings(deadline=None, max_examples=300)
@given(lp_instances(alphas=PHI_ALPHAS, max_k=80))
def test_bisection_meets_the_separable_lower_bound(lp):
    """The bisection's centers index the table's breakpoints, are
    nondecreasing, and cost sum_n min Phi_n of the table within 1e-12, with
    zero masses, zero weights, alpha = 0 and alpha above 1 included."""
    gaps = np.cumsum(lp.pmfs, axis=1)[:, :-1]
    x, picks = barycenter_lp._bisect(lp, gaps)
    want_x, table = phi_table(lp, gaps)
    assert np.array_equal(x, want_x)
    assert picks.shape == (lp.k - 1,) and (np.diff(picks) >= 0).all()
    if len(table):
        assert 0 <= picks.min() and picks.max() < len(x)
        cost = table[np.arange(len(table)), picks].sum()
        assert cost == pytest.approx(table.min(axis=1).sum(), rel=0, abs=1e-12)


@pytest.mark.parametrize("weights", [[0.5, 0.5], [0.0, 0.0]])
def test_bisection_picks_the_lowest_minimizer_of_a_flat_phi(weights):
    """With equal weights and alpha = 0, Phi_0(x) = (|0.2 - x| + |0.8 - x|) / 8
    is flat on [0.2, 0.8], and with zero weights flat everywhere: the center
    is the flat stretch's lowest breakpoint, 0.2."""
    lp = build_lp(dists_from_pmfs([[0.2, 0.8], [0.8, 0.2]], weights), 0.0)
    x, picks = barycenter_lp._bisect(lp, np.cumsum(lp.pmfs, axis=1)[:, :-1])
    assert x.tolist() == [0.2, 0.8] and picks.tolist() == [0]
    assert solve(lp).targets.tolist() == [[0.2, 0.8], [0.2, 0.8]]


@settings(deadline=None, max_examples=100)
@given(lp_instances(alphas=PHI_ALPHAS, max_k=30), st.randoms(use_true_random=False))
def test_certificate_phi_matches_the_table(lp, random):
    """The certificate's closed-form Phi_n, evaluated at three breakpoints
    per gap, equals the table's entries there."""
    gaps = np.cumsum(lp.pmfs, axis=1)[:, :-1]
    x, table = phi_table(lp, gaps)
    cols = np.array([[random.randrange(len(x)) for _ in range(lp.k - 1)] for _ in range(3)],
                    dtype=np.intp).reshape(3, lp.k - 1)
    got = barycenter_lp._phi(lp, gaps, x[cols])
    assert got.shape == cols.shape
    assert np.allclose(got, table[np.arange(lp.k - 1), cols], rtol=0, atol=1e-15)


def certified_instance():
    """Three groups on 10 bins whose gaps take distinct breakpoints, the
    first three in increasing order."""
    rng = np.random.default_rng(12)
    pmfs = [random_pmf(rng, 10) for _ in range(3)]
    return build_lp(dists_from_pmfs(pmfs, [0.5, 0.3, 0.2]), 0.05)


def swap_first_blocks(table, picks):
    """The first two gaps trade breakpoints."""
    picks[[0, 1]] = picks[[1, 0]]
    return picks


def shift_last_block(table, picks):
    """The last gap moves to its costliest breakpoint."""
    picks[-1] = np.argmax(table[-1])
    return picks


def pool_first_blocks(table, picks):
    """Gaps 0 and 1 pooled at the minimizer of their summed Phi, as
    pool-adjacent-violators would pool them: in order, and at the pooled
    minimum, but gap 0 alone is cheaper lower and gap 1 alone higher."""
    picks[:2] = np.argmin(table[:2].sum(axis=0))
    return picks


def step_first_block(table, picks):
    """Gap 0 moves one breakpoint right of its optimum, still in order."""
    picks[0] += 1
    return picks


@pytest.mark.parametrize("corrupt, faults", [
    (swap_first_blocks, ["the center decreases at gap 1"]),
    (shift_last_block, ["miss the lower bound"]),
    (pool_first_blocks, ["miss the lower bound sum_n min Phi_n by at least 0.000385"]),
    (step_first_block, ["miss the lower bound sum_n min Phi_n by at least"]),
])
def test_certificate_refuses_a_non_optimal_isotonic_solution(monkeypatch, corrupt, faults):
    lp = certified_instance()
    real = barycenter_lp._bisect
    picks = real(lp, np.cumsum(lp.pmfs, axis=1)[:, :-1])[1]
    assert picks[0] < picks[1] < picks[2]

    def corrupted(lp, gaps):
        x, picks = real(lp, gaps)
        return x, corrupt(phi_table(lp, gaps)[1], picks)
    monkeypatch.setattr(barycenter_lp, "_bisect", corrupted)
    with pytest.raises(SolverFailure, match="^solution fails its certificate") as err:
        solve(lp)
    for fault in faults:
        assert fault in str(err.value)
    if corrupt in (pool_first_blocks, step_first_block):
        assert "decreases" not in str(err.value)


def test_solve_logs_its_clip_count(caplog):
    rng = np.random.default_rng(14)
    lp = build_lp(dists_from_pmfs([random_pmf(rng, 9) for _ in range(2)]), 0.05)
    with caplog.at_level(logging.DEBUG, logger="fairpost.barycenter_lp"):
        sol = solve(lp)
    [record] = [r for r in caplog.records if r.name == "fairpost.barycenter_lp"]
    assert record.levelno == logging.DEBUG
    match = re.fullmatch(r"barycenter k=9 alpha=0\.05: the band clips (\d+) of 16 running "
                         r"sums over [1-9]\d* breakpoints", record.getMessage())
    assert match
    moved = np.cumsum(sol.targets, axis=1)[:, :-1] != np.cumsum(lp.pmfs, axis=1)[:, :-1]
    assert int(match[1]) == np.count_nonzero(moved) > 0
