import itertools
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.optimize._highspy._core import HighsModelStatus, HighsStatus, MatrixFormat

from fairpost import barycenter_lp
from fairpost.barycenter_lp import build_lp, monotone_coupling, solve
from fairpost.dp_estimation import PrivateGroupDists
from fairpost.errors import SolverFailure
from fairpost.grid import make_grid
from lp_oracles import (fixed_target_cost, full_lp_objective, full_program, ks_distance,
                        w2sq_monotone)


def dists_from_pmfs(pmfs, weights=None):
    pmfs = np.asarray(pmfs, dtype=float)
    if weights is None:
        weights = np.full(len(pmfs), 1.0 / len(pmfs))
    return PrivateGroupDists(weights=np.asarray(weights, dtype=float), pmfs=pmfs)


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
    g = make_grid(0, 1, 3)
    d = dists_from_pmfs([[1, 0, 0], [0, 0, 1]], [0.5, 0.5])
    lp = build_lp(d, g, 0.1)
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
    g = make_grid(0, 1, 3)
    d = dists_from_pmfs([[1, 0, 0], [0, 0, 1]])
    lp = build_lp(d, g, math.inf)
    full = full_program(lp)
    assert full.a_ub is None and full.b_ub is None
    assert lp.a_ub is None and lp.b_ub is None
    assert lp.a_eq.nnz == 2 * (2 * 3 - 1)


def test_zero_alpha_keeps_paired_rows_at_zero():
    g = make_grid(0, 1, 3)
    d = dists_from_pmfs([[1, 0, 0], [0, 0, 1]])
    lp = build_lp(d, g, 0.0)
    full = full_program(lp)
    assert full.a_ub.shape[0] == 12 + 2
    assert (full.b_ub == 0).all()
    assert lp.a_ub.nnz == 2 * 14 and (lp.b_ub == 0).all()


def test_negative_alpha_rejected():
    g = make_grid(0, 1, 2)
    with pytest.raises(ValueError):
        build_lp(dists_from_pmfs([[1, 0]]), g, -0.1)


def test_nan_alpha_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        build_lp(dists_from_pmfs([[1, 0]]), make_grid(0, 1, 2), math.nan)


# ---------------------------------------------------------------------- solve


def test_opposed_point_masses_exact_barycenter():
    """Two point masses at the ends, alpha = 0: enumerate every candidate
    center on a 1/8-resolution simplex grid, score each with the transport
    oracle, and confirm the LP lands on the enumerated minimum."""
    g = make_grid(0, 1, 3)
    pmfs = np.array([[1.0, 0, 0], [0, 0, 1.0]])
    weights = np.array([0.5, 0.5])
    sol = solve(build_lp(dists_from_pmfs(pmfs, weights), g, 0.0))

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
    g = make_grid(0, 1, 4)
    p = np.array([0.1, 0.4, 0.3, 0.2])
    for alpha in (0.0, 0.2, math.inf):
        sol = solve(build_lp(dists_from_pmfs([p, p]), g, alpha))
        assert sol.objective == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(sol.targets, [p, p], atol=1e-9)
        for a in range(2):
            assert np.allclose(sol.couplings[a], np.diag(p), atol=1e-9)
    # the center itself is pinned only when the KS ball has zero radius
    sol0 = solve(build_lp(dists_from_pmfs([p, p]), g, 0.0))
    assert np.allclose(sol0.barycenter, p, atol=1e-9)


def test_alpha_two_never_binds():
    rng = np.random.default_rng(0)
    g = make_grid(0, 1, 5)
    pmfs = [random_pmf(rng, 5) for _ in range(3)]
    sol = solve(build_lp(dists_from_pmfs(pmfs), g, 2.0))
    assert sol.objective == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(sol.targets, pmfs, atol=1e-7)


def test_infinite_alpha_short_circuit():
    rng = np.random.default_rng(1)
    g = make_grid(0, 1, 4)
    pmfs = [random_pmf(rng, 4) for _ in range(2)]
    sol = solve(build_lp(dists_from_pmfs(pmfs), g, math.inf))
    assert sol.objective == 0.0
    assert np.allclose(sol.targets, pmfs)
    for a in range(2):
        assert np.allclose(sol.couplings[a], np.diag(pmfs[a]))


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
        g = make_grid(0, 1, k)
        p = random_pmf(rng, k)
        sol = solve(build_lp(dists_from_pmfs([p], [1.0]), g, 0.0))
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
        sol = solve(build_lp(dists_from_pmfs([p, q], [0.5, 0.5]), g, 0.0))
        w2, _ = w2sq_monotone(p, q, g)
        assert sol.objective == pytest.approx(0.25 * w2, abs=1e-7)


def test_two_group_point_mass_quantile_average():
    g = make_grid(0, 1, 5)
    p = np.array([0.0, 1.0, 0, 0, 0])
    q = np.array([0.0, 0, 0, 1.0, 0])  # indices 1 and 3 average to 2
    sol = solve(build_lp(dists_from_pmfs([p, q], [0.5, 0.5]), g, 0.0))
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
        g = make_grid(0, 1, k)
        lp = build_lp(dists_from_pmfs(pmfs, weights), g, alpha)
        sol = solve(lp)
        assert_solution_invariants(lp, sol, alpha)
        for a in range(n_groups):
            assert_monotone_support(sol.couplings[a])


def test_objective_monotone_in_alpha():
    rng = np.random.default_rng(5)
    g = make_grid(0, 1, 6)
    pmfs = [random_pmf(rng, 6) for _ in range(3)]
    d = dists_from_pmfs(pmfs)
    alphas = [0.0, 0.05, 0.1, 0.3, 0.7, 2.0]
    objectives = [solve(build_lp(d, g, a)).objective for a in alphas]
    for lo, hi in zip(objectives[1:], objectives[:-1]):
        assert lo <= hi + 1e-8


# ---------------------------------------------------------- column generation

# a bin's mass: empty, float dust, or an ordinary share
MASSES = st.one_of(st.just(0.0), st.floats(1e-30, 1e-15), st.floats(1e-3, 1.0))


@st.composite
def lp_instances(draw, alphas=(0.0, 0.01, 0.05, 0.2, 2.0)):
    n_groups = draw(st.integers(1, 5))
    k = draw(st.integers(1, 40))
    pmfs = []
    for _ in range(n_groups):
        x = np.array(draw(st.lists(MASSES, min_size=k, max_size=k)))
        if x.sum() == 0:
            x[draw(st.integers(0, k - 1))] = 1.0
        pmfs.append(x / x.sum())
    weights = draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0]),
                            min_size=n_groups, max_size=n_groups))
    alpha = draw(st.sampled_from(alphas))
    return build_lp(dists_from_pmfs(pmfs, weights), make_grid(0, 1, k), alpha)


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


@settings(deadline=None, max_examples=40)
@given(lp_instances())
def test_column_generation_matches_full_lp(lp):
    sol = solve(lp)
    assert sol.objective == pytest.approx(full_lp_objective(lp), abs=1e-9)
    assert_solution_invariants(lp, sol, lp.alpha)


def seed_mask_union1d(lp):
    """The seed mask built over ``np.union1d`` of the breakpoints, each piece
    binned by its left end: the construction ``_seed_mask`` must reproduce
    bit for bit."""
    cdfs = np.cumsum(lp.pmfs, axis=1)
    wtot = lp.weights.sum()
    w = lp.weights / wtot if wtot > 0 else np.full(lp.n_groups, 1.0 / lp.n_groups)
    edges = np.union1d(0.0, cdfs)
    widths = np.diff(edges)
    bins = np.minimum((cdfs[:, None, :] <= edges[:-1, None]).sum(axis=2), lp.k - 1)
    center = np.rint((w[:, None] * bins).sum(axis=0)).astype(np.intp)
    b_cdf = np.cumsum(np.bincount(center, weights=widths, minlength=lp.k))
    half = lp.alpha / 2.0
    lo = np.concatenate([np.zeros((lp.n_groups, 1)), cdfs[:, :-1]], axis=1) - half
    hi = cdfs + half
    b_lo = np.concatenate([[0.0], b_cdf[:-1]])
    return (lo[:, :, None] <= b_cdf) & (b_lo <= hi[:, :, None])


@settings(deadline=None, max_examples=200)
@given(lp_instances())
def test_seed_mask_matches_the_union1d_construction(lp):
    assert np.array_equal(barycenter_lp._seed_mask(lp), seed_mask_union1d(lp))


def test_infinite_alpha_couplings_are_exact_diagonals():
    rng = np.random.default_rng(3)
    pmfs = [random_pmf(rng, 6) for _ in range(3)]
    sol = solve(build_lp(dists_from_pmfs(pmfs), make_grid(0, 1, 6), math.inf))
    for a in range(3):
        assert np.array_equal(sol.couplings[a], np.diag(pmfs[a]))


def test_repair_rejects_massless_and_non_optimal_couplings():
    lp = build_lp(dists_from_pmfs([[0.5, 0.5], [0.5, 0.5]]), make_grid(0, 1, 2), 0.1)
    q = np.array([0.5, 0.5])
    identity = np.array([np.diag(q)] * 2)
    assert np.array_equal(barycenter_lp._repair(lp, identity.copy(), q).couplings, identity)
    empty = identity.copy()
    empty[1] = 0.0
    with pytest.raises(SolverFailure, match="group 1 carries no mass"):
        barycenter_lp._repair(lp, empty, q)
    crossed = np.array([[[0.0, 0.5], [0.5, 0.0]]] * 2)
    with pytest.raises(SolverFailure, match="monotone rearrangement changed the objective"):
        barycenter_lp._repair(lp, crossed, q)


def recording_linprog(monkeypatch):
    """Wrap the solver's linprog; returns the (HiGHS object, master columns,
    run) of each call, the columns counted as the run starts."""
    calls = []
    real = barycenter_lp.linprog

    def wrapped(highs, n_ub):
        cols = highs.getNumCol()
        res = real(highs, n_ub)
        calls.append((highs, cols, res))
        return res
    monkeypatch.setattr(barycenter_lp, "linprog", wrapped)
    return calls


@settings(deadline=None, max_examples=100)
@given(lp_instances())
def test_seed_master_is_feasible(lp):
    """The seed band holds the monotone coupling p_a -> b, so q_a = q = b
    is feasible and the first master solves to optimality."""
    with pytest.MonkeyPatch.context() as mp:
        calls = recording_linprog(mp)
        solve(lp)
    assert calls[0][2].status == HighsModelStatus.kOptimal


def test_infeasible_master_is_a_solver_failure(monkeypatch):
    """A diagonal-only master pins each target to its input, which alpha = 0
    makes infeasible for distinct inputs; no second program is tried."""
    rng = np.random.default_rng(11)
    g = make_grid(0, 1, 8)
    lp = build_lp(dists_from_pmfs([random_pmf(rng, 8) for _ in range(3)]), g, 0.0)
    monkeypatch.setattr(barycenter_lp, "_seed_mask", lambda lp: np.tile(
        np.eye(lp.k, dtype=bool), (lp.n_groups, 1, 1)))
    calls = recording_linprog(monkeypatch)
    with pytest.raises(SolverFailure, match=r"HiGHS model status 8: Infeasible\)"):
        solve(lp)
    assert [(cols, res.status) for _, cols, res in calls] == [
        (3 * 8 + 8 + 3 * 8, HighsModelStatus.kInfeasible)]


def test_a_call_highs_rejects_is_a_solver_failure(monkeypatch):
    """An option, model or column batch that HiGHS refuses stops the solve
    instead of leaving a master that no longer matches its columns."""
    rng = np.random.default_rng(12)
    lp = build_lp(dists_from_pmfs([random_pmf(rng, 10) for _ in range(3)], [0.5, 0.3, 0.2]),
                  make_grid(0, 1, 10), 0.05)
    monkeypatch.setattr(barycenter_lp, "_seed_mask", uniform_seed_mask)
    for method, what in (("setOptionValue", "option primal_feasibility_tolerance=1e-10"),
                         ("passModel", "the seed master"),
                         ("addCols", "the entering columns")):
        refusing = type("Refusing", (barycenter_lp._Highs,),
                        {method: lambda self, *args: HighsStatus.kError})
        with monkeypatch.context() as mp:
            mp.setattr(barycenter_lp, "_Highs", refusing)
            with pytest.raises(SolverFailure, match=f"^HiGHS rejected {re.escape(what)}$"):
                solve(lp)


def uniform_seed_mask(lp):
    """The monotone supports to the uniform pmf: a feasible master
    (q_a = q = uniform) that is not optimal, so pricing must add columns."""
    uniform = np.full(lp.k, 1.0 / lp.k)
    return np.array([monotone_coupling(p, uniform) > 0 for p in lp.pmfs])


@pytest.mark.parametrize("alpha", [0.0, 0.05, 0.2])
def test_pricing_grows_a_feasible_master_to_the_optimum(monkeypatch, alpha):
    """From the uniform seed every round adds columns, up to the optimum."""
    rng = np.random.default_rng(12)
    k = 10
    pmfs = [random_pmf(rng, k) for _ in range(3)]
    lp = build_lp(dists_from_pmfs(pmfs, [0.5, 0.3, 0.2]), make_grid(0, 1, k), alpha)
    monkeypatch.setattr(barycenter_lp, "_seed_mask", uniform_seed_mask)
    calls = recording_linprog(monkeypatch)
    sol = solve(lp)
    assert len(calls) > 1 and all(res.status == HighsModelStatus.kOptimal
                                  for _, _, res in calls)
    cols = [n for _, n, _ in calls]
    assert all(later > earlier for earlier, later in zip(cols, cols[1:]))
    assert sol.objective == pytest.approx(full_lp_objective(lp), abs=1e-9)


def master_matrix(master):
    """The constraint matrix of a HighsLp as CSC; HiGHS may hold it row-wise."""
    a = master.a_matrix_
    shape = (master.num_row_, master.num_col_)
    if a.format_ == MatrixFormat.kColwise:
        return sparse.csc_matrix((a.value_, a.index_, a.start_), shape=shape)
    return sparse.csr_matrix((a.value_, a.index_, a.start_), shape=shape).tocsc()


@pytest.mark.parametrize("alpha", [0.0, 0.05, 0.2])
@pytest.mark.parametrize("seed_mask", ["uniform", "default"])
def test_rounds_warm_start_one_master_built_from_indices(monkeypatch, alpha, seed_mask):
    """Every run of one solve gets the same HiGHS object, which grows by
    exactly the columns the previous run's duals price in, and every master
    column equals the oracle full program's column of the same variable.  The
    first run is dual simplex, as in scipy's linprog; warm runs are primal."""
    rng = np.random.default_rng(13)
    k, n_groups = 12, 3
    pmfs = [random_pmf(rng, k) ** 3 for _ in range(n_groups)]
    lp = build_lp(dists_from_pmfs([p / p.sum() for p in pmfs], [0.5, 0.3, 0.2]),
                  make_grid(0, 1, k), alpha)
    if seed_mask == "uniform":
        monkeypatch.setattr(barycenter_lp, "_seed_mask", uniform_seed_mask)
    runs = []
    real = barycenter_lp.linprog

    def wrapped(highs, n_ub):
        master, strategy = highs.getLp(), highs.getOptionValue("simplex_strategy")[1]
        res = real(highs, n_ub)
        runs.append((highs, n_ub, master, res, strategy))
        return res
    monkeypatch.setattr(barycenter_lp, "linprog", wrapped)
    sol = solve(lp)
    assert sol.objective == pytest.approx(full_lp_objective(lp), abs=1e-9)
    if seed_mask == "uniform":
        assert len(runs) > 1

    gk, nc = n_groups * k, n_groups * k * k
    full = full_program(lp)
    n_ub = full.a_ub.shape[0]
    matrix_full = sparse.vstack([full.a_ub, full.a_eq]).tocsc()
    price = lp.cost.reshape(n_groups, k, k)
    mask = barycenter_lp._seed_mask(lp)
    var = np.concatenate([np.flatnonzero(mask), np.arange(nc, lp.n_vars)])
    for i, (highs, run_n_ub, master, res, strategy) in enumerate(runs):
        assert highs is runs[0][0]
        assert run_n_ub == n_ub
        assert strategy == (1 if i == 0 else 4)
        assert master.num_col_ == len(var)
        matrix, expected = master_matrix(master), matrix_full[:, var]
        for col in range(len(var)):
            got, want = matrix.getcol(col), expected.getcol(col)
            assert np.array_equal(got.indices, want.indices), (col, var[col])
            assert np.array_equal(got.data, want.data), (col, var[col])
        assert np.array_equal(master.col_cost_, full.cost[var])
        assert np.array_equal(master.row_lower_, np.concatenate([np.full(n_ub, -np.inf),
                                                                 full.b_eq]))
        assert np.array_equal(master.row_upper_, np.concatenate([full.b_ub, full.b_eq]))
        reduced = (price - res.duals[:gk].reshape(n_groups, k, 1)
                   - res.duals[gk:].reshape(n_groups, 1, k))
        entering = (reduced < -barycenter_lp._PRICE_TOL) & ~mask
        mask |= entering
        var = np.concatenate([var, np.flatnonzero(entering)])
    assert not entering.any()


def test_solve_logs_its_master_size_runs_and_iterations(caplog):
    rng = np.random.default_rng(14)
    lp = build_lp(dists_from_pmfs([random_pmf(rng, 9) for _ in range(2)]),
                  make_grid(0, 1, 9), 0.05)
    with caplog.at_level(logging.DEBUG, logger="fairpost.barycenter_lp"):
        solve(lp)
    [record] = [r for r in caplog.records if r.name == "fairpost.barycenter_lp"]
    assert record.levelno == logging.DEBUG
    assert re.fullmatch(r"barycenter LP k=9 alpha=0\.05: \d+ master columns, "
                        r"[1-9]\d* HiGHS runs, \d+ simplex iterations", record.getMessage())

