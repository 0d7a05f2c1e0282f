"""Relaxed Wasserstein-barycenter linear program over grid distributions.

Variables are per-group couplings pi_a (k x k), a barycenter center q
(k), and per-group target distributions q_a (k), all nonnegative.  The
objective is the weighted squared-displacement transport cost; equality
rows pin the coupling marginals to the input PMFs and the targets, and
paired one-sided inequality rows keep every target's partial sums within
alpha/2 of the center's, i.e. each q_a inside the KS ball around q.

The solve itself is delegated to HiGHS (scipy.optimize.linprog); the
monotone-coupling oracle in :mod:`fairpost.metrics` stays an independent
check on the answers.  Solutions are repaired before they are returned:
negative float dust is clipped, targets are recomputed from the coupling
column sums, and every coupling is replaced by the monotone coupling with
the same marginals, which must not change the cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .dp_estimation import PrivateGroupDists
from .errors import SolverFailure
from .grid import Grid
from .metrics import monotone_coupling

# dust below this magnitude is clipped; anything more negative is a solver failure
_NEG_DUST = 1e-9
# tolerated cost change under monotone rearrangement of an optimal coupling
_REARRANGE_TOL = 1e-9
# tightened HiGHS tolerances; the default 1e-7 leaves too much marginal dust
# for the rearrangement check
_HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


@dataclass(frozen=True)
class LpInstance:
    """Assembled LP data.  Variable layout: couplings first (group-major,
    then row, then column), the center q, then the targets q_a."""

    n_groups: int
    k: int
    alpha: float
    weights: np.ndarray
    pmfs: np.ndarray
    midpoints: np.ndarray
    cost: np.ndarray = field(repr=False)
    a_eq: sparse.csr_matrix = field(repr=False)
    b_eq: np.ndarray = field(repr=False)
    a_ub: sparse.csr_matrix | None = field(repr=False)
    b_ub: np.ndarray | None = field(repr=False)

    @property
    def n_vars(self) -> int:
        return self.n_groups * self.k * self.k + self.k + self.n_groups * self.k

    def coupling_var(self, a: int, j: int, l: int) -> int:
        return (a * self.k + j) * self.k + l

    def center_var(self, j: int) -> int:
        return self.n_groups * self.k * self.k + j

    def target_var(self, a: int, j: int) -> int:
        return self.n_groups * self.k * self.k + self.k + a * self.k + j


@dataclass(frozen=True)
class BarycenterSolution:
    couplings: np.ndarray   # (n_groups, k, k)
    barycenter: np.ndarray  # (k,)
    targets: np.ndarray     # (n_groups, k)
    objective: float


def build_lp(dists: PrivateGroupDists, grid: Grid, alpha: float) -> LpInstance:
    """Assemble the LP for the given private distributions and KS radius
    alpha/2.  alpha = +inf drops the KS rows entirely; alpha = 0 keeps them
    as paired <= 0 constraints, forcing every target equal to the center.
    Zero-weight groups stay in the instance with zero objective weight.
    """
    if not alpha >= 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    n_groups, k = dists.n_groups, dists.k
    if k != grid.k:
        raise ValueError(f"distributions have k={k}, grid has k={grid.k}")
    v = grid.midpoints
    weights = np.asarray(dists.weights, dtype=float)
    pmfs = np.asarray(dists.pmfs, dtype=float)

    nc = n_groups * k * k           # coupling variables
    n_vars = nc + k + n_groups * k

    sq = (v[:, None] - v[None, :]) ** 2
    cost = np.zeros(n_vars)
    cost[:nc] = np.repeat(weights, k * k) * np.tile(sq.ravel(), n_groups)

    # equality block 1: row marginals, sum_l pi_a(j, l) = p_a(j)
    rows1 = np.repeat(np.arange(n_groups * k), k)
    cols1 = np.arange(nc)
    # equality block 2: column marginals, sum_j pi_a(j, l) - q_a(l) = 0
    cvars = np.arange(nc)
    rows2 = n_groups * k + (cvars // (k * k)) * k + (cvars % k)
    cols2 = cvars
    rows2t = n_groups * k + np.arange(n_groups * k)
    cols2t = nc + k + np.arange(n_groups * k)

    eq_rows = np.concatenate([rows1, rows2, rows2t])
    eq_cols = np.concatenate([cols1, cols2, cols2t])
    eq_data = np.concatenate([np.ones(nc), np.ones(nc), -np.ones(n_groups * k)])
    a_eq = sparse.coo_matrix((eq_data, (eq_rows, eq_cols)),
                             shape=(2 * n_groups * k, n_vars)).tocsr()
    b_eq = np.concatenate([pmfs.ravel(), np.zeros(n_groups * k)])

    if math.isinf(alpha):
        a_ub, b_ub = None, None
    else:
        # KS rows: +-(sum_{j <= L} q_a(j) - q(j)) <= alpha / 2
        tri_l, tri_j = np.tril_indices(k)
        nnz = len(tri_l)
        ub_rows, ub_cols, ub_data = [], [], []
        for a in range(n_groups):
            upper = 2 * a * k + tri_l
            lower = 2 * a * k + k + tri_l
            t_cols = nc + k + a * k + tri_j
            q_cols = nc + tri_j
            ub_rows.extend([upper, upper, lower, lower])
            ub_cols.extend([t_cols, q_cols, t_cols, q_cols])
            ub_data.extend([np.ones(nnz), -np.ones(nnz), -np.ones(nnz), np.ones(nnz)])
        a_ub = sparse.coo_matrix(
            (np.concatenate(ub_data), (np.concatenate(ub_rows), np.concatenate(ub_cols))),
            shape=(2 * n_groups * k, n_vars)).tocsr()
        b_ub = np.full(2 * n_groups * k, alpha / 2.0)

    return LpInstance(n_groups=n_groups, k=k, alpha=float(alpha), weights=weights,
                      pmfs=pmfs, midpoints=np.asarray(v, dtype=float), cost=cost,
                      a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub)


def _transport_cost(coupling: np.ndarray, v: np.ndarray) -> float:
    return float(((v[:, None] - v[None, :]) ** 2 * coupling).sum())


def _repair(lp: LpInstance, pi: np.ndarray, q: np.ndarray) -> BarycenterSolution:
    """Clip dust, rebuild targets from column sums, and replace each coupling
    by the monotone coupling with the same marginals (equal cost for an
    optimal solution; a real cost change means the solver lied)."""
    for arr, name in ((pi, "coupling"), (q, "barycenter")):
        low = arr.min()
        if low < -_NEG_DUST:
            raise SolverFailure(f"{name} mass {low} below -{_NEG_DUST}; not repairable dust")
    pi = np.clip(pi, 0.0, None)
    q = np.clip(q, 0.0, None)

    objective_before = float(
        sum(lp.weights[a] * _transport_cost(pi[a], lp.midpoints)
            for a in range(lp.n_groups)))

    couplings = np.empty_like(pi)
    targets = np.empty((lp.n_groups, lp.k))
    for a in range(lp.n_groups):
        col = pi[a].sum(axis=0)
        total = col.sum()
        row_total = lp.pmfs[a].sum()
        if total <= 0:
            raise SolverFailure(f"coupling for group {a} carries no mass")
        targets[a] = col * (row_total / total)
        couplings[a] = monotone_coupling(lp.pmfs[a], targets[a])

    objective_after = float(
        sum(lp.weights[a] * _transport_cost(couplings[a], lp.midpoints)
            for a in range(lp.n_groups)))
    if abs(objective_after - objective_before) > _REARRANGE_TOL:
        raise SolverFailure(
            "monotone rearrangement changed the objective by "
            f"{objective_after - objective_before}; solver solution was not optimal")

    return BarycenterSolution(couplings=couplings, barycenter=q, targets=targets,
                              objective=objective_after)


def solve(lp: LpInstance) -> BarycenterSolution:
    """Solve the instance to optimality and repair the solution.

    alpha = +inf short-circuits the LP entirely: identity couplings, each
    target equal to its input distribution, zero objective (the
    not-post-processed baseline).  Raises :class:`SolverFailure` when the
    backend reports anything but clean convergence.
    """
    if math.isinf(lp.alpha):
        couplings = np.zeros((lp.n_groups, lp.k, lp.k))
        for a in range(lp.n_groups):
            np.fill_diagonal(couplings[a], lp.pmfs[a])
        wtot = lp.weights.sum()
        if wtot > 0:
            center = (lp.weights[:, None] * lp.pmfs).sum(axis=0) / wtot
        else:
            center = lp.pmfs.mean(axis=0)
        return BarycenterSolution(couplings=couplings, barycenter=center,
                                  targets=lp.pmfs.copy(), objective=0.0)

    res = linprog(lp.cost, A_ub=lp.a_ub, b_ub=lp.b_ub, A_eq=lp.a_eq, b_eq=lp.b_eq,
                  bounds=(0, None), method="highs", options=_HIGHS_OPTIONS)
    if res.status != 0:
        raise SolverFailure(f"LP solve failed (status {res.status}): {res.message}")
    x = res.x
    nc = lp.n_groups * lp.k * lp.k
    pi = x[:nc].reshape(lp.n_groups, lp.k, lp.k)
    q = x[nc:nc + lp.k]
    return _repair(lp, pi, q)


def lp_text(lp: LpInstance) -> str:
    """Render the instance in CPLEX LP interchange format (12 significant
    digits) for cross-checking with external solvers."""

    def num(x: float) -> str:
        return format(float(x), ".12g")

    def var_name(i: int) -> str:
        nc = lp.n_groups * lp.k * lp.k
        if i < nc:
            a, rest = divmod(i, lp.k * lp.k)
            j, l = divmod(rest, lp.k)
            return f"pi_{a}_{j}_{l}"
        if i < nc + lp.k:
            return f"q_{i - nc}"
        a, j = divmod(i - nc - lp.k, lp.k)
        return f"qa_{a}_{j}"

    def terms(row) -> str:
        parts = []
        for i, coef in zip(row.indices, row.data):
            sign = "-" if coef < 0 else "+"
            parts.append(f"{sign} {num(abs(coef))} {var_name(i)}")
        joined = " ".join(parts)
        return joined[2:] if joined.startswith("+ ") else joined

    lines = ["\\ barycenter transport LP", "Minimize"]
    obj = " ".join(f"+ {num(c)} {var_name(i)}" for i, c in enumerate(lp.cost) if c != 0)
    lines.append(" obj: " + (obj[2:] if obj else "0 " + var_name(0)))
    lines.append("Subject To")
    for r in range(lp.a_eq.shape[0]):
        lines.append(f" eq{r}: {terms(lp.a_eq.getrow(r))} = {num(lp.b_eq[r])}")
    if lp.a_ub is not None:
        for r in range(lp.a_ub.shape[0]):
            lines.append(f" ub{r}: {terms(lp.a_ub.getrow(r))} <= {num(lp.b_ub[r])}")
    lines.append("Bounds")
    for i in range(lp.n_vars):
        lines.append(f" 0 <= {var_name(i)}")
    lines.append("End")
    return "\n".join(lines) + "\n"
