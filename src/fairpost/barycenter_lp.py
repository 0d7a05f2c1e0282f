"""Relaxed Wasserstein-barycenter linear program over grid distributions.

Variables are per-group couplings pi_a (k x k), the running sums Q(L) of
the barycenter center q, and the running sums S_a(L) of the per-group
targets q_a, all nonnegative.  The objective is the weighted
squared-displacement transport cost.  Equality rows pin each coupling's row
sums to the input PMF p_a and make its column sums the steps of S_a,
sum_j pi_a(j, l) = S_a(l) - S_a(l - 1); the targets are the coupling column
sums and have no variables of their own.  Each KS row is
+-(S_a(L) - Q(L)) <= alpha/2 with two nonzeros, keeping every q_a inside the
KS ball around q, and rows Q(L - 1) <= Q(L) keep the center nonnegative.

:func:`solve` does not hand HiGHS all G*k*k coupling columns.  Every optimal
coupling is monotone, so the optimum lies on O(G*k) of them.  The restricted
master starts from the columns (a, j, l) whose quantile intervals under p_a
and under the quantile-average barycenter b overlap within alpha/2; that band
holds the monotone coupling p_a -> b, so q_a = q = b is feasible.  After each
solve the equality duals price every coupling column in one pass,
w_a (v_j - v_l)^2 - y_row[a, j] - y_col[a, l]; the omitted columns pricing
below -tol join the master, which is solved again.  When none is left the
restricted optimum is optimal for the full program (Dantzig-Wolfe /
Gilmore-Gomory pricing).  A master that comes back infeasible is a solver
failure.  One HiGHS object holds the master for the whole solve: the seed
master is passed once and solved with dual simplex, each round's entering
columns are appended to it, and primal simplex re-solves from the basis
HiGHS already has, which the new columns leave primal feasible.  A master
column is built from its indices: coupling column (a, j, l) costs
w_a (v_j - v_l)^2 and has one +1 in row sum a*k + j and one in column sum
a*k + l; only the O(G*k) Q and S columns are read from the full program.

Solutions are repaired before they are returned: negative float dust is
clipped, targets are recomputed from the coupling column sums, and every
coupling is replaced by the monotone coupling with the same marginals, which
must not change the cost.  The repaired solution is then certified: coupling
row sums equal p_a, column sums equal the targets, every target lies within
alpha/2 + 1e-8 of the center in KS distance, and no coupling column prices
below -tol under the final duals.  The monotone couplings and the seed's
barycenter are read off one construction: the pieces of [0, 1] between the
union of the CDFs' breakpoints, each in the bins of its left end.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.optimize._highspy._core import (HighsLp, HighsModelStatus, HighsStatus, MatrixFormat,
                                           _Highs)

from .dp_estimation import PrivateGroupDists
from .errors import SolverFailure
from .grid import Grid

log = logging.getLogger(__name__)

# dust below this magnitude is clipped; anything more negative is a solver failure
_NEG_DUST = 1e-9
# tolerated cost change under monotone rearrangement of an optimal coupling
_REARRANGE_TOL = 1e-9
# a coupling column pricing below -_PRICE_TOL enters the master; with at most
# unit mass per group this bounds the objective gap by n_groups * _PRICE_TOL
_PRICE_TOL = 1e-10
# certificate tolerances on the repaired marginals and on the KS radius
_MARGIN_TOL = 1e-9
_KS_TOL = 1e-8
# tightened HiGHS tolerances; the default 1e-7 leaves too much marginal dust
# for the rearrangement check
_HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}
# the rest of the settings scipy's linprog(method="highs") makes, so that a
# solve needing one run matches it bit for bit; strategy 1 is dual simplex
_HIGHS_RUN_OPTIONS = {**_HIGHS_OPTIONS, "presolve": "on", "simplex_strategy": 1,
                      "output_flag": False, "log_to_console": False}
# entering columns leave the optimal basis primal feasible but not dual
# feasible, so later rounds re-solve from it with primal simplex (strategy 4)
_WARM_STRATEGY = 4


@dataclass(frozen=True)
class LpInstance:
    """The full program, all G*k*k coupling columns included.  Variable
    layout: couplings first (group-major, then row, then column), the center
    running sums Q, then the target running sums S_a (group-major)."""

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


@dataclass(frozen=True)
class BarycenterSolution:
    couplings: np.ndarray   # (n_groups, k, k)
    barycenter: np.ndarray  # (k,)
    targets: np.ndarray     # (n_groups, k)
    objective: float


def _check_alpha(alpha: float) -> None:
    """The KS radius check of :func:`build_lp`; the sweep config runs it too."""
    if not alpha >= 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")


def build_lp(dists: PrivateGroupDists, grid: Grid, alpha: float) -> LpInstance:
    """Assemble the LP for the given private distributions and KS radius
    alpha/2.  alpha = +inf drops the KS and center rows entirely; alpha = 0
    keeps the KS rows as paired <= 0 constraints, forcing every target equal
    to the center.  Zero-weight groups stay in the instance with zero
    objective weight.
    """
    _check_alpha(alpha)
    n_groups, k = dists.n_groups, dists.k
    if k != grid.k:
        raise ValueError(f"distributions have k={k}, grid has k={grid.k}")
    v = grid.midpoints
    weights = np.asarray(dists.weights, dtype=float)
    pmfs = np.asarray(dists.pmfs, dtype=float)

    gk = n_groups * k
    nc = gk * k                     # coupling variables
    n_vars = nc + k + gk

    sq = (v[:, None] - v[None, :]) ** 2
    cost = np.zeros(n_vars)
    cost[:nc] = np.repeat(weights, k * k) * np.tile(sq.ravel(), n_groups)

    cvars = np.arange(nc)
    steps = np.arange(gk)           # (a, l) as a * k + l
    later = steps[steps % k != 0]   # the steps with an S_a(l - 1) term
    s_var = nc + k + steps
    # rows 0..gk: sum_l pi_a(j, l) = p_a(j)
    # rows gk..2gk: sum_j pi_a(j, l) - S_a(l) + S_a(l - 1) = 0
    eq_rows = np.concatenate([cvars // k, gk + (cvars // (k * k)) * k + cvars % k,
                              gk + steps, gk + later])
    eq_cols = np.concatenate([cvars, cvars, s_var, s_var[later] - 1])
    eq_data = np.concatenate([np.ones(2 * nc), -np.ones(gk), np.ones(len(later))])
    a_eq = sparse.coo_matrix((eq_data, (eq_rows, eq_cols)), shape=(2 * gk, n_vars)).tocsr()
    b_eq = np.concatenate([pmfs.ravel(), np.zeros(gk)])

    if math.isinf(alpha):
        a_ub, b_ub = None, None
    else:
        # KS rows: +-(S_a(L) - Q(L)) <= alpha / 2; center rows: Q(L - 1) - Q(L) <= 0
        q_var = nc + steps % k
        mono = 2 * gk + np.arange(k - 1)
        ub_rows = np.concatenate([steps, steps, gk + steps, gk + steps, mono, mono])
        ub_cols = np.concatenate([s_var, q_var, s_var, q_var,
                                  nc + np.arange(k - 1), nc + 1 + np.arange(k - 1)])
        ub_data = np.concatenate([np.ones(gk), -np.ones(gk), -np.ones(gk), np.ones(gk),
                                  np.ones(k - 1), -np.ones(k - 1)])
        a_ub = sparse.coo_matrix((ub_data, (ub_rows, ub_cols)),
                                 shape=(2 * gk + k - 1, n_vars)).tocsr()
        b_ub = np.concatenate([np.full(2 * gk, alpha / 2.0), np.zeros(k - 1)])

    return LpInstance(n_groups=n_groups, k=k, alpha=float(alpha), weights=weights,
                      pmfs=pmfs, midpoints=np.asarray(v, dtype=float), cost=cost,
                      a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub)


def _quantile_pieces(cdfs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cut [0, 1] at the union of the breakpoints of CDFs of shape (..., m, k).
    Returns each piece's width, (..., m*k), and its bin under each CDF,
    (..., m, m*k): the count of CDF entries <= the piece's left end, clamped
    to k - 1.  No breakpoint lies inside a piece, so this is exact however
    narrow the piece.  A repeated breakpoint leaves a piece of width 0."""
    k = cdfs.shape[-1]
    flat = cdfs.reshape(cdfs.shape[:-2] + (-1,))
    edges = np.sort(np.concatenate([np.zeros(flat.shape[:-1] + (1,)), flat], axis=-1), axis=-1)
    bins = (cdfs[..., :, None, :] <= edges[..., None, :-1, None]).sum(axis=-1)
    return np.diff(edges, axis=-1), np.minimum(bins, k - 1)


def monotone_coupling(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Quantile (northwest-corner) coupling of mass vectors of shape (..., k)
    on a sorted support, batched over leading axes into (..., k, k).  Each
    piece between the two CDFs' breakpoints puts its width on (bin under p,
    bin under q).  A piece of width <= 1e-15 is float dust and is dropped
    when its bin under p also has a wider piece, so dust never empties a
    bin.  Inputs must share the same total mass up to float dust."""
    cdfs = np.cumsum(np.stack([p, q], axis=-2), axis=-1, dtype=float)
    k = cdfs.shape[-1]
    widths, bins = _quantile_pieces(cdfs)
    lead = widths.shape[:-1]
    # one bincount over every batch: batch b owns the flat rows b*k .. (b+1)*k - 1
    # and the flat cells b*k*k .. (b+1)*k*k - 1
    batch = np.arange(math.prod(lead)).reshape(lead + (1,))
    rows = batch * k + bins[..., 0, :]
    wide = widths > 1e-15
    keep = wide | (np.bincount(rows.ravel(), weights=wide.ravel(), minlength=batch.size * k)
                   == 0)[rows]
    out = np.bincount((rows * k + bins[..., 1, :]).ravel(),
                      weights=np.where(keep, widths, 0.0).ravel(), minlength=batch.size * k * k)
    return out.reshape(lead + (k, k))


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

    sq = (lp.midpoints[:, None] - lp.midpoints[None, :]) ** 2
    objective_before = float((lp.weights * (sq * pi).sum(axis=(1, 2))).sum())

    cols = pi.sum(axis=1)
    totals = cols.sum(axis=1)
    if not (totals > 0).all():
        raise SolverFailure(f"coupling for group {np.argmin(totals > 0)} carries no mass")
    targets = cols * (lp.pmfs.sum(axis=1) / totals)[:, None]
    couplings = monotone_coupling(lp.pmfs, targets)

    objective_after = float((lp.weights * (sq * couplings).sum(axis=(1, 2))).sum())
    if abs(objective_after - objective_before) > _REARRANGE_TOL:
        raise SolverFailure(
            "monotone rearrangement changed the objective by "
            f"{objective_after - objective_before}; solver solution was not optimal")

    return BarycenterSolution(couplings=couplings, barycenter=q, targets=targets,
                              objective=objective_after)


def _seed_mask(lp: LpInstance) -> np.ndarray:
    """Coupling columns (a, j, l) whose quantile intervals under p_a and under
    the quantile-average barycenter b overlap within alpha/2.

    b is the alpha = 0 barycenter (Agueh & Carlier 2011) rounded to the grid:
    on each piece of [0, 1] between the groups' CDF breakpoints it puts the
    piece's mass on the weighted mean of the groups' quantile bins."""
    cdfs = np.cumsum(lp.pmfs, axis=1)
    wtot = lp.weights.sum()
    w = lp.weights / wtot if wtot > 0 else np.full(lp.n_groups, 1.0 / lp.n_groups)
    widths, bins = _quantile_pieces(cdfs)
    center = np.rint(w @ bins).astype(np.intp)
    b_cdf = np.cumsum(np.bincount(center, weights=widths, minlength=lp.k))

    half = lp.alpha / 2.0
    lo = np.concatenate([np.zeros((lp.n_groups, 1)), cdfs[:, :-1]], axis=1) - half
    hi = cdfs + half
    b_lo = np.concatenate([[0.0], b_cdf[:-1]])
    return (lo[:, :, None] <= b_cdf) & (b_lo <= hi[:, :, None])


def _certify(lp: LpInstance, sol: BarycenterSolution, worst_price: float) -> None:
    """Raise SolverFailure unless the repaired solution is feasible for the
    full program and the final duals price no coupling column below -tol."""
    faults = []
    row_err = np.abs(sol.couplings.sum(axis=2) - lp.pmfs).max()
    if row_err > _MARGIN_TOL:
        faults.append(f"coupling row sums miss the input pmfs by {row_err}")
    col_err = np.abs(sol.couplings.sum(axis=1) - sol.targets).max()
    if col_err > _MARGIN_TOL:
        faults.append(f"coupling column sums miss the targets by {col_err}")
    ks = np.abs(np.cumsum(sol.targets - sol.barycenter, axis=1)).max()
    if ks > lp.alpha / 2 + _KS_TOL:
        faults.append(f"KS(target, barycenter) {ks} exceeds alpha/2 = {lp.alpha / 2}")
    if worst_price < -_PRICE_TOL:
        faults.append(f"a coupling column prices at {worst_price}, below -{_PRICE_TOL}")
    if faults:
        raise SolverFailure("solution fails its certificate: " + "; ".join(faults))


@dataclass(frozen=True)
class HighsRun:
    """One HiGHS run on the master: the model status and its message, then,
    for an optimal master only, the primal values of the master columns, the
    duals of the equality rows and the simplex iterations of this run."""

    status: HighsModelStatus
    message: str
    x: np.ndarray | None
    duals: np.ndarray | None
    nit: int


def linprog(highs: _Highs, n_ub: int) -> HighsRun:
    """Run HiGHS once on the master ``highs`` holds, from the basis it has.
    The master's first ``n_ub`` rows are the inequality rows.

    The name is the hook through which benchmark tracing and tests wrap
    "solve one master"; it stays until the benchmark names a lasting one."""
    highs.run()
    status = highs.getModelStatus()
    message = highs.modelStatusToString(status)
    nit = highs.getInfo().simplex_iteration_count
    if status != HighsModelStatus.kOptimal:
        return HighsRun(status, message, None, None, nit)
    sol = highs.getSolution()
    return HighsRun(status, message, np.array(sol.col_value),
                    np.array(sol.row_dual)[n_ub:], nit)


def _coupling_columns(lp: LpInstance, cols: np.ndarray, n_ub: int):
    """Costs and CSC starts, rows and values of the master columns of the
    coupling variables ``cols``: (a, j, l) has a +1 in row sum a*k + j and in
    column sum a*k + l, after the ``n_ub`` inequality rows."""
    k = lp.k
    rows = np.empty((len(cols), 2), dtype=np.int32)
    rows[:, 0] = n_ub + cols // k
    rows[:, 1] = n_ub + lp.n_groups * k + cols // (k * k) * k + cols % k
    starts = np.arange(0, 2 * len(cols) + 1, 2, dtype=np.int32)
    return lp.cost[cols], starts, rows.ravel(), np.ones(2 * len(cols))


def _seed_master(lp: LpInstance, cols: np.ndarray) -> HighsLp:
    """The master over coupling columns ``cols`` and every Q and S column:
    the a_ub rows, then the a_eq rows, as linprog orders them."""
    nc = lp.n_groups * lp.k * lp.k
    n_ub = lp.a_ub.shape[0]
    cost, starts, rows, values = _coupling_columns(lp, cols, n_ub)
    rest = sparse.vstack([lp.a_ub[:, nc:], lp.a_eq[:, nc:]]).tocsc()
    master = HighsLp()
    master.num_col_ = master.a_matrix_.num_col_ = len(cols) + rest.shape[1]
    master.num_row_ = master.a_matrix_.num_row_ = rest.shape[0]
    master.a_matrix_.format_ = MatrixFormat.kColwise
    master.col_cost_ = np.concatenate([cost, lp.cost[nc:]])
    master.col_lower_ = np.zeros(master.num_col_)
    master.col_upper_ = np.full(master.num_col_, np.inf)
    master.row_lower_ = np.concatenate([np.full(n_ub, -np.inf), lp.b_eq])
    master.row_upper_ = np.concatenate([lp.b_ub, lp.b_eq])
    master.a_matrix_.start_ = np.concatenate([starts, starts[-1] + rest.indptr[1:]])
    master.a_matrix_.index_ = np.concatenate([rows, rest.indices])
    master.a_matrix_.value_ = np.concatenate([values, rest.data])
    return master


def _accepted(status: HighsStatus, what: str) -> None:
    if status == HighsStatus.kError:
        raise SolverFailure(f"HiGHS rejected {what}")


def solve(lp: LpInstance) -> BarycenterSolution:
    """Solve the instance to optimality by column generation, then repair and
    certify the solution.

    alpha = +inf short-circuits the LP entirely: identity couplings, each
    target equal to its input distribution, zero objective (the
    not-post-processed baseline).  Raises :class:`SolverFailure` when HiGHS
    reports anything but an optimal master (an infeasible one included), or
    when the solution fails its certificate.
    """
    if math.isinf(lp.alpha):
        couplings = lp.pmfs[:, :, None] * np.eye(lp.k)
        center = np.average(lp.pmfs, axis=0,
                            weights=lp.weights if lp.weights.sum() > 0 else None)
        return BarycenterSolution(couplings=couplings, barycenter=center,
                                  targets=lp.pmfs.copy(), objective=0.0)

    gk = lp.n_groups * lp.k
    nc = gk * lp.k
    n_ub = lp.a_ub.shape[0]
    price = lp.cost[:nc].reshape(lp.n_groups, lp.k, lp.k)
    mask = _seed_mask(lp)
    seed = np.flatnonzero(mask)
    highs = _Highs()
    for name, value in _HIGHS_RUN_OPTIONS.items():
        _accepted(highs.setOptionValue(name, value), f"option {name}={value!r}")
    _accepted(highs.passModel(_seed_master(lp, seed)), "the seed master")
    # the variable index of each master column, in HiGHS's column order
    var = np.concatenate([seed, np.arange(nc, lp.n_vars)])
    runs = iterations = 0
    while True:
        res = linprog(highs, n_ub)
        runs += 1
        iterations += res.nit
        if res.status != HighsModelStatus.kOptimal:
            raise SolverFailure(
                f"LP solve failed (HiGHS model status {int(res.status)}: {res.message})")
        reduced = (price - res.duals[:gk].reshape(lp.n_groups, lp.k, 1)
                   - res.duals[gk:].reshape(lp.n_groups, 1, lp.k))
        entering = (reduced < -_PRICE_TOL) & ~mask
        if not entering.any():
            break
        mask |= entering
        _accepted(highs.setOptionValue("simplex_strategy", _WARM_STRATEGY),
                  f"option simplex_strategy={_WARM_STRATEGY}")
        new = np.flatnonzero(entering)
        cost, starts, rows, values = _coupling_columns(lp, new, n_ub)
        _accepted(highs.addCols(len(new), cost, np.zeros(len(new)), np.full(len(new), np.inf),
                                len(values), starts[:-1], rows, values), "the entering columns")
        var = np.concatenate([var, new])
    log.debug("barycenter LP k=%d alpha=%g: %d master columns, %d HiGHS runs, "
              "%d simplex iterations", lp.k, lp.alpha, len(var), runs, iterations)

    x = np.zeros(lp.n_vars)
    x[var] = res.x
    pi = x[:nc].reshape(lp.n_groups, lp.k, lp.k)
    q = np.diff(x[nc:nc + lp.k], prepend=0.0)
    sol = _repair(lp, pi, q)
    _certify(lp, sol, float(reduced.min()))
    return sol


def lp_text(lp: LpInstance) -> str:
    """Render the full instance in CPLEX LP interchange format (12
    significant digits) for cross-checking with external solvers."""

    def num(x: float) -> str:
        return format(float(x), ".12g")

    def var_name(i: int) -> str:
        nc = lp.n_groups * lp.k * lp.k
        if i < nc:
            a, rest = divmod(i, lp.k * lp.k)
            j, l = divmod(rest, lp.k)
            return f"pi_{a}_{j}_{l}"
        if i < nc + lp.k:
            return f"Q_{i - nc}"
        a, j = divmod(i - nc - lp.k, lp.k)
        return f"S_{a}_{j}"

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
