"""Relaxed Wasserstein barycenter of grid distributions, solved exactly.

The program is a linear one.  Its variables are per-group couplings pi_a
(k x k), the running sums Q(L) of the barycenter center q, and the running
sums S_a(L) of the per-group targets q_a, all nonnegative.  The objective is
the weighted squared-displacement transport cost.  Equality rows pin each
coupling's row sums to the input PMF p_a and make its column sums the steps
of S_a, sum_j pi_a(j, l) = S_a(l) - S_a(l - 1).  Each KS row is
+-(S_a(L) - Q(L)) <= alpha/2 with two nonzeros, keeping every q_a inside the
KS ball around q, and rows Q(L - 1) <= Q(L) keep the center nonnegative.
:func:`build_lp` holds that program's specification and :func:`linprog`
solves it whole with HiGHS, as the tests' reference; ``fit`` runs neither.

:func:`solve` runs no LP.  On a uniform grid with spacing d, the cost of the
monotone (quantile) coupling of p and q, which is optimal, is separable in
the target CDF S = F_q over the k - 1 gaps n between bins:

    W2^2(p, q) = d^2 sum_n psi_n(S(n)),
    psi_n(s) = sum_{m <= n} c_mn (F_p(m) - s)_+ + sum_{m >= n} c_mn (s - F_p(m))_+,

with c_mn = 2 for m != n and 1 for m = n: (l - j)^2 counts the ordered
pairs of gaps that a move from bin j to bin l crosses, and the quantile
coupling moves (F_p(m) - S(n))_+ rightwards across both gaps m <= n.  Each
psi_n is convex with its minimum 0 at F_p(n), so given Q the best target is
S_a = clip(F_{p_a}, Q - alpha/2, Q + alpha/2), which is a CDF.  What is left
is to minimize sum_n Phi_n(Q(n)) over nondecreasing Q, where

    Phi_n(x) = sum_a w_a psi_{a,n}(clip(F_{p_a}(n), x - alpha/2, x + alpha/2))

is convex and piecewise linear with breakpoints F_{p_a}(m) +- alpha/2.  The
order constraint on Q never binds.  With h = alpha/2, the right slope in x
of group a's term at gap n is -(1 + 2 #{m < n : F_a(m) > x + h}) while the
band lies below F_a(n), 0 while F_a(n) is inside it, and
1 + 2 #{m > n : F_a(m) <= x - h} while the band lies above it.  F_a is
nondecreasing, so in each case the slope at gap n + 1 is at most the slope
at gap n.  Hence Phi'_{n+1} <= Phi'_n at every x, and the lowest minimizer
of Phi_n is nondecreasing in n.  Every Q pays at least the separable lower
bound sum_n min Phi_n, and the gaps' own minimizers are a nondecreasing Q
that pays exactly that.  :func:`solve` finds each gap's lowest minimizer,
the first breakpoint after which Phi_n's slope is >= 0, by bisecting over
the sorted breakpoints for every gap at once.  Each slope is sum_a w_a d^2
times an integer count, taken at the midpoint of its interval from counts
that one ``searchsorted`` per group and side finds up front, so a solve
costs O(G k log k) and holds O(G k) numbers.  A suffix minimum over the
picks absorbs float ties between breakpoints that lie 1e-16 apart.
Zero-weight groups add nothing to Phi and get the clipped target, which is
just as optimal.  The couplings are the monotone couplings p_a -> q_a, and
the reported center is the midrange of the targets' CDFs, which is
nondecreasing and within alpha/2 of every target.

Every solution is certified before it is returned: coupling row sums equal
p_a, column sums equal the targets, every target lies within
alpha/2 + 1e-8 of the center in KS distance, the couplings cost
sum_n Phi_n at the centers, the centers are nondecreasing, and each center
costs no more than the nearest breakpoints at least 1e-9 below and above
it.  Phi_n is convex, so that local test makes each center a minimum of
Phi_n and their cost the separable lower bound sum_n min Phi_n; together
the checks prove the centers optimal against every nondecreasing Q.  They
are stated on values of Phi, evaluated in closed form at the centers and
their neighbours only, not on slopes, and the neighbours sit 1e-9 away
because breakpoints may lie 1 ulp apart, where Phi differs by float dust.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dp_estimation import PrivateEstimate
from .errors import SolverFailure

log = logging.getLogger(__name__)

# certificate tolerances on the marginals and on the KS radius
_MARGIN_TOL = 1e-9
_KS_TOL = 1e-8
# certificate tolerance on Phi values and the objective, in objective units
_PHI_TOL = 1e-12
# the certificate compares each center with the nearest breakpoints at least
# this far below and above it; breakpoints may lie 1 ulp apart, and Phi
# differs by float dust across such a pair
_NEIGHBOUR_GAP = 1e-9
# tightened HiGHS tolerances for the reference solve; the default 1e-7
# leaves marginal dust above the tests' 1e-9
_HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


@dataclass(frozen=True)
class LpInstance:
    """One instance of the program.  Its variables are the couplings
    (group-major, then row, then column), the center running sums Q, then
    the target running sums S_a (group-major); ``n_vars`` counts them all.
    ``cost`` holds the G*k*k coupling costs, since Q and S cost nothing.
    ``a_eq`` and ``a_ub`` hold only the Q and S columns; :func:`linprog`
    builds each coupling column from its indices.  The arrays are built on
    first access, because :func:`solve` reads none of them."""

    n_groups: int
    k: int
    alpha: float
    weights: np.ndarray
    pmfs: np.ndarray
    midpoints: np.ndarray

    @property
    def n_vars(self) -> int:
        return self.n_groups * self.k * self.k + self.k + self.n_groups * self.k

    @cached_property
    def cost(self) -> np.ndarray:
        v, k = self.midpoints, self.k
        sq = (v[:, None] - v[None, :]) ** 2
        return np.repeat(self.weights, k * k) * np.tile(sq.ravel(), self.n_groups)

    @cached_property
    def a_eq(self):
        """Rows 0..gk, sum_l pi_a(j, l) = p_a(j), hold coupling entries only;
        rows gk..2gk hold -S_a(l) + S_a(l - 1) of
        sum_j pi_a(j, l) - S_a(l) + S_a(l - 1) = 0.  Columns Q(0..k-1), then
        S_a(l) at k + a * k + l."""
        from scipy import sparse
        gk, steps, later, s_var = self._steps
        data = np.concatenate([-np.ones(gk), np.ones(len(later))])
        return sparse.coo_matrix((data, (gk + np.concatenate([steps, later]),
                                         np.concatenate([s_var, s_var[later] - 1]))),
                                 shape=(2 * gk, self.k + gk)).tocsr()

    @cached_property
    def b_eq(self) -> np.ndarray:
        return np.concatenate([self.pmfs.ravel(), np.zeros(self.n_groups * self.k)])

    @cached_property
    def a_ub(self):
        """KS rows +-(S_a(L) - Q(L)) <= alpha / 2, then the center rows
        Q(L - 1) - Q(L) <= 0; none at alpha = inf."""
        if math.isinf(self.alpha):
            return None
        from scipy import sparse
        k = self.k
        gk, steps, _, s_var = self._steps
        q_var = steps % k
        mono = 2 * gk + np.arange(k - 1)
        rows = np.concatenate([steps, steps, gk + steps, gk + steps, mono, mono])
        cols = np.concatenate([s_var, q_var, s_var, q_var, np.arange(k - 1), 1 + np.arange(k - 1)])
        data = np.concatenate([np.ones(gk), -np.ones(gk), -np.ones(gk), np.ones(gk),
                               np.ones(k - 1), -np.ones(k - 1)])
        return sparse.coo_matrix((data, (rows, cols)), shape=(2 * gk + k - 1, k + gk)).tocsr()

    @cached_property
    def b_ub(self) -> np.ndarray | None:
        if math.isinf(self.alpha):
            return None
        gk = self.n_groups * self.k
        return np.concatenate([np.full(2 * gk, self.alpha / 2.0), np.zeros(self.k - 1)])

    @property
    def _steps(self):
        """gk; each step (a, l) as a * k + l; the steps with an S_a(l - 1)
        term; the block column of each S_a(l)."""
        gk = self.n_groups * self.k
        steps = np.arange(gk)
        return gk, steps, steps[steps % self.k != 0], self.k + steps


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


def build_lp(est: PrivateEstimate, alpha: float) -> LpInstance:
    """The instance for a private estimate's distributions and KS radius
    alpha/2.  alpha = +inf drops the KS and center rows entirely; alpha = 0
    keeps the KS rows as paired <= 0 constraints, forcing every target equal
    to the center.  Zero-weight groups stay in the instance with zero
    objective weight.
    """
    _check_alpha(alpha)
    return LpInstance(n_groups=len(est.weights), k=est.grid.k, alpha=float(alpha),
                      weights=np.asarray(est.weights, dtype=float),
                      pmfs=np.asarray(est.pmfs, dtype=float),
                      midpoints=np.asarray(est.grid.midpoints, dtype=float))


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


def _bisect(lp: LpInstance, gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct breakpoints x, and each gap's lowest minimizer of
    Phi_n as an index into x, made nondecreasing by a suffix minimum.
    ``gaps`` holds F_{p_a}(n) at the k - 1 gaps.

    The lowest minimizer is the first breakpoint whose interval to the next
    breakpoint has a slope >= 0, or the last breakpoint.  Bisection finds it
    for every gap at once, testing each slope at its interval's midpoint c.
    With v = #{m : F_a(m) <= c - h} and u = #{m : F_a(m) <= c + h}, group
    a's term at gap n has slope w_a d^2 times the integer
    (2 (v - n) - 1)_+ - (2 (n - u) + 1)_+, so each step is one gather of
    the counts, which one ``searchsorted`` per group and side takes up front."""
    h = lp.alpha / 2.0
    x = np.unique(np.concatenate([gaps - h, gaps + h], axis=None))
    mid = (x[:-1] + x[1:]) / 2.0
    n = np.arange(lp.k - 1)
    # v and u, padded to a power of two with k - 1 (past every gap), where
    # every slope is >= 0
    bits = len(mid).bit_length()
    counts = np.full((2, len(gaps), 1 << bits), lp.k - 1)
    for side, shift in enumerate((-h, h)):
        counts[side, :, :len(mid)] = [np.searchsorted(f, mid + shift, side="right") for f in gaps]
    # 2 v - 2 n - 1 and 2 n - 2 u + 1, each a signed count plus a base
    sign = np.array([1, -1])[:, None, None]
    counts, base = 2 * sign * counts, -sign * (2 * n + 1)
    signed = sign * lp.weights[:, None]
    # pos counts the leading intervals whose slope is negative, bit by bit
    pos = np.zeros(lp.k - 1, dtype=np.intp)
    for bit in reversed(range(bits)):
        i = pos + ((1 << bit) - 1)
        slope = (signed * np.maximum(counts[:, :, i] + base, 0)).sum(axis=(0, 1))
        pos = np.where(slope < 0, i + 1, pos)
    return x, np.minimum.accumulate(pos[::-1])[::-1]


def _phi(lp: LpInstance, gaps: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Phi_n(x_n) in objective units, at points x of shape (m, k - 1) that
    pair each gap n with its own x_n.  ``gaps`` holds F_{p_a}(n).

    With P(m) = F(0) + ... + F(m - 1), below the band, where
    s = x + h < F(n), psi_n(s) sums c_mn (F(m) - s) over the gaps i..n whose
    F(m) exceeds s: 2 P(n) + F(n) + (2i - 1) s - 2 P(i) - 2 n s.  Above it,
    where s = x - h > F(n), it sums c_mn (s - F(m)) over the gaps n..j-1
    whose F(m) is below s: 2 P(n + 1) - F(n) + (2j - 1) s - 2 P(j) - 2 n s.
    Groups run along the first axis, zero weights adding zeros."""
    h = lp.alpha / 2.0
    up, down = x + h, x - h
    step = (lp.midpoints[-1] - lp.midpoints[0]) / max(lp.k - 1, 1)
    scale = (lp.weights * step ** 2)[:, None]
    pre = 2.0 * scale * np.concatenate([np.zeros_like(scale), np.cumsum(gaps, axis=1)], axis=1)
    slope = (2.0 * scale * np.arange(lp.k - 1))[:, None]
    i = np.array([np.searchsorted(f, up, side="right") for f in gaps])
    j = np.array([np.searchsorted(f, down, side="left") for f in gaps])
    group = np.arange(len(gaps))[:, None, None]
    f, scale = gaps[:, None], scale[:, None]
    below = ((pre[:, None, :-1] + scale * f) + (scale * (2 * i - 1) * up - pre[group, i])
             - slope * up)
    above = ((pre[:, None, 1:] - scale * f) + (scale * (2 * j - 1) * down - pre[group, j])
             - slope * down)
    return np.where(f > up, below, np.where(f < down, above, 0.0)).sum(axis=0)


def _certify(lp: LpInstance, sol: BarycenterSolution, gaps: np.ndarray, x: np.ndarray,
             picks: np.ndarray) -> None:
    """Raise SolverFailure unless the solution is feasible for the program,
    its couplings cost what the centers x[picks] do, and those centers are
    nondecreasing and each no costlier than the nearest breakpoints at
    least ``_NEIGHBOUR_GAP`` below and above it (the end breakpoint where
    there is none), which makes each a minimum of its convex Phi_n and their
    cost the separable lower bound."""
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
    if len(picks):
        center = x[picks]
        lower = np.searchsorted(x, center - _NEIGHBOUR_GAP, side="right") - 1
        upper = np.searchsorted(x, center + _NEIGHBOUR_GAP, side="left")
        phi = _phi(lp, gaps, np.stack([center, x[np.maximum(lower, 0)],
                                       x[np.minimum(upper, len(x) - 1)]]))
        cost = phi[0].sum()
        if abs(cost - sol.objective) > _PHI_TOL:
            faults.append(f"the couplings cost {sol.objective}, the centers {cost}")
        drops = np.flatnonzero(np.diff(picks) < 0)
        if len(drops):
            faults.append(f"the center decreases at gap {drops[0] + 1}")
        # any cheaper point bounds a gap's miss from below
        excess = np.maximum(phi[0] - phi[1:].min(axis=0), 0.0).sum()
        if excess > _PHI_TOL:
            faults.append(f"the centers miss the lower bound sum_n min Phi_n by at least {excess}")
    if faults:
        raise SolverFailure("solution fails its certificate: " + "; ".join(faults))


def linprog(lp: LpInstance) -> BarycenterSolution:
    """Solve the full program of ``lp``, all G*k*k coupling columns
    included, in one call of scipy's HiGHS: the reference the tests hold
    :func:`solve` to.  Coupling column (a, j, l) costs
    ``lp.cost[(a * k + j) * k + l]`` and has a +1 in row sum a*k + j and in
    column sum a*k + l; the Q and S columns follow, as ``lp.a_eq`` and
    ``lp.a_ub`` hold them.  Raises :class:`SolverFailure` unless HiGHS
    reports an optimum."""
    from scipy import sparse
    from scipy.optimize import linprog as scipy_linprog
    n_groups, k = lp.n_groups, lp.k
    gk, nc = n_groups * k, n_groups * k * k
    cols = np.arange(nc)
    rows = np.concatenate([cols // k, gk + cols // (k * k) * k + cols % k])
    coupling = sparse.csr_matrix((np.ones(2 * nc), (rows, np.concatenate([cols, cols]))),
                                 shape=(2 * gk, nc))
    a_ub = lp.a_ub
    if a_ub is not None:
        a_ub = sparse.hstack([sparse.csr_matrix((a_ub.shape[0], nc)), a_ub], format="csr")
    res = scipy_linprog(np.concatenate([lp.cost, np.zeros(k + gk)]), A_ub=a_ub, b_ub=lp.b_ub,
                        A_eq=sparse.hstack([coupling, lp.a_eq], format="csr"), b_eq=lp.b_eq,
                        bounds=(0, None), method="highs", options=_HIGHS_OPTIONS)
    if res.status != 0:
        raise SolverFailure(f"full LP failed (status {res.status}): {res.message}")
    return BarycenterSolution(couplings=res.x[:nc].reshape(n_groups, k, k),
                              barycenter=np.diff(res.x[nc:nc + k], prepend=0.0),
                              targets=np.diff(res.x[nc + k:].reshape(n_groups, k), axis=1,
                                              prepend=0.0),
                              objective=float(res.fun))


def _midrange(running: np.ndarray) -> np.ndarray:
    """The stored center: the midrange of the CDFs in ``running``, differenced."""
    return np.diff((running.max(axis=0) + running.min(axis=0)) / 2.0, prepend=0.0)


def solve(lp: LpInstance) -> BarycenterSolution:
    """Solve the instance exactly by the separable reduction, then certify
    the solution.

    alpha = +inf short-circuits entirely: identity couplings, each target
    equal to its input distribution, zero objective (the not-post-processed
    baseline), and the midrange center that every alpha stores.  Raises
    :class:`SolverFailure` when the solution fails its certificate.
    """
    if math.isinf(lp.alpha):
        return BarycenterSolution(couplings=lp.pmfs[:, :, None] * np.eye(lp.k),
                                  barycenter=_midrange(np.cumsum(lp.pmfs, axis=1)),
                                  targets=lp.pmfs.copy(), objective=0.0)

    h = lp.alpha / 2.0
    cdfs = np.cumsum(lp.pmfs, axis=1)
    gaps = cdfs[:, :-1]
    x, picks = _bisect(lp, gaps)
    center = x[picks]
    clipped = np.clip(gaps, center - h, center + h)
    # the last running sum is each group's total; clamp the others' float dust to it
    inner = np.minimum(clipped, cdfs[:, -1:])
    running = np.concatenate([inner, cdfs[:, -1:]], axis=1)
    targets = np.diff(running, axis=1, prepend=0.0)
    couplings = monotone_coupling(lp.pmfs, targets)
    sq = (lp.midpoints[:, None] - lp.midpoints[None, :]) ** 2
    sol = BarycenterSolution(
        couplings=couplings, barycenter=_midrange(running), targets=targets,
        objective=float((lp.weights * (sq * couplings).sum(axis=(1, 2))).sum()))
    log.debug("barycenter k=%d alpha=%g: the band clips %d of %d running sums over "
              "%d breakpoints", lp.k, lp.alpha, np.count_nonzero(clipped != gaps),
              clipped.size, len(x))
    _certify(lp, sol, gaps, x, picks)
    return sol
