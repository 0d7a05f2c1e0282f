"""Independent LP oracles shared by the LP tests.

``ks_distance`` is the Kolmogorov-Smirnov distance of two mass vectors.
``w2sq_monotone`` is the exact squared-W2 cost of the monotone coupling,
which is optimal in 1-D with squared cost.  ``monotone_coupling_loop`` is
the scalar two-pointer construction of the quantile coupling, the
reference for the closed form in
:func:`fairpost.barycenter_lp.monotone_coupling`.
``fixed_target_cost`` solves the plain transport LP with both marginals
pinned, which bridges the barycenter LP to the monotone-coupling oracle.
``full_program`` assembles the full barycenter program, every coupling
column included, written independently of ``barycenter_lp``: the
specification that ``build_lp``'s Q and S columns and the program
``barycenter_lp.linprog`` solves are held to.  ``phi_table`` tabulates
every Phi_n of the separable reduction at every breakpoint, and
``table_centers`` reads each gap's cheapest breakpoint off it: the
reference for ``barycenter_lp``'s bisection.  ``dists_from_pmfs`` wraps
given PMFs and weights in the step-1 record the LP and kernel tests build
instances from.  They live with the tests because nothing in the package
needs them.
"""

import math
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from fairpost.barycenter_lp import _HIGHS_OPTIONS, monotone_coupling
from fairpost.data_io import AffineTransform
from fairpost.dp_estimation import PrivateEstimate
from fairpost.errors import SolverFailure
from fairpost.grid import Grid, make_grid


def dists_from_pmfs(pmfs, weights=None) -> PrivateEstimate:
    """A noiseless estimate of these PMFs on the k-bin grid of [0, 1], with
    the given group weights (equal ones by default)."""
    pmfs = np.asarray(pmfs, dtype=float)
    if weights is None:
        weights = np.full(len(pmfs), 1.0 / len(pmfs))
    return PrivateEstimate(grid=make_grid(0, 1, pmfs.shape[1]), transform=AffineTransform(),
                           groups=tuple(f"g{a}" for a in range(len(pmfs))),
                           weights=np.asarray(weights, dtype=float), pmfs=pmfs,
                           epsilon=math.inf)


def ks_distance(p, q) -> float:
    """Kolmogorov-Smirnov distance: max absolute CDF difference on the grid.
    Negative float dust is clipped to zero first."""
    p = np.clip(np.asarray(p, dtype=float), 0.0, None)
    q = np.clip(np.asarray(q, dtype=float), 0.0, None)
    return float(np.abs(np.cumsum(p - q)).max())


def w2sq_monotone(p, q, grid: Grid) -> tuple[float, np.ndarray]:
    """Exact squared-W2 transport cost between grid distributions, with the
    optimal coupling.  Both sides are renormalized to carry exactly the
    same total mass; negative float dust is clipped to zero first."""
    p = np.clip(np.asarray(p, dtype=float), 0.0, None)
    q = np.clip(np.asarray(q, dtype=float), 0.0, None)
    coupling = monotone_coupling(p / p.sum(), q / q.sum())
    v = grid.midpoints
    return float(((v[:, None] - v[None, :]) ** 2 * coupling).sum()), coupling


def fixed_target_cost(p, q, grid: Grid) -> float:
    """Minimum squared-displacement transport cost from p to q, solved as a
    plain coupling LP with both marginals pinned."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    k = grid.k
    if len(p) != k or len(q) != k:
        raise ValueError("distributions must live on the grid")
    v = grid.midpoints
    cost = ((v[:, None] - v[None, :]) ** 2).ravel()
    rows = np.concatenate([np.repeat(np.arange(k), k),
                           k + np.repeat(np.arange(k), k)])
    cols = np.concatenate([np.arange(k * k),
                           np.arange(k * k).reshape(k, k).T.ravel()])
    a_eq = sparse.coo_matrix((np.ones(2 * k * k), (rows, cols)),
                             shape=(2 * k, k * k)).tocsr()
    b_eq = np.concatenate([p, q])
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                  options=_HIGHS_OPTIONS)
    if res.status != 0:
        raise SolverFailure(f"transport LP failed (status {res.status}): {res.message}")
    return float(res.fun)


class FullProgram(NamedTuple):
    cost: np.ndarray
    a_eq: sparse.csr_matrix
    b_eq: np.ndarray
    a_ub: sparse.csr_matrix | None
    b_ub: np.ndarray | None


def full_program(lp) -> FullProgram:
    """The full program of the instance ``lp`` (``build_lp``'s output), all
    G*k*k coupling columns included.  Variable layout: couplings first
    (group-major, then row, then column), the center running sums Q, then
    the target running sums S_a (group-major).  Equality rows pin each
    coupling's row sums to p_a and make its column sums the steps of S_a; the
    inequality rows are the paired KS rows +-(S_a(L) - Q(L)) <= alpha/2, then
    the center rows Q(L - 1) <= Q(L), none of them at alpha = inf."""
    n_groups, k = lp.n_groups, lp.k
    v = lp.midpoints

    gk = n_groups * k
    nc = gk * k                     # coupling variables
    n_vars = nc + k + gk

    sq = (v[:, None] - v[None, :]) ** 2
    cost = np.zeros(n_vars)
    cost[:nc] = np.repeat(lp.weights, k * k) * np.tile(sq.ravel(), n_groups)

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
    b_eq = np.concatenate([lp.pmfs.ravel(), np.zeros(gk)])

    if math.isinf(lp.alpha):
        return FullProgram(cost, a_eq, b_eq, None, None)
    q_var = nc + steps % k
    mono = 2 * gk + np.arange(k - 1)
    ub_rows = np.concatenate([steps, steps, gk + steps, gk + steps, mono, mono])
    ub_cols = np.concatenate([s_var, q_var, s_var, q_var,
                              nc + np.arange(k - 1), nc + 1 + np.arange(k - 1)])
    ub_data = np.concatenate([np.ones(gk), -np.ones(gk), -np.ones(gk), np.ones(gk),
                              np.ones(k - 1), -np.ones(k - 1)])
    a_ub = sparse.coo_matrix((ub_data, (ub_rows, ub_cols)),
                             shape=(2 * gk + k - 1, n_vars)).tocsr()
    b_ub = np.concatenate([np.full(2 * gk, lp.alpha / 2.0), np.zeros(k - 1)])
    return FullProgram(cost, a_eq, b_eq, a_ub, b_ub)


def monotone_coupling_loop(p, q) -> np.ndarray:
    """Northwest-corner (quantile) coupling of two mass vectors on sorted
    support, one pointer per side.  Exact-tie mass splits advance both
    pointers, and a remainder of at most 1e-15 is dropped as dust."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    k = len(p)
    out = np.zeros((k, len(q)))
    i = j = 0
    prem = p[0] if k else 0.0
    qrem = q[0] if len(q) else 0.0
    while i < k and j < len(q):
        m = min(prem, qrem)
        if m > 0.0:
            out[i, j] += m
            prem -= m
            qrem -= m
        if prem <= 1e-15:
            i += 1
            if i < k:
                prem = p[i]
        if qrem <= 1e-15:
            j += 1
            if j < len(q):
                qrem = q[j]
    return out


def phi_table(lp, gaps) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct breakpoints x, and Phi_n(x_b) in objective units
    as a (k - 1, len(x)) table.  ``gaps`` holds F_{p_a}(n) at the k - 1 gaps.

    With P(m) = F(0) + ... + F(m - 1), below the band, where
    s = x + h < F(n), psi_n(s) sums c_mn (F(m) - s) over the gaps i..n whose
    F(m) exceeds s: 2 P(n) + F(n) + (2i - 1) s - 2 P(i) - 2 n s.  Above it,
    where s = x - h > F(n), it sums c_mn (s - F(m)) over the gaps n..j-1
    whose F(m) is below s: 2 P(n + 1) - F(n) + (2j - 1) s - 2 P(j) - 2 n s.
    The tests hold the bisection and the certificate's Phi values to it."""
    h = lp.alpha / 2.0
    x = np.unique(np.concatenate([gaps - h, gaps + h], axis=None))
    up, down = x + h, x - h
    step = (lp.midpoints[-1] - lp.midpoints[0]) / max(lp.k - 1, 1)
    table = np.zeros((lp.k - 1, len(x)))
    for w, f in zip(lp.weights, gaps):
        if w == 0:
            continue
        scale = w * step ** 2
        pre = 2.0 * scale * np.concatenate([[0.0], np.cumsum(f)])
        slope = 2.0 * scale * np.arange(lp.k - 1)
        i = np.searchsorted(f, up, side="right")
        below = ((pre[:-1] + scale * f)[:, None] + (scale * (2 * i - 1) * up - pre[i])
                 - np.outer(slope, up))
        j = np.searchsorted(f, down, side="left")
        above = ((pre[1:] - scale * f)[:, None] + (scale * (2 * j - 1) * down - pre[j])
                 - np.outer(slope, down))
        table += np.where(f[:, None] > up, below, np.where(f[:, None] < down, above, 0.0))
    return x, table


def table_centers(table: np.ndarray) -> np.ndarray:
    """Each gap's column in ``table``: the lowest-cost breakpoint of its
    row, made nondecreasing by a suffix minimum."""
    if not len(table):  # k = 1 has no gaps
        return np.zeros(0, dtype=np.intp)
    return np.minimum.accumulate(table.argmin(axis=1)[::-1])[::-1]
