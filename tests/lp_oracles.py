"""Independent LP oracles shared by the LP tests.

``ks_distance`` is the Kolmogorov-Smirnov distance of two mass vectors.
``w2sq_monotone`` is the exact squared-W2 cost of the monotone coupling,
which is optimal in 1-D with squared cost.  ``monotone_coupling_loop`` is
the scalar two-pointer construction of the quantile coupling, the
reference for the closed form in
:func:`fairpost.barycenter_lp.monotone_coupling`.
``fixed_target_cost`` solves the plain transport LP with both marginals
pinned, which bridges the barycenter LP to the monotone-coupling oracle.
``full_lp_objective`` solves the full barycenter program, every coupling
column included, in one HiGHS call: the reference for column generation in
``barycenter_lp.solve``.  They live with the tests because nothing in the
package needs them.
"""

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from fairpost.barycenter_lp import _HIGHS_OPTIONS, monotone_coupling
from fairpost.errors import SolverFailure
from fairpost.grid import Grid


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


def full_lp_objective(lp) -> float:
    """Optimal objective of the full program that ``build_lp`` assembled."""
    res = linprog(lp.cost, A_ub=lp.a_ub, b_ub=lp.b_ub, A_eq=lp.a_eq, b_eq=lp.b_eq,
                  bounds=(0, None), method="highs", options=_HIGHS_OPTIONS)
    if res.status != 0:
        raise SolverFailure(f"full LP failed (status {res.status}): {res.message}")
    return float(res.fun)


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
