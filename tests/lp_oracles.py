"""Independent LP oracles shared by the LP tests.

``fixed_target_cost`` solves the plain transport LP with both marginals
pinned, which bridges the barycenter LP to the monotone-coupling oracle in
:mod:`fairpost.metrics`.  ``full_lp_objective`` solves the full barycenter
program, every coupling column included, in one HiGHS call: the reference
for column generation in ``barycenter_lp.solve``.  They live with the tests
because nothing in the package needs them.
"""

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from fairpost.barycenter_lp import _HIGHS_OPTIONS
from fairpost.errors import SolverFailure
from fairpost.grid import Grid


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
