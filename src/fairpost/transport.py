"""Randomized post-processing maps read off the optimal couplings.

Kernels are arrays of shape (n_groups, k, k): entry (a, j, l) is the
probability that group a sends bin j to bin l."""

from __future__ import annotations

import numpy as np

from .barycenter_lp import BarycenterSolution
from .dp_estimation import PrivateGroupDists
from .grid import Grid


def extract_kernels(sol: BarycenterSolution, dists: PrivateGroupDists) -> np.ndarray:
    """Row j of group a is the coupling row divided by its own sum, so it
    sums to 1 up to rounding; bins carrying no input mass keep the identity row."""
    n_groups, k, _ = sol.couplings.shape
    if dists.n_groups != n_groups or dists.k != k:
        raise ValueError("solution and distributions disagree on shape")
    rows = np.clip(sol.couplings, 0.0, None)
    totals = rows.sum(axis=2, keepdims=True)
    out = np.broadcast_to(np.eye(k), rows.shape).copy()
    np.divide(rows, totals, out=out, where=(dists.pmfs[:, :, None] > 0.0) & (totals > 0.0))
    return out


# rows per block in sample_bins: bounds the gathered (block, k) CDF slab
_SAMPLE_BLOCK = 4096


def sample_bins(cdfs: np.ndarray, a: np.ndarray, j: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw per row: kernel row ``(a[i], j[i])``, given by its
    CDF ``cdfs[a[i], j[i]]`` (the kernels' ``cumsum`` along the output
    axis), read at uniform ``u[i]``.  On a nondecreasing row CDF the count
    of entries ``<= u`` is exactly ``searchsorted(cdf, u, side="right")``;
    the result is clamped to k - 1.  Rows go in fixed blocks so memory
    stays bounded."""
    out = np.empty(len(u), dtype=np.intp)
    for lo in range(0, len(u), _SAMPLE_BLOCK):
        blk = slice(lo, lo + _SAMPLE_BLOCK)
        (cdfs[a[blk], j[blk]] <= u[blk, None]).sum(axis=1, out=out[blk])
    return np.minimum(out, cdfs.shape[-1] - 1, out=out)


def row_means(kernels: np.ndarray, grid: Grid) -> np.ndarray:
    """Mean output value per input bin: sum_l kernels[a, j, l] * v_l.

    This is the deterministic "barycentric" read-out of the kernels; note
    that using it instead of sampling changes the output distribution, so
    the statistical-parity guarantee no longer applies.  Each entry is the
    1-D dot of one row, which a batched matmul does not reproduce bit for bit.
    """
    return np.array([[row @ grid.midpoints for row in m] for m in kernels])
