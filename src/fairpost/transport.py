"""Randomized post-processing maps read off the optimal couplings.

Kernels are arrays of shape (n_groups, k, k): entry (a, j, l) is the
probability that group a sends bin j to bin l."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .barycenter_lp import BarycenterSolution
from .grid import Grid


def extract_kernels(sol: BarycenterSolution, pmfs: np.ndarray) -> np.ndarray:
    """Row j of group a is the coupling row divided by its own sum, so it
    sums to 1 up to rounding; bins carrying no mass under ``pmfs`` keep the identity row."""
    n_groups, k, _ = sol.couplings.shape
    if np.shape(pmfs) != (n_groups, k):
        raise ValueError("solution and PMFs disagree on shape")
    rows = np.clip(sol.couplings, 0.0, None)
    totals = rows.sum(axis=2, keepdims=True)
    out = np.broadcast_to(np.eye(k), rows.shape).copy()
    np.divide(rows, totals, out=out, where=(pmfs[:, :, None] > 0.0) & (totals > 0.0))
    return out


# rows per block in sample_bins: bounds each pass's temporaries
_SAMPLE_BLOCK = 4096


@dataclass(frozen=True)
class RowBands:
    """The kernels' row CDFs (``cumsum`` along the output axis), held only
    where they can change.  Row ``r = a * k + j`` is kernel row (a, j).  Its
    CDF is exactly 0 before the row's first nonzero entry and exactly its
    total from the last nonzero entry on, since adding 0.0 changes no value;
    every row's nonzero entries fit in ``W`` columns from ``start[r]``."""

    start: np.ndarray  # (G * k,) first column of each row's band
    cdf: np.ndarray    # (W, G * k) the row CDFs on the band, column-major
    total: np.ndarray  # (G * k,) each row CDF's last entry
    k: int


def row_bands(kernels: np.ndarray) -> RowBands:
    """The :class:`RowBands` of nonnegative kernels of shape (G, k, k)."""
    k = kernels.shape[-1]
    rows = kernels.reshape(-1, k)
    cdfs = np.cumsum(rows, axis=1)
    nonzero = rows != 0.0
    first = np.argmax(nonzero, axis=1)
    # an all-zero row gets first == last == 0: its CDF is 0 everywhere
    last = np.where(nonzero.any(axis=1), k - 1 - np.argmax(nonzero[:, ::-1], axis=1), 0)
    width = int((last - first).max(initial=0)) + 1
    start = np.minimum(first, k - width)
    cdf = cdfs[np.arange(len(rows))[None, :], start[None, :] + np.arange(width)[:, None]]
    return RowBands(start=start, cdf=cdf, total=cdfs[:, -1].copy(), k=k)


def sample_bins(bands: RowBands, a: np.ndarray, j: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw per row: kernel row ``(a[i], j[i])`` read at uniform
    ``u[i] >= 0``.  The draw is the count of row CDF entries ``<= u``, which
    on a nondecreasing row is ``searchsorted(cdf, u, side="right")``,
    clamped to k - 1.  The entries before the band are 0 and count, one
    flat pass per band column counts the band, and the entries after it
    count when the total does.  Rows go in fixed blocks so memory stays
    bounded."""
    k = bands.k
    width = len(bands.cdf)
    out = np.empty(len(u), dtype=np.intp)
    for lo in range(0, len(u), _SAMPLE_BLOCK):
        blk = slice(lo, lo + _SAMPLE_BLOCK)
        r, ub = a[blk] * k + j[blk], u[blk]
        start = bands.start.take(r)
        cnt = out[blk]
        np.multiply(k - width - start, bands.total.take(r) <= ub, out=cnt)
        cnt += start
        for col in bands.cdf:
            cnt += col.take(r) <= ub
    return np.minimum(out, k - 1, out=out)


def row_means(kernels: np.ndarray, grid: Grid) -> np.ndarray:
    """Mean output value per input bin: sum_l kernels[a, j, l] * v_l.

    This is the deterministic "barycentric" read-out of the kernels; note
    that using it instead of sampling changes the output distribution, so
    the statistical-parity guarantee no longer applies.  Each entry is the
    1-D dot of one row, which a batched matmul does not reproduce bit for bit.
    """
    return np.array([[row @ grid.midpoints for row in m] for m in kernels])
