"""Randomized post-processing maps read off the optimal couplings."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .barycenter_lp import BarycenterSolution
from .dp_estimation import PrivateGroupDists
from .grid import Grid


@dataclass(frozen=True)
class TransportKernels:
    """Per-group k x k row-stochastic maps: entry (j, l) is the probability
    of sending bin j to bin l."""

    matrices: np.ndarray  # (n_groups, k, k)

    @property
    def n_groups(self) -> int:
        return self.matrices.shape[0]

    @property
    def k(self) -> int:
        return self.matrices.shape[1]

    @cached_property
    def cdfs(self) -> np.ndarray:
        """Row CDFs, ``cumsum`` along the output axis; built once per kernel set."""
        return np.cumsum(self.matrices, axis=2)


def extract_kernels(sol: BarycenterSolution, dists: PrivateGroupDists) -> TransportKernels:
    """Row j of group a is the coupling row divided by its input mass;
    bins carrying no input mass keep the identity row.  Rows are
    renormalized after the division to absorb float dust."""
    n_groups, k, _ = sol.couplings.shape
    if dists.n_groups != n_groups or dists.k != k:
        raise ValueError("solution and distributions disagree on shape")
    rows = np.clip(sol.couplings, 0.0, None)
    totals = rows.sum(axis=2, keepdims=True)
    out = np.broadcast_to(np.eye(k), rows.shape).copy()
    np.divide(rows, totals, out=out, where=(dists.pmfs[:, :, None] > 0.0) & (totals > 0.0))
    return TransportKernels(matrices=out)


def push_forward(kern: TransportKernels, a: int, pmf: np.ndarray) -> np.ndarray:
    """Distribution of the kernel output when bin indices are drawn from
    ``pmf``: output mass at l is sum_j pmf[j] * kern[a][j, l]."""
    pmf = np.asarray(pmf, dtype=float)
    if len(pmf) != kern.k:
        raise ValueError(f"pmf has length {len(pmf)}, kernels have k={kern.k}")
    return pmf @ kern.matrices[a]


# rows per block in sample_bins: bounds the gathered (block, k) CDF slab
_SAMPLE_BLOCK = 4096


def sample_bins(kern: TransportKernels, a: np.ndarray, j: np.ndarray,
                u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw per row: kernel row ``(a[i], j[i])`` read at uniform
    ``u[i]``.  On a nondecreasing row CDF the count of entries ``<= u`` is
    exactly ``searchsorted(cdf, u, side="right")``; the result is clamped
    to k - 1.  Rows go in fixed blocks so memory stays bounded."""
    cdfs, out = kern.cdfs, np.empty(len(u), dtype=np.intp)
    for lo in range(0, len(u), _SAMPLE_BLOCK):
        blk = slice(lo, lo + _SAMPLE_BLOCK)
        (cdfs[a[blk], j[blk]] <= u[blk, None]).sum(axis=1, out=out[blk])
    return np.minimum(out, kern.k - 1, out=out)


def row_means(kern: TransportKernels, grid: Grid) -> np.ndarray:
    """Mean output value per input bin: sum_l kern[a][j, l] * v_l.

    This is the deterministic "barycentric" read-out of the kernels; note
    that using it instead of sampling changes the output distribution, so
    the statistical-parity guarantee no longer applies.  Each entry is the
    1-D dot of one row, which a batched matmul does not reproduce bit for bit.
    """
    return np.array([[row @ grid.midpoints for row in m] for m in kern.matrices])
