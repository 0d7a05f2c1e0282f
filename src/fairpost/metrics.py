"""The quantile coupling of discrete distributions on a shared grid, MSE,
and the statistical-parity gap."""

from __future__ import annotations

import math

import numpy as np

from .grid import Grid, discretize_many


def _quantile_pieces(cdfs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cut [0, 1] at the union of the breakpoints of CDFs of shape (..., m, k).
    Returns each piece's width, (..., m*k), and its bin under each CDF,
    (..., m, m*k): the count of CDF entries <= the piece's midpoint, clamped
    to k - 1.  A repeated breakpoint leaves a piece of width 0."""
    k = cdfs.shape[-1]
    flat = cdfs.reshape(cdfs.shape[:-2] + (-1,))
    edges = np.sort(np.concatenate([np.zeros(flat.shape[:-1] + (1,)), flat], axis=-1), axis=-1)
    widths = np.diff(edges, axis=-1)
    mids = edges[..., :-1] + widths / 2
    bins = (cdfs[..., :, None, :] <= mids[..., None, :, None]).sum(axis=-1)
    return widths, np.minimum(bins, k - 1)


def monotone_coupling(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Quantile (northwest-corner) coupling of mass vectors of shape (..., k)
    on a sorted support, batched over leading axes into (..., k, k).  Each
    piece between the two CDFs' breakpoints puts its width on (bin under p,
    bin under q).  A piece of width <= 1e-15 is float dust and is dropped
    when its bin under p also has a wider piece, so dust never empties a
    bin.  Inputs must share the same total mass up to float dust."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    k = p.shape[-1]
    widths, bins = _quantile_pieces(np.stack([np.cumsum(p, axis=-1),
                                              np.cumsum(q, axis=-1)], axis=-2))
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


def statistical_parity_gap(group_idx, outputs, n_groups: int, grid: Grid) -> float:
    """Max pairwise KS distance between per-group empirical output
    distributions, binned on ``grid``: max_j (max_a F_a(j) - min_a F_a(j))
    over the groups' empirical CDFs F_a, which is O(G) rather than a pass
    over every pair.

    Row i has group ``group_idx[i]`` (in ``range(n_groups)``) and output
    ``outputs[i]``.  Empty groups are skipped; fewer than two nonempty
    groups gives 0.
    """
    outputs = np.asarray(outputs, dtype=float)
    if outputs.size == 0:
        raise ValueError("all groups empty")
    counts = np.bincount(np.asarray(group_idx) * grid.k + discretize_many(grid, outputs),
                         minlength=n_groups * grid.k).reshape(n_groups, grid.k)
    # integer running counts, so each CDF value is one rounding from exact
    running = np.cumsum(counts, axis=1)
    running = running[running[:, -1] > 0]
    cdfs = running / running[:, -1:]
    return float((cdfs.max(axis=0) - cdfs.min(axis=0)).max())


def mse(predictions, labels) -> float:
    """Mean squared error."""
    preds = np.asarray(predictions, dtype=float)
    labs = np.asarray(labels, dtype=float)
    if preds.shape != labs.shape:
        raise ValueError(f"length mismatch: {preds.shape} vs {labs.shape}")
    if preds.size == 0:
        raise ValueError("empty inputs")
    return float(np.mean((preds - labs) ** 2))
