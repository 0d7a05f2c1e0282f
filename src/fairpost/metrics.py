"""Distances between discrete distributions on a shared grid, the exact
1-D squared-cost transport oracle, MSE, and the statistical-parity gap."""

from __future__ import annotations

import math

import numpy as np

from .grid import Grid, discretize_many

# tolerance for treating a mass vector as a valid PMF
_MASS_ATOL = 1e-9


def as_pmf(masses, k: int | None = None) -> np.ndarray:
    """Validate a probability vector: nonnegative (up to float dust) and
    summing to 1 within 1e-9.  Dust in [-1e-9, 0) is clipped; returns a copy."""
    p = np.asarray(masses, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"expected a 1-D mass vector, got shape {p.shape}")
    if k is not None and len(p) != k:
        raise ValueError(f"mass vector has length {len(p)}, expected {k}")
    if p.min(initial=0.0) < -_MASS_ATOL:
        raise ValueError(f"negative mass {p.min()} in distribution")
    if abs(p.sum() - 1.0) > _MASS_ATOL:
        raise ValueError(f"masses sum to {p.sum()}, expected 1")
    return np.clip(p, 0.0, None)


def _check_pair(p, q):
    p = as_pmf(p)
    q = as_pmf(q)
    if len(p) != len(q):
        raise ValueError(f"mismatched lengths {len(p)} vs {len(q)}")
    return p, q


def ks_distance(p, q) -> float:
    """Kolmogorov-Smirnov distance: max absolute CDF difference on the grid."""
    p, q = _check_pair(p, q)
    return float(np.abs(np.cumsum(p - q)).max())


def l1_distance(p, q) -> float:
    p, q = _check_pair(p, q)
    return float(np.abs(p - q).sum())


def linf_distance(p, q) -> float:
    p, q = _check_pair(p, q)
    return float(np.abs(p - q).max())


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
    bin under q); pieces of width <= 1e-15 are float dust and are dropped.
    Inputs must share the same total mass up to float dust."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    k = p.shape[-1]
    widths, bins = _quantile_pieces(np.stack([np.cumsum(p, axis=-1),
                                              np.cumsum(q, axis=-1)], axis=-2))
    lead = widths.shape[:-1]
    # one bincount over every batch: batch b owns the flat cells b*k*k .. (b+1)*k*k - 1
    batch = np.arange(math.prod(lead)).reshape(lead + (1,))
    cells = (batch * k + bins[..., 0, :]) * k + bins[..., 1, :]
    out = np.bincount(cells.ravel(), weights=np.where(widths > 1e-15, widths, 0.0).ravel(),
                      minlength=batch.size * k * k)
    return out.reshape(lead + (k, k))


def w2sq_monotone(p, q, grid: Grid) -> tuple[float, np.ndarray]:
    """Exact squared-W2 transport cost between grid distributions, with the
    optimal coupling.  In 1-D with squared cost the monotone coupling is
    optimal, which makes this an independent oracle for the LP route."""
    p, q = _check_pair(p, q)
    if len(p) != grid.k:
        raise ValueError(f"distributions have length {len(p)}, grid has k={grid.k}")
    # renormalize so both sides carry exactly matching total mass
    p = p / p.sum()
    q = q / q.sum()
    coupling = monotone_coupling(p, q)
    v = grid.midpoints
    cost = float(((v[:, None] - v[None, :]) ** 2 * coupling).sum())
    return cost, coupling


def statistical_parity_gap(outputs_by_group, grid: Grid) -> float:
    """Max pairwise KS distance between per-group empirical output
    distributions, binned on ``grid``: max_j (max_a F_a(j) - min_a F_a(j))
    over the groups' empirical CDFs F_a, which is O(G) rather than a pass
    over every pair.

    ``outputs_by_group`` maps group label -> sequence of outputs (or is a
    sequence of sequences).  Empty groups are skipped; fewer than two
    nonempty groups gives 0.
    """
    if hasattr(outputs_by_group, "values"):
        seqs = list(outputs_by_group.values())
    else:
        seqs = list(outputs_by_group)
    cdfs = []
    for ys in seqs:
        ys = np.asarray(ys, dtype=float)
        if ys.size == 0:
            continue
        # integer running counts, so each CDF value is one rounding from exact
        counts = np.bincount(discretize_many(grid, ys), minlength=grid.k)
        cdfs.append(np.cumsum(counts) / ys.size)
    if not cdfs:
        raise ValueError("all groups empty")
    cdfs = np.array(cdfs)
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
