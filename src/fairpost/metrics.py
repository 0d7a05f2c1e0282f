"""Scores of a post-processor's outputs: MSE against the labels, and the
statistical-parity gap between the groups' output distributions."""

from __future__ import annotations

import numpy as np

from .grid import Grid, discretize_many


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
