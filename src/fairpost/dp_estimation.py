"""Private estimation of per-group output distributions.

Pipeline: empirical joint PMF over (group, bin) -> per-entry Laplace noise
-> clipped group weights -> scaled partial sums -> sup-norm isotonic
regression and clipping to a valid CDF -> first differences back to a PMF.

This module is the only place in the repository that reads raw sample
values on the fitting path; everything downstream consumes the private
estimates, so privacy is preserved under post-processing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_io import AffineTransform, GroupedSamples
from .grid import Grid, discretize_many


@dataclass(frozen=True)
class PrivateEstimate:
    """Step 1's output, which fits post-process at no cost: each group's private
    weight and PMF on the k-bin grid of [0, 1], the raw interval's transform, labels and budget."""

    grid: Grid
    transform: AffineTransform
    groups: tuple
    weights: np.ndarray   # (n_groups,), nonnegative
    pmfs: np.ndarray      # (n_groups, k), rows nonnegative and summing to 1
    epsilon: float


def empirical_joint(samples: GroupedSamples, grid: Grid,
                    transform: AffineTransform = AffineTransform()) -> np.ndarray:
    """Empirical joint PMF over (group, bin): entry (a, j) is the fraction
    of rows with group a whose score, mapped by ``transform`` onto the
    grid's units, discretizes to bin j."""
    if samples.n == 0:
        raise ValueError("empty input: need at least one sample")
    bins = discretize_many(grid, transform.to_internal(samples.scores))
    counts = np.bincount(samples.group_idx * grid.k + bins,
                         minlength=len(samples.groups) * grid.k)
    return counts.reshape(len(samples.groups), grid.k) / samples.n


def sample_laplace_many(rng: np.random.Generator, scale: float, size: int) -> np.ndarray:
    """``size`` Laplace(0, scale) draws by inverse CDF, one uniform each, so
    the stream advances as ``size`` scalar draws would; no rejection loops.
    u == 0.0 (probability 2^-53 under a 53-bit stream) is nudged to 2^-54
    so the left tail stays finite."""
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    u = rng.random(size)
    u = np.where(u == 0.0, 2.0 ** -54, u)
    return np.where(u < 0.5,
                    scale * np.log(2.0 * u),
                    -scale * np.log(2.0 * (1.0 - np.minimum(u, 1.0 - 2.0 ** -54))))


def check_epsilon(epsilon: float) -> None:
    """The privacy budget's rule, run by :func:`privatize_joint`, the sweep
    config and a model file's load: positive, or +inf for no noise."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive (or inf), got {epsilon}")


def privatize_joint(joint, n: int, epsilon: float, rng: np.random.Generator) -> np.ndarray:
    """Add independent Laplace(0, 2/(n*epsilon)) noise to every entry: the
    empirical joint PMF of ``n`` rows has L1 sensitivity at most 2/n under
    substitution, insertion, or deletion of one row.

    With epsilon = +inf the input is returned unchanged (and the stream is
    not advanced).  Entries of the result may be negative.
    """
    check_epsilon(epsilon)
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    joint = np.asarray(joint, dtype=float)
    if math.isinf(epsilon):
        return joint.copy()
    return joint + sample_laplace_many(rng, 2.0 / (n * epsilon), joint.size).reshape(joint.shape)


def group_weights(noisy_joint: np.ndarray) -> np.ndarray:
    """Private group marginals: row sums clipped at zero."""
    return np.maximum(np.asarray(noisy_joint, dtype=float).sum(axis=1), 0.0)


def isotonic_midrange(values: np.ndarray) -> np.ndarray:
    """Sup-norm isotonic regression along the last axis: the midpoint of the
    running prefix max and suffix min.  O(k) per sequence; equals the
    pairwise max_{l <= j <= r}(values[l] - values[r]) construction exactly."""
    values = np.asarray(values, dtype=float)
    prefix_max = np.maximum.accumulate(values, axis=-1)
    suffix_min = np.minimum.accumulate(values[..., ::-1], axis=-1)[..., ::-1]
    return 0.5 * prefix_max + 0.5 * suffix_min  # halved first: the sum could overflow


def renormalize_cdf(row: np.ndarray, weight) -> tuple[np.ndarray, np.ndarray]:
    """Turn noisy joint-PMF rows into valid (CDF, PMF) pairs along the last
    axis: ``row`` has shape (..., k) and ``weight`` shape (...).

    Scaled partial sums are made nondecreasing by sup-norm isotonic
    regression, clipped into [0, 1], and forced to end at 1; the PMF is the
    first difference.  ``weight == 0`` (noise wipeout or an empty group)
    treats the partial sums as identically zero, which yields the point
    mass at the last bin.
    """
    row = np.asarray(row, dtype=float)
    weight = np.asarray(weight, dtype=float)
    if row.ndim == 0 or row.shape[-1] == 0 or weight.shape != row.shape[:-1]:
        raise ValueError("need rows of shape (..., k), k >= 1, and one weight per row")
    if (weight < 0).any():
        raise ValueError(f"weights must be nonnegative, got {weight.min()}")
    positive = (weight > 0)[..., None]
    with np.errstate(over="ignore"):
        partial = np.cumsum(row, axis=-1) / np.where(positive, weight[..., None], 1.0)
    # a tiny weight can overflow the division; finite stand-ins keep the
    # isotonic midrange well defined and the clip below does the rest
    partial = np.where(positive, np.nan_to_num(partial, nan=0.0, posinf=1e300,
                                               neginf=-1e300), 0.0)
    cdf = np.clip(isotonic_midrange(partial), 0.0, 1.0)
    cdf[..., -1] = 1.0
    pmf = np.diff(cdf, axis=-1, prepend=0.0)
    return cdf, pmf


def estimate_private_dists(samples: GroupedSamples, grid: Grid, epsilon: float,
                           rng: np.random.Generator,
                           transform: AffineTransform = AffineTransform()
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Full private-estimation pass at budget ``epsilon`` on all
    ``samples.n`` rows: empirical joint (of the scores mapped by
    ``transform`` onto the grid's units), Laplace mechanism, clipped
    weights, per-group CDF renormalization.  Returns the weights, shape
    (n_groups,), and the PMFs, shape (n_groups, k)."""
    noisy = privatize_joint(empirical_joint(samples, grid, transform), samples.n,
                            float(epsilon), rng)
    weights = group_weights(noisy)
    return weights, renormalize_cdf(noisy, weights)[1]
