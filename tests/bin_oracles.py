"""Reference binning and sampling, as fairpost did them before it binned
by the grid's arithmetic and sampled on each kernel row's band: the tests
hold ``grid.discretize_many`` and ``transport.sample_bins`` to these with
no tolerance."""

import numpy as np


def searchsorted_bins(midpoints: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Nearest midpoint by binary search; a tie goes to the lower index and
    out-of-range values, +-inf included, clamp to the end bins."""
    hi = np.minimum(np.searchsorted(midpoints, ys), len(midpoints) - 1)
    lo = np.maximum(hi - 1, 0)
    with np.errstate(over="ignore"):
        return np.where((ys - midpoints[lo]) <= (midpoints[hi] - ys), lo, hi)


def full_row_draws(kernels: np.ndarray, a: np.ndarray, j: np.ndarray,
                   u: np.ndarray) -> np.ndarray:
    """Each row's draw as the count of its whole row CDF's entries <= u,
    clamped to k - 1."""
    cdfs = np.cumsum(kernels, axis=2)
    return np.minimum((cdfs[a, j] <= u[:, None]).sum(axis=1), kernels.shape[-1] - 1)
