"""Fixed discretization of a target interval into bin midpoints."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def check_interval(s: float, t: float) -> None:
    """The rule for every interval a grid or a model maps: 0 < t - s < inf.
    Raises ValueError otherwise, NaN ends included."""
    if not 0.0 < t - s < np.inf:
        raise ValueError(f"invalid interval: need finite s < t, got [{s}, {t}]")


@dataclass(frozen=True)
class Grid:
    """Uniform bins on [s, t]; ``midpoints[j] = s + (j + 1/2) * (t - s) / k``."""

    s: float
    t: float
    k: int
    midpoints: np.ndarray = field(repr=False)


def make_grid(s: float, t: float, k: int) -> Grid:
    """Build a k-bin grid on [s, t].

    Raises ValueError for an interval that breaks :func:`check_interval` or
    a bin count below 1.
    """
    s, t = float(s), float(t)
    check_interval(s, t)
    if k < 1:
        raise ValueError(f"invalid bin count: need k >= 1, got {k}")
    midpoints = s + (np.arange(k) + 0.5) * (t - s) / k
    midpoints.setflags(write=False)
    return Grid(s=s, t=t, k=int(k), midpoints=midpoints)


def discretize_many(grid: Grid, ys: np.ndarray) -> np.ndarray:
    """Index of the midpoint nearest to each y (0-based).

    Ties at bin boundaries break to the lower index; y outside [s, t],
    +-inf included, clamps to the nearest end bin.  A NaN has no bin:
    ValueError names the index of the first.

    Each y's bin is guessed by the uniform grid's arithmetic and then
    checked against the stored midpoints: bin j is right when y is, in
    floats, farther from midpoint j - 1 than from midpoint j and no farther
    from midpoint j than from midpoint j + 1.  The rare y whose guess fails
    a check (one within rounding of a boundary) takes the binary search.
    """
    ys = np.asarray(ys, dtype=float)
    nan = np.isnan(ys)
    if nan.any():
        raise ValueError(f"row {int(np.argmax(nan))}: NaN has no bin")
    mid, k = grid.midpoints, grid.k
    # midpoints j - 1 and j + 1 of each guess j, with -inf and inf past the ends
    padded = np.concatenate(([-np.inf], mid, [np.inf]))
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN: no check fails
        bins = np.clip((ys - grid.s) * (k / (grid.t - grid.s)), 0, k - 1).astype(np.intp)
        dist = ys - mid[bins]
        wrong = (padded[:-2][bins] - ys >= dist) | (dist > padded[2:][bins] - ys)
    if wrong.any():
        rows = np.flatnonzero(wrong)
        y = ys[rows]
        hi = np.minimum(np.searchsorted(mid, y), k - 1)
        lo = np.maximum(hi - 1, 0)
        bins[rows] = np.where((y - mid[lo]) <= (mid[hi] - y), lo, hi)
    return bins
