"""Seeded synthetic inputs for the benchmark.

Every CSV holds four Beta-distributed groups with distinct shapes and
unequal sizes, interleaved in random order.  The same (seed, stream)
always gives the same rows; the program under test only ever sees the
written CSV files.
"""

from __future__ import annotations

import numpy as np

GROUPS = ("A", "B", "C", "D")
# (a, b) Beta shapes: left-skewed, right-skewed, symmetric, U-shaped
SHAPES = ((2.0, 5.0), (5.0, 2.0), (2.0, 2.0), (0.7, 0.9))
SHARES = (0.4, 0.3, 0.2, 0.1)
# labels are scores plus Gaussian noise, clipped to the [0, 1] interval
LABEL_NOISE = 0.1

# stream ids, so that each input of a workload has its own RNG stream
TRAIN, APPLY, QUERIES, SWEEP = 1, 2, 3, 4


def group_sizes(n: int) -> list[int]:
    sizes = [int(n * share) for share in SHARES]
    sizes[0] += n - sum(sizes)
    return sizes


def make_rows(seed: int, stream: int, n: int):
    """Return (group_idx, scores, labels) for n rows.  Labels are always
    written because the default schema of the CLI expects a label column."""
    rng = np.random.default_rng([seed, stream])
    sizes = group_sizes(n)
    group_idx = np.repeat(np.arange(len(GROUPS)), sizes)
    scores = np.concatenate([rng.beta(a, b, size) for (a, b), size in zip(SHAPES, sizes)])
    perm = rng.permutation(n)
    group_idx, scores = group_idx[perm], scores[perm]
    labels = np.clip(scores + rng.normal(0.0, LABEL_NOISE, n), 0.0, 1.0)
    return group_idx, scores, labels


def write_csv(path, group_idx, scores, labels) -> None:
    """Write the canonical layout; floats as repr so they parse back exactly."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("group,score,label\n")
        fh.writelines(f"{GROUPS[g]},{y!r},{z!r}\n"
                      for g, y, z in zip(group_idx.tolist(), scores.tolist(),
                                         labels.tolist()))
