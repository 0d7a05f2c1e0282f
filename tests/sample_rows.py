"""Samples from row tuples, for tests that write their data inline.

``load_csv`` builds the columns the package runs on; nothing in the package
needs this row-wise constructor, so it lives with the tests.
"""

import numpy as np

from fairpost.data_io import GroupedSamples


def from_rows(rows, groups=None) -> GroupedSamples:
    """Samples of (group, score) or (group, score, label) tuples; ``groups``
    defaults to the labels in first-appearance order."""
    rows = list(rows)
    groups = tuple(dict.fromkeys(r[0] for r in rows) if groups is None else groups)
    index = {g: i for i, g in enumerate(groups)}
    gi = np.array([index[r[0]] for r in rows], dtype=np.intp)
    scores = np.array([float(r[1]) for r in rows], dtype=float)
    labels = None
    if rows and len(rows[0]) > 2 and rows[0][2] is not None:
        labels = np.array([float(r[2]) for r in rows], dtype=float)
    return GroupedSamples(groups=groups, group_idx=gi, scores=scores, labels=labels)
