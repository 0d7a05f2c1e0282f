"""CSV ingestion, schema mapping, target normalization, and train/test splitting.

The canonical on-disk format is a delimited text file with a header row and
UTF-8 encoding.  Canonical columns: ``group`` (string), ``score`` (decimal),
``label`` (decimal, optional).  Raw-dataset feature handling lives in the
checked-in recipes under ``scripts/``; the library only consumes the
canonical layout (or any layout described by a :class:`DatasetSchema`).
"""

from __future__ import annotations

import csv
import logging
import math
import operator
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import DataError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class AffineTransform:
    """Map between raw target units and the internal scale.

    raw = offset + scale * internal.  Identity by default.
    """

    offset: float = 0.0
    scale: float = 1.0

    def to_internal(self, y):
        return (np.asarray(y, dtype=float) - self.offset) / self.scale

    def to_raw(self, z):
        return self.offset + self.scale * np.asarray(z, dtype=float)

    @property
    def is_identity(self) -> bool:
        return self.offset == 0.0 and self.scale == 1.0


IDENTITY_TRANSFORM = AffineTransform()


@dataclass(frozen=True)
class DatasetSchema:
    """Column mapping and target-interval declaration for a dataset.

    ``score_col=None`` means the label column doubles as the score (the
    identity-regressor setup); ``normalization="affine-to-unit"`` rescales
    scores and labels from ``interval`` onto [0, 1], keeping the inverse
    transform on the loaded samples.
    """

    group_col: str = "group"
    score_col: str | None = "score"
    label_col: str | None = "label"
    interval: tuple[float, float] = (0.0, 1.0)
    normalization: str = "none"
    delimiter: str = ","

    def __post_init__(self):
        cols = [c for c in (self.group_col, self.score_col, self.label_col) if c is not None]
        if len(set(cols)) != len(cols):
            raise ValueError(f"schema column names must be distinct, got {cols}")
        s, t = self.interval
        if not float(s) < float(t):
            raise ValueError(f"invalid interval {self.interval}: need s < t")
        if self.score_col is None and self.label_col is None:
            raise ValueError("schema needs a score column or a label column to use as score")
        if self.normalization not in ("none", "affine-to-unit"):
            raise ValueError(f"unknown normalization mode {self.normalization!r}")

    @property
    def internal_interval(self) -> tuple[float, float]:
        if self.normalization == "affine-to-unit":
            return (0.0, 1.0)
        return (float(self.interval[0]), float(self.interval[1]))

    def transform(self) -> AffineTransform:
        if self.normalization == "affine-to-unit":
            s, t = self.interval
            return AffineTransform(offset=float(s), scale=float(t) - float(s))
        return IDENTITY_TRANSFORM


@dataclass(frozen=True)
class GroupedSamples:
    """Rows of (group, score, optional label) in columnar form.

    ``groups`` lists the distinct group labels in first-appearance order;
    ``group_idx`` indexes into it per row.  Scores and labels are on the
    internal scale; ``transform`` recovers raw units.
    """

    groups: tuple
    group_idx: np.ndarray
    scores: np.ndarray
    labels: np.ndarray | None = None
    transform: AffineTransform = IDENTITY_TRANSFORM

    def __post_init__(self):
        if len(self.group_idx) != len(self.scores):
            raise ValueError("group_idx and scores length mismatch")
        if self.labels is not None and len(self.labels) != len(self.scores):
            raise ValueError("labels length mismatch")
        if len(self.group_idx) and not (
            self.group_idx.min() >= 0 and self.group_idx.max() < len(self.groups)
        ):
            raise ValueError("group_idx out of range")

    @property
    def n(self) -> int:
        return len(self.scores)

    @classmethod
    def from_rows(cls, rows, groups=None, transform=IDENTITY_TRANSFORM) -> "GroupedSamples":
        """Build from an iterable of (group, score) or (group, score, label) tuples."""
        rows = list(rows)
        if groups is None:
            groups = []
            for r in rows:
                if r[0] not in groups:
                    groups.append(r[0])
        groups = tuple(groups)
        index = {g: i for i, g in enumerate(groups)}
        gi = np.array([index[r[0]] for r in rows], dtype=np.intp)
        scores = np.array([float(r[1]) for r in rows], dtype=float)
        labels = None
        if rows and len(rows[0]) > 2 and rows[0][2] is not None:
            labels = np.array([float(r[2]) for r in rows], dtype=float)
        return cls(groups=groups, group_idx=gi, scores=scores, labels=labels,
                   transform=transform)

    def subset(self, idx: np.ndarray) -> "GroupedSamples":
        """Row subset; the group-label universe is preserved."""
        return GroupedSamples(
            groups=self.groups,
            group_idx=self.group_idx[idx],
            scores=self.scores[idx],
            labels=None if self.labels is None else self.labels[idx],
            transform=self.transform,
        )


def load_csv(path, schema: DatasetSchema) -> GroupedSamples:
    """Parse a delimited file into :class:`GroupedSamples` per ``schema``.

    Rows with an empty cell in any declared column are rejected (and
    counted); a non-empty cell that fails to parse, or parses to nan or
    inf, is an error.  Raises :class:`DataError` for a missing file,
    missing columns, unparseable or non-finite cells, a file that is not
    UTF-8 CSV, or an empty result.
    """
    score_col = schema.score_col if schema.score_col is not None else schema.label_col
    columns = [schema.group_col, score_col]
    if schema.label_col is not None:
        columns.append(schema.label_col)
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    groups: list = []
    index: dict = {}
    gi, scores, labels = [], array("d"), array("d")
    rejected = 0
    with fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file (no header row)")
            position = {name: i for i, name in enumerate(header)}
            missing = set(columns) - set(position)
            if missing:
                raise DataError(f"{path}: missing column(s) {sorted(missing)}")
            pick = operator.itemgetter(*(position[c] for c in columns))
            width = 1 + max(position[c] for c in columns)
            for row in reader:
                if not row:  # blank lines are skipped, as csv.DictReader does
                    continue
                if len(row) < width or not all(map(str.strip, cells := pick(row))):
                    rejected += 1  # a declared cell is missing or empty
                    continue
                try:
                    values = list(map(float, cells[1:]))
                    finite = all(map(math.isfinite, values))
                except ValueError:
                    finite = False
                if not finite:
                    raise _bad_cell(path, reader.line_num, zip(columns[1:], cells[1:]))
                g = cells[0].strip()
                if g not in index:
                    index[g] = len(groups)
                    groups.append(g)
                gi.append(index[g])
                scores.append(values[0])
                if schema.label_col is not None:
                    labels.append(values[-1])
        except (csv.Error, UnicodeDecodeError) as exc:
            raise DataError(f"{path}: not a readable UTF-8 CSV file: {exc}") from exc

    if not scores:
        raise DataError(f"{path}: no usable data rows")
    if rejected:
        log.warning("%s: rejected %d row(s) with empty cells", path, rejected)

    transform = schema.transform()
    return GroupedSamples(
        groups=tuple(groups),
        group_idx=np.array(gi, dtype=np.intp),
        scores=transform.to_internal(np.frombuffer(scores)),
        labels=None if schema.label_col is None else transform.to_internal(np.frombuffer(labels)),
        transform=transform,
    )


def _bad_cell(path, lineno: int, named_cells) -> DataError:
    """The error for the first (column, cell) pair that is unparseable or
    not finite; ``lineno`` is the physical file line, counting the header
    and blank lines."""
    for name, cell in named_cells:
        try:
            problem = None if math.isfinite(float(cell)) else "non-finite"
        except ValueError:
            problem = "unparseable"
        if problem:
            return DataError(f"{path}: {problem} cell at row {lineno}, column {name!r}: {cell!r}")
    raise AssertionError("no bad cell in the row")


def split_train_test(samples: GroupedSamples, ratio: float = 0.7,
                     seed: int = 0) -> tuple[GroupedSamples, GroupedSamples]:
    """Uniform shuffle by ``seed``; the first ceil(ratio * n) rows train.

    The group-label universe is shared by both halves even when a group
    lands entirely in one of them.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"split ratio must be in (0, 1), got {ratio}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(samples.n)
    # the small nudge keeps float dust (e.g. 0.1 * 30 = 3.0000000000000004)
    # from inflating the ceiling
    n_train = int(math.ceil(ratio * samples.n - 1e-9))
    return samples.subset(perm[:n_train]), samples.subset(perm[n_train:])
