"""CSV ingestion, schema mapping, and train/test splitting.

The canonical on-disk format is a delimited text file with a header row and
UTF-8 encoding.  Canonical columns: ``group`` (string), ``score`` (decimal),
``label`` (decimal, optional).  Raw-dataset feature handling lives in the
checked-in recipes under ``scripts/``; the library only consumes the
canonical layout (or any layout described by a :class:`DatasetSchema`).
Columns are returned in the units they were read in; a fitted model maps
them onto its unit grid with the :class:`AffineTransform` it stores.

Text I/O works on blocks, not on one row at a time.  :func:`load_csv`
reads the file once as bytes and splits a regular one a block of lines at
a time on its line breaks and delimiter (:func:`_split_regular`); any
other, and so every file with an error, goes to ``csv.reader``, whose rows
are checked, parsed and indexed a block at a time, and the rows of a block
that fails a check are walked again one by one only to name its first bad
row.  The stripped text of the score cells is kept beside the parsed
scores, so that ``apply`` writes every score as it was read without
formatting a float.  :func:`write_csv` writes every CSV file the commands
produce, and :func:`format_floats` renders a float column for it with one
call of the formatter per distinct value.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import operator
from array import array
from dataclasses import dataclass
from itertools import compress, islice

import numpy as np

from . import __version__
from .errors import DataError
from .grid import check_interval

log = logging.getLogger(__name__)

# Rows per block when reading a CSV file (and writing one).  A
# few hundred rows spread the per-block costs thin, while the row lists of a
# block die young: thousands of live ones make the cyclic collector run full
# collections in a process that has imported numpy.
BLOCK_ROWS = 512
# Bytes per block when splitting a regular file: its cells are the largest transient.
BLOCK_BYTES = 1 << 16
# A quote, a NUL, and what str.strip removes but the line break: none is in a regular file.
_IRREGULAR = (b'"', b"\0", *(bytes([c]) for c in range(128) if chr(c).isspace() and c != 10))


@dataclass(frozen=True)
class AffineTransform:
    """Map between raw target units and the unit interval of a model's grid.

    raw = offset + scale * internal.  Identity by default.  The raw
    interval [offset, offset + scale] must pass :func:`check_interval`.
    """

    offset: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        check_interval(self.offset, self.offset + self.scale)

    def to_internal(self, y):
        return (np.asarray(y, dtype=float) - self.offset) / self.scale

    def to_raw(self, z):
        return self.offset + self.scale * np.asarray(z, dtype=float)


@dataclass(frozen=True)
class DatasetSchema:
    """Column mapping and target-interval declaration for a dataset.

    ``score_col=None`` means the label column doubles as the score (the
    identity-regressor setup).  ``interval`` is the raw target interval a
    fit maps onto its grid; only ``fit`` and ``sweep`` read it.  Column
    names are strings, and the delimiter is one character that ``csv`` can
    split on: not a quote or a line break.
    """

    group_col: str = "group"
    score_col: str | None = "score"
    label_col: str | None = "label"
    interval: tuple[float, float] = (0.0, 1.0)
    delimiter: str = ","

    def __post_init__(self):
        cols = [self.group_col] + [c for c in (self.score_col, self.label_col) if c is not None]
        for col in cols:
            if not isinstance(col, str):
                raise ValueError(f"schema column names must be strings, got {col!r}")
        if not (isinstance(self.delimiter, str) and len(self.delimiter) == 1
                and self.delimiter not in '"\r\n'):
            raise ValueError("schema delimiter must be one character other than a quote or "
                             f"a line break, got {self.delimiter!r}")
        if len(set(cols)) != len(cols):
            raise ValueError(f"schema column names must be distinct, got {cols}")
        s, t = self.interval
        check_interval(float(s), float(t))
        if self.score_col is None and self.label_col is None:
            raise ValueError("schema needs a score column or a label column to use as score")


@dataclass(frozen=True)
class GroupedSamples:
    """Rows of (group, score, optional label) in columnar form.

    ``groups`` lists the distinct group labels in first-appearance order
    (a repeated label is refused); ``group_idx`` indexes into it per row.
    Scores and labels are in raw units.  ``score_text`` is an object array
    of each score's cell text, stripped, as :func:`load_csv` read it;
    samples built any other way have none.
    """

    groups: tuple
    group_idx: np.ndarray
    scores: np.ndarray
    labels: np.ndarray | None = None
    score_text: np.ndarray | None = None

    def __post_init__(self):
        if len(self.group_idx) != len(self.scores):
            raise ValueError("group_idx and scores length mismatch")
        if self.labels is not None and len(self.labels) != len(self.scores):
            raise ValueError("labels length mismatch")
        if self.score_text is not None and len(self.score_text) != len(self.scores):
            raise ValueError("score_text length mismatch")
        if len(set(self.groups)) != len(self.groups):
            raise ValueError(f"repeated group labels in {list(self.groups)}")
        if len(self.group_idx) and not (
            self.group_idx.min() >= 0 and self.group_idx.max() < len(self.groups)
        ):
            raise ValueError("group_idx out of range")

    @property
    def n(self) -> int:
        return len(self.scores)

    @classmethod
    def from_rows(cls, rows, groups=None) -> "GroupedSamples":
        """Build from an iterable of (group, score) or (group, score, label) tuples."""
        rows = list(rows)
        groups = tuple(dict.fromkeys(r[0] for r in rows) if groups is None else groups)
        index = {g: i for i, g in enumerate(groups)}
        gi = np.array([index[r[0]] for r in rows], dtype=np.intp)
        scores = np.array([float(r[1]) for r in rows], dtype=float)
        labels = None
        if rows and len(rows[0]) > 2 and rows[0][2] is not None:
            labels = np.array([float(r[2]) for r in rows], dtype=float)
        return cls(groups=groups, group_idx=gi, scores=scores, labels=labels)

    def subset(self, idx: np.ndarray) -> "GroupedSamples":
        """Row subset; the group-label universe is preserved."""
        return GroupedSamples(
            groups=self.groups,
            group_idx=self.group_idx[idx],
            scores=self.scores[idx],
            labels=None if self.labels is None else self.labels[idx],
            score_text=None if self.score_text is None else self.score_text[idx],
        )


def load_csv(path, schema: DatasetSchema) -> GroupedSamples:
    """Parse a delimited file into :class:`GroupedSamples` per ``schema``.

    Rows with an empty cell in any declared column are rejected (and
    counted); a non-empty cell that fails to parse, or parses to nan or
    inf, is an error.  Raises :class:`DataError` for a missing file,
    missing columns, a column it reads named twice in the header,
    unparseable or non-finite cells, a file that is not UTF-8 CSV, or an
    empty result.

    Unless :func:`_split_regular` splits the file, rows are taken from
    ``csv.reader`` in blocks of :data:`BLOCK_ROWS`, and each check runs over
    a whole column of a block.  The parsed rows of a block that fails a
    check are walked again one by one, so the error names the same physical
    line and cell as a row-at-a-time parser would.  The file is read once,
    so a pipe works as well as a regular file.
    """
    score_col = schema.score_col if schema.score_col is not None else schema.label_col
    # the group column, then each numeric column once: a label column that
    # doubles as the score is parsed once
    columns = list(dict.fromkeys(c for c in (schema.group_col, score_col, schema.label_col)
                                 if c is not None))
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""),
                        delimiter=schema.delimiter)
    try:
        header = next(reader, None)
    except (csv.Error, UnicodeDecodeError) as exc:
        raise _unreadable(path, exc) from exc
    if header is None:
        raise DataError(f"{path}: empty file (no header row)")
    position = {name: i for i, name in enumerate(header)}
    missing = set(columns) - set(position)
    if missing:
        raise DataError(f"{path}: missing column(s) {sorted(missing)}")
    if repeated := [c for c in columns if header.count(c) > 1]:
        raise DataError(f"{path}: column {repeated[0]!r} appears more than once in the header")
    regular = _split_regular(data, schema.delimiter, len(header), [position[c] for c in columns])
    index, gi, values, score_text = regular or (
        {}, array("q"), [array("d") for _ in columns[1:]], [])
    rejected = 0
    getters = [operator.itemgetter(position[c]) for c in columns]
    width = 1 + max(position[c] for c in columns)
    line = reader.line_num
    while regular is None:
        rows, stop = [], None
        try:
            rows.extend(islice(reader, BLOCK_ROWS))
        except (csv.Error, UnicodeDecodeError) as exc:
            stop = exc  # raised once the rows read before it pass
        if not rows and stop is None:
            break
        try:
            rejected += _parse_block(rows, getters, width, index, gi, values, score_text)
            failed = stop is not None
        except ValueError:
            failed = True
        if failed:
            _raise_first_bad_row(path, rows, line, columns, getters, width, stop)
        line = reader.line_num
    del data, reader  # the file's bytes, freed before the columns are copied out

    if not gi:
        raise DataError(f"{path}: no usable data rows")
    if rejected:
        log.warning("%s: rejected %d row(s) with empty cells", path, rejected)

    return GroupedSamples(
        groups=tuple(index),
        group_idx=np.frombuffer(gi, dtype=np.int64).astype(np.intp),
        scores=np.frombuffer(values[0]),
        labels=None if schema.label_col is None else np.frombuffer(values[-1]),
        score_text=np.array(score_text, dtype=object),
    )


def _parse_block(rows, getters, width: int, index: dict, gi, values, score_text) -> int:
    """Append a block's kept rows to the columns (:func:`_append_columns`),
    the cells picked by ``getters``: the group's, then each number's, the
    score first.  Returns the block's count of rejected rows."""
    rejected = 0
    if min(map(len, rows), default=width) < width:
        # blank rows are skipped, as csv.DictReader does; short rows are rejected
        kept = [row for row in rows if len(row) >= width]
        rejected += sum(map(bool, rows)) - len(kept)
        rows = kept
    # one strip per cell serves the empty-cell check, the parse and the kept text
    labels, *numbers = [list(map(str.strip, map(get, rows))) for get in getters]
    if not all(map(all, (labels, *numbers))):
        keep = list(map(all, zip(labels, *numbers)))
        rejected += keep.count(False)  # a declared cell is empty
        labels, *numbers = [list(compress(col, keep)) for col in (labels, *numbers)]
    _append_columns(labels, numbers, index, gi, values, score_text)
    return rejected


def _append_columns(labels, numbers, index: dict, gi, values, score_text) -> None:
    """Append each label's index into ``index`` (first-appearance order) to
    ``gi``, each column of ``numbers`` parsed to its array in ``values``, and
    the score cells to ``score_text``; raises ``ValueError`` for a bad number."""
    for column, cells in zip(values, numbers):
        start = len(column)
        column.extend(map(float, cells))
        if not np.isfinite(np.frombuffer(column)[start:]).all():
            raise ValueError("non-finite cell")
    score_text.extend(numbers[0])
    for g in dict.fromkeys(labels):
        index.setdefault(g, len(index))
    gi.extend(map(index.__getitem__, labels))


def _split_regular(data: bytes, delimiter: str, ncol: int, picks):
    """The columns ``(index, gi, values, score_text)`` that ``csv.reader``
    gives for ``data``, a file of ``ncol`` columns, at the ``picks`` (the
    group's position, then each number's); None unless the file is regular:
    ASCII ending in a line break, none of :data:`_IRREGULAR` but the
    delimiter, ``ncol - 1`` delimiters and no empty cell on each line, no
    line over ``csv.field_size_limit()``, and every number finite.
    ``csv.reader`` splits such lines on the delimiter alone, and stripping
    their cells is a no-op.  Every block is checked before any is split."""
    code = ord(delimiter)
    if not (data.isascii() and code < 128 and data.endswith(b"\n")) or any(
            c in data for c in _IRREGULAR if c != delimiter.encode()):
        return None
    bounds = [data.index(b"\n") + 1]  # the header line, which csv.reader has split the same
    while bounds[-1] < len(data):
        end = data.find(b"\n", bounds[-1] + BLOCK_BYTES) + 1 or len(data)
        block = np.frombuffer(data, np.uint8, end - bounds[-1], bounds[-1])
        ends = np.flatnonzero((block == code) | (block == 10))  # where each cell ends
        if not (np.array_equal(block[ends] == 10, np.arange(len(ends)) % ncol == ncol - 1)
                and np.diff(ends, prepend=-1).min() > 1  # no empty cell
                and np.diff(ends[ncol - 1::ncol], prepend=-1).max() <= csv.field_size_limit()):
            return None
        bounds.append(end)
    index, gi, values, score_text = {}, array("q"), [array("d") for _ in picks[1:]], []
    for start, end in zip(bounds, bounds[1:]):
        cells = data[start:end].decode("ascii").replace("\n", delimiter).split(delimiter)
        labels, *numbers = [cells[p:-1:ncol] for p in picks]
        try:
            _append_columns(labels, numbers, index, gi, values, score_text)
        except ValueError:
            return None
    return index, gi, values, score_text


def _raise_first_bad_row(path, rows, line: int, columns, getters, width: int,
                         stop: Exception | None):
    """Walk the parsed ``rows`` of a failed block and raise the
    :class:`DataError` for its first bad row: a cell that is unparseable or
    not finite, named by its physical file line.  ``line`` is the line
    before the block; each row ends 1 line further on, plus 1 per line break
    inside its cells (``\\r\\n``, ``\\n`` or a lone ``\\r``, as the file iterator
    splits lines).  Without a bad row, ``stop`` (the error that ended the
    block's read) is the problem."""
    for row in rows:
        line += 1 + sum(c.count("\n") + c.count("\r") - c.count("\r\n") for c in row)
        if len(row) < width or not all(map(str.strip, cells := [get(row) for get in getters])):
            continue  # a blank or rejected row
        for name, cell in zip(columns[1:], cells[1:]):
            try:
                problem = None if math.isfinite(float(cell)) else "non-finite"
            except ValueError:
                problem = "unparseable"
            if problem:
                raise DataError(f"{path}: {problem} cell at row {line}, "
                                f"column {name!r}: {cell!r}")
    if stop is None:
        raise AssertionError("a failed block holds no bad row")
    raise _unreadable(path, stop) from stop


def _unreadable(path, exc) -> DataError:
    return DataError(f"{path}: not a readable UTF-8 CSV file: {exc}")


def format_floats(values, fmt=repr) -> list[str]:
    """``[fmt(x) for x in values]`` over the flattened array, with ``fmt``
    called once per distinct value.  Values are told apart by their bits,
    so -0.0 and 0.0 are formatted separately."""
    bits = np.ravel(np.asarray(values, dtype=float)).view(np.int64)
    distinct = np.unique(bits)
    text = np.array(list(map(fmt, distinct.view(float).tolist())), dtype=object)
    return text[np.searchsorted(distinct, bits)].tolist()


def csv_cell(text: str) -> str:
    """``text`` as csv's minimal quoting writes it in a comma-delimited row of
    several cells: quoted, its quotes doubled, if it holds a comma, a quote
    or a line break."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def write_csv(path, seed: int, names, rows) -> None:
    """A ``# fairpost <version> master_seed=<seed>`` line, the header of column
    ``names``, then ``rows`` (sequences of cell text, quoted by the caller as
    needed: :func:`csv_cell`) joined by commas, :data:`BLOCK_ROWS` per write."""
    rows = iter(rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# fairpost {__version__} master_seed={seed}\n{','.join(names)}\n")
        while block := list(islice(rows, BLOCK_ROWS)):
            fh.write("\n".join(map(",".join, block)) + "\n")


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
