"""CSV ingestion, schema mapping, and train/test splitting.

The canonical on-disk format is a delimited text file with a header row and
UTF-8 encoding.  Canonical columns: ``group`` (string), ``score`` (decimal),
``label`` (decimal, optional).  Raw-dataset feature handling lives in the
checked-in recipes under ``scripts/``; the library only consumes the
canonical layout (or any layout described by a :class:`DatasetSchema`).
Columns are returned in the units they were read in; a fitted model maps
them onto its unit grid with the :class:`AffineTransform` it stores.

Text I/O works on blocks, not on one row at a time.  :func:`read_blocks`
reads the file once as bytes and yields its rows a block at a time: a
regular file is cut into blocks of lines on its line breaks, and each block
split on its delimiter (:func:`_split_regular`); any other, and so every
file with an error, goes to ``csv.reader``, whose rows are checked and
parsed a block at a time, and the rows of a block that fails a check are
walked again one by one only to name its first bad row.  A block holds
the stripped text of its score cells beside the parsed scores, so that
``apply`` writes every score as it was read without formatting a float;
:func:`load_csv` joins the blocks into columns for the commands that need
the whole file.  :func:`write_csv` writes every CSV file the commands
produce but ``apply``'s, which starts with its :func:`csv_preamble`, and
:func:`format_floats` renders a float column for them with one call of the
formatter per distinct value.
"""

from __future__ import annotations

import codecs
import csv
import io
import logging
import math
import operator
from dataclasses import dataclass
from itertools import compress, islice
from typing import Iterator, NamedTuple

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
    Scores and labels are in raw units.
    """

    groups: tuple
    group_idx: np.ndarray
    scores: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        if len(self.group_idx) != len(self.scores):
            raise ValueError("group_idx and scores length mismatch")
        if self.labels is not None and len(self.labels) != len(self.scores):
            raise ValueError("labels length mismatch")
        if len(set(self.groups)) != len(self.groups):
            raise ValueError(f"repeated group labels in {list(self.groups)}")
        if len(self.group_idx) and not (
            self.group_idx.min() >= 0 and self.group_idx.max() < len(self.groups)
        ):
            raise ValueError("group_idx out of range")

    @property
    def n(self) -> int:
        return len(self.scores)

    def subset(self, idx: np.ndarray) -> "GroupedSamples":
        """Row subset; the group-label universe is preserved."""
        return GroupedSamples(
            groups=self.groups,
            group_idx=self.group_idx[idx],
            scores=self.scores[idx],
            labels=None if self.labels is None else self.labels[idx],
        )


class Block(NamedTuple):
    """The kept rows of one block of a file, as :func:`read_blocks` yields
    them: each row's group label, each number column read (the score's
    first) parsed and finite, and the score cells' text, stripped."""

    labels: list
    numbers: list
    score_text: list


def read_blocks(path, schema: DatasetSchema) -> Iterator[Block]:
    """The rows of a delimited file per ``schema``, in blocks of kept rows.

    Rows with an empty cell in any declared column are rejected (and
    counted); a non-empty cell that fails to parse, or parses to nan or
    inf, is an error.  Raises :class:`DataError` for a missing file,
    missing columns, a column it reads named twice in the header,
    unparseable or non-finite cells, a file that is not UTF-8 CSV, or an
    empty result.

    The file is read, its header checked and, for a regular file, every
    check of :func:`_regular_bounds` made before this returns; an error in
    the rows is raised by the iterator at the block that holds it, and the
    rejected-row warning is logged after the last block.  Unless the file
    is regular, rows are taken from ``csv.reader`` in blocks of
    :data:`BLOCK_ROWS`, and each check runs over a whole column of a block.
    The parsed rows of a block that fails a check are walked again one by
    one, so the error names the same physical line and cell as a
    row-at-a-time parser would.  The file is read once, so a pipe works as
    well as a regular file.
    """
    score_col = schema.score_col if schema.score_col is not None else schema.label_col
    # the group column, then each numeric column once: a label column that
    # doubles as the score is parsed once
    columns = list(dict.fromkeys(c for c in (schema.group_col, score_col, schema.label_col)
                                 if c is not None))
    try:
        with open(path, "rb") as fh:
            data = fh.read().removeprefix(codecs.BOM_UTF8)  # as Excel's "CSV UTF-8" starts
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
    picks = [position[c] for c in columns]
    blocks = _csv_blocks(path, reader, columns, picks)
    bounds = _regular_bounds(data, schema.delimiter, len(header))
    if bounds is not None:
        blocks = _split_regular(data, bounds, schema.delimiter, len(header), picks, blocks)
    return _counted(path, blocks)


def _counted(path, blocks) -> Iterator[Block]:
    """The nonempty blocks of ``blocks``, pairs of a rejected-row count and
    a :class:`Block`; the count is logged, or the lack of any kept row
    raised, after the last."""
    kept = rejected = 0
    for dropped, block in blocks:
        rejected += dropped
        if block.labels:
            kept += len(block.labels)
            yield block
    if not kept:
        raise DataError(f"{path}: no usable data rows")
    if rejected:
        log.warning("%s: rejected %d row(s) with empty cells", path, rejected)


def load_csv(path, schema: DatasetSchema) -> GroupedSamples:
    """The rows of :func:`read_blocks` as one :class:`GroupedSamples`, the
    group labels indexed in first-appearance order."""
    index, gis, numbers = {}, [], []
    for block in read_blocks(path, schema):
        gis.append(index_labels(index, block.labels))
        numbers.append(block.numbers)
    values = [np.concatenate(column) for column in zip(*numbers)]
    return GroupedSamples(groups=tuple(index), group_idx=np.concatenate(gis), scores=values[0],
                          labels=None if schema.label_col is None else values[-1])


def index_labels(index: dict, labels) -> np.ndarray:
    """Each of ``labels``' index in ``index``, to which the labels it lacks
    are added in first-appearance order."""
    if not index.keys() >= set(labels):
        for g in dict.fromkeys(labels):
            index.setdefault(g, len(index))
    return np.fromiter(map(index.__getitem__, labels), np.intp, len(labels))


def _block(labels, numbers) -> Block:
    """The :class:`Block` of kept rows with these cells, ``numbers`` parsed;
    raises ``ValueError`` for a bad number."""
    values = [np.fromiter(map(float, cells), float, len(cells)) for cells in numbers]
    if not all(np.isfinite(column).all() for column in values):
        raise ValueError("non-finite cell")
    return Block(labels, values, numbers[0])


def _csv_blocks(path, reader, columns, picks):
    """``csv.reader``'s rows, :data:`BLOCK_ROWS` at a time, as pairs of a
    rejected-row count and a :class:`Block`, the cells at ``picks`` (the
    group's position, then each number's).  The first bad row of a block,
    or the error that ended its read, is raised as a :class:`DataError`
    (:func:`_raise_first_bad_row`)."""
    getters = [operator.itemgetter(p) for p in picks]
    width = 1 + max(picks)
    line = reader.line_num
    while True:
        rows, stop = [], None
        try:
            rows.extend(islice(reader, BLOCK_ROWS))
        except (csv.Error, UnicodeDecodeError) as exc:
            stop = exc  # raised once the rows read before it pass
        if not rows and stop is None:
            return
        try:
            parsed = _parse_block(rows, getters, width)
        except ValueError:
            parsed = None
        if parsed is None or stop is not None:
            _raise_first_bad_row(path, rows, line, columns, getters, width, stop)
        line = reader.line_num
        yield parsed


def _parse_block(rows, getters, width: int) -> tuple[int, Block]:
    """A block's count of rejected rows and its :class:`Block` of kept rows,
    the cells picked by ``getters``: the group's, then each number's, the
    score first."""
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
    return rejected, _block(labels, numbers)


def _regular_bounds(data: bytes, delimiter: str, ncol: int) -> list[int] | None:
    """Where the blocks of ``data``, a file of ``ncol`` columns, start, and
    where the last ends: after the header line, then at the first line end
    :data:`BLOCK_BYTES` or more further on.  None unless the file is
    regular: ASCII ending in a line break, none of :data:`_IRREGULAR` but
    the delimiter, ``ncol - 1`` delimiters and no empty cell on each line,
    and no line over ``csv.field_size_limit()``.  ``csv.reader`` splits
    such lines on the delimiter alone, and stripping their cells is a
    no-op.  Every block is checked before this returns."""
    code = ord(delimiter)
    if not (data.isascii() and code < 128 and data.endswith(b"\n")) or any(
            c in data for c in _IRREGULAR if c != delimiter.encode()):
        return None
    bounds = [data.index(b"\n") + 1]  # the header line, which csv.reader has split the same
    while bounds[-1] < len(data):
        end = data.find(b"\n", bounds[-1] + BLOCK_BYTES) + 1 or len(data)
        block = np.frombuffer(data, np.uint8, end - bounds[-1], bounds[-1])
        ends = np.flatnonzero((block == code) | (block == 10))  # where each cell ends
        lines = ends[ncol - 1::ncol]  # where each line ends, if every ncol-th cell end does
        if not (len(ends) % ncol == 0 and (block[lines] == 10).all()
                and np.count_nonzero(block == 10) == len(lines)
                and np.diff(ends, prepend=-1).min() > 1  # no empty cell
                and np.diff(lines, prepend=-1).max() <= csv.field_size_limit()):
            return None
        bounds.append(end)
    return bounds


def _split_regular(data: bytes, bounds, delimiter: str, ncol: int, picks, csv_blocks):
    """The blocks of the regular file ``data`` between ``bounds``
    (:func:`_regular_bounds`), as :func:`_csv_blocks` pairs them, each line
    split on the delimiter.  A number that does not parse or is not finite
    is found again by ``csv_blocks``, which raises its error and yields
    nothing, since the rows before it have been yielded here."""
    for start, end in zip(bounds, bounds[1:]):
        cells = data[start:end].decode("ascii").replace("\n", delimiter).split(delimiter)
        labels, *numbers = [cells[p:-1:ncol] for p in picks]
        try:
            block = _block(labels, numbers)
        except ValueError:
            for _ in csv_blocks:
                pass
            raise AssertionError("csv.reader finds no bad number in a regular file") from None
        yield 0, block


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
            try:  # parsed stripped, as _parse_block parses it
                problem = None if math.isfinite(float(cell.strip())) else "non-finite"
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


def csv_preamble(seed: int, names) -> str:
    """The ``# fairpost <version> master_seed=<seed>`` line and the header of
    column ``names`` that every CSV file the commands write starts with."""
    return f"# fairpost {__version__} master_seed={seed}\n{','.join(names)}\n"


def write_csv(path, seed: int, names, rows) -> None:
    """:func:`csv_preamble`, then ``rows`` (sequences of cell text, quoted by
    the caller as needed: :func:`csv_cell`) joined by commas,
    :data:`BLOCK_ROWS` per write."""
    rows = iter(rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(csv_preamble(seed, names))
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
