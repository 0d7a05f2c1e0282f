"""Row-by-row CSV parser: the reference for ``fairpost.data_io.load_csv``.

``load_csv_rows`` takes one row at a time from ``csv.reader`` and applies
every check to that row before it reads the next, so its samples, the
stripped text of its score cells, its rejected-row warning and the text of
each ``DataError`` are what the block-wise parser in the package must
reproduce.  A number is parsed from its stripped cell, and one leading
byte-order mark is dropped, as the ``utf-8-sig`` codec drops it.  It lives
with the tests because nothing in the package needs it.
"""

import csv
import logging
import math
import operator
from array import array

import numpy as np

from fairpost.data_io import DatasetSchema, GroupedSamples
from fairpost.errors import DataError

log = logging.getLogger("fairpost.data_io")


def load_csv_rows(path, schema: DatasetSchema) -> GroupedSamples:
    score_col = schema.score_col if schema.score_col is not None else schema.label_col
    columns = [schema.group_col, score_col]
    if schema.label_col is not None:
        columns.append(schema.label_col)
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    groups: list = []
    index: dict = {}
    gi, scores, labels, score_text = [], array("d"), array("d"), []
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
            if repeated := [c for c in columns if header.count(c) > 1]:
                raise DataError(f"{path}: column {repeated[0]!r} appears more than once "
                                "in the header")
            pick = operator.itemgetter(*(position[c] for c in columns))
            width = 1 + max(position[c] for c in columns)
            for row in reader:
                if not row:  # blank lines are skipped, as csv.DictReader does
                    continue
                if len(row) < width or not all(map(str.strip, cells := pick(row))):
                    rejected += 1  # a declared cell is missing or empty
                    continue
                try:
                    values = list(map(float, map(str.strip, cells[1:])))
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
                score_text.append(cells[1].strip())
                if schema.label_col is not None:
                    labels.append(values[-1])
        except (csv.Error, UnicodeDecodeError) as exc:
            raise DataError(f"{path}: not a readable UTF-8 CSV file: {exc}") from exc

    if not scores:
        raise DataError(f"{path}: no usable data rows")
    if rejected:
        log.warning("%s: rejected %d row(s) with empty cells", path, rejected)

    return GroupedSamples(
        groups=tuple(groups),
        group_idx=np.array(gi, dtype=np.intp),
        scores=np.frombuffer(scores),
        labels=None if schema.label_col is None else np.frombuffer(labels),
        score_text=np.array(score_text, dtype=object),
    )


def _bad_cell(path, lineno: int, named_cells) -> DataError:
    for name, cell in named_cells:
        try:
            problem = None if math.isfinite(float(cell.strip())) else "non-finite"
        except ValueError:
            problem = "unparseable"
        if problem:
            return DataError(f"{path}: {problem} cell at row {lineno}, column {name!r}: {cell!r}")
    raise AssertionError("no bad cell in the row")
