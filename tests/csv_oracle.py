"""Row-by-row CSV parser: the reference for ``fairpost.data_io.load_csv``
and for the file ``fairpost apply`` writes.

``load_csv_rows`` takes one row at a time from ``csv.reader`` and applies
every check to that row before it reads the next, so its samples, the
stripped text of its score cells, its rejected-row warning and the text of
each ``DataError`` are what the block-wise parser in the package must
reproduce.  A number is parsed from its stripped cell, and one leading
byte-order mark is dropped, as the ``utf-8-sig`` codec drops it.
``apply_rows`` writes its rows as ``apply`` must, one ``csv.writer`` row
each.  They live with the tests because nothing in the package needs them.
"""

import csv
import io
import logging
import math
import operator
from array import array

import numpy as np

from fairpost import __version__
from fairpost.data_io import DatasetSchema, GroupedSamples
from fairpost.errors import DataError
from fairpost.grid import make_grid
from fairpost.pipeline import FairPostprocessor

log = logging.getLogger("fairpost.data_io")


def load_csv_rows(path, schema: DatasetSchema) -> tuple[GroupedSamples, list]:
    """The file's samples and the stripped text of its score cells."""
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
    ), score_text


def apply_rows(path, schema: DatasetSchema, model, seed: int, mode: str = "sample") -> str:
    """The text that ``apply --seed seed --mode mode`` writes for the file
    at ``path``, read with ``schema`` (the label column only when it is the
    score): the metadata line, the header, then per row the group label as
    ``csv.writer`` quotes it in a CSV file, the score cell's stripped text and the
    ``repr`` of its prediction by ``predict_batch``.  Raises what the load
    or the prediction raises."""
    samples, score_text = load_csv_rows(path, schema)
    preds = model.predict_batch(samples.groups, samples.group_idx, samples.scores,
                                np.random.default_rng(seed), mode=mode)
    rows = []
    for row in zip([samples.groups[i] for i in samples.group_idx.tolist()], score_text,
                   map(repr, preds.tolist())):
        buf = io.StringIO()
        csv.writer(buf).writerow(row)  # its "\r\n" line end quotes a lone "\r" too
        rows.append(buf.getvalue()[:-2] + "\n")
    return (f"# fairpost {__version__} master_seed={seed}\ngroup,score,prediction\n"
            + "".join(rows))


def random_model(groups, k: int, seed: int) -> FairPostprocessor:
    """A model of ``groups`` on [0, 1] with random kernels, for ``apply``
    and :func:`apply_rows` to run: nothing about it is fitted."""
    rng = np.random.default_rng(seed)
    kernels = rng.random((len(groups), k, k)) ** 4  # some entries near 0
    flat = np.full((len(groups), k), 1.0 / k)
    return FairPostprocessor(
        grid=make_grid(0.0, 1.0, k), groups=tuple(groups),
        kernels=kernels / kernels.sum(axis=2, keepdims=True), alpha=0.1, epsilon=math.inf,
        weights=np.full(len(groups), 1.0 / len(groups)), pmfs=flat, targets=flat,
        barycenter=flat[0], objective=0.0)


def _bad_cell(path, lineno: int, named_cells) -> DataError:
    for name, cell in named_cells:
        try:
            problem = None if math.isfinite(float(cell.strip())) else "non-finite"
        except ValueError:
            problem = "unparseable"
        if problem:
            return DataError(f"{path}: {problem} cell at row {lineno}, column {name!r}: {cell!r}")
    raise AssertionError("no bad cell in the row")
