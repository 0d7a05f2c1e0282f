import contextlib
import csv
import dataclasses
import io
import json
import logging
import os
import tempfile
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csv_oracle import apply_rows, load_csv_rows, random_model
from fairpost import data_io, pipeline
from fairpost.cli import main
from fairpost.data_io import (AffineTransform, DatasetSchema, GroupedSamples, load_csv,
                              split_train_test)
from fairpost.errors import DataError, UnknownGroupError
from fairpost.grid import make_grid
from sample_rows import from_rows


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_toy_csv(tmp_path):
    path = write(tmp_path, "group,score,label\nA,0.1,0.2\nB,0.5,0.4\nA,0.9,0.8\n")
    s = load_csv(path, DatasetSchema())
    assert s.groups == ("A", "B")
    assert s.n == 3
    assert np.allclose(s.scores, [0.1, 0.5, 0.9])
    assert np.allclose(s.labels, [0.2, 0.4, 0.8])
    assert list(s.group_idx) == [0, 1, 0]


def test_groups_collected_in_first_appearance_order(tmp_path):
    path = write(tmp_path, "group,score\nz,0.1\na,0.2\nz,0.3\nm,0.4\n")
    s = load_csv(path, DatasetSchema(label_col=None))
    assert s.groups == ("z", "a", "m")


def test_label_as_score(tmp_path):
    path = write(tmp_path, "group,label\nA,0.25\nB,0.75\n")
    s = load_csv(path, DatasetSchema(score_col=None))
    assert np.allclose(s.scores, [0.25, 0.75])
    assert np.allclose(s.labels, s.scores)


def test_missing_column(tmp_path):
    path = write(tmp_path, "group,points\nA,0.1\n")
    with pytest.raises(DataError, match="missing column"):
        load_csv(path, DatasetSchema(label_col=None))


def test_unparseable_cell_reports_location(tmp_path):
    path = write(tmp_path, "group,score\nA,0.1\nB,oops\n")
    with pytest.raises(DataError, match="row 3"):
        load_csv(path, DatasetSchema(label_col=None))


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity", " nan "])
def test_non_finite_score_rejected_with_location(tmp_path, cell):
    path = write(tmp_path, f"group,score\nA,0.1\nB,{cell}\nA,0.3\n")
    with pytest.raises(DataError, match=r"non-finite cell at row 3, column 'score'"):
        load_csv(path, DatasetSchema(label_col=None))


def test_non_finite_label_rejected_with_location(tmp_path):
    path = write(tmp_path, "group,score,label\nA,0.1,0.2\nB,0.5,0.4\nA,0.9,inf\n")
    with pytest.raises(DataError, match=r"row 4, column 'label'"):
        load_csv(path, DatasetSchema())


def test_first_bad_cell_in_row_order_is_reported(tmp_path):
    path = write(tmp_path, "group,score,label\nA,0.1,x\nB,nan,0.4\n")
    with pytest.raises(DataError, match=r"unparseable cell at row 2, column 'label'"):
        load_csv(path, DatasetSchema())
    path = write(tmp_path, "group,score,label\nA,nan,x\n")
    with pytest.raises(DataError, match=r"non-finite cell at row 2, column 'score'"):
        load_csv(path, DatasetSchema())


def test_short_rows_and_blank_lines(tmp_path):
    # blank lines are skipped, short rows are rejected, and a bad cell is
    # reported at its physical file line
    path = write(tmp_path, "group,score,label\nA,0.1,0.2\n\nB,0.5\nA,0.9,0.8,extra\nB,zz,0.1\n")
    with pytest.raises(DataError, match="row 6"):
        load_csv(path, DatasetSchema())
    path = write(tmp_path, "group,score,label\nA,0.1,0.2\n\nB,0.5\nA,0.9,0.8,extra\n")
    s = load_csv(path, DatasetSchema())
    assert s.n == 2 and np.array_equal(s.labels, [0.2, 0.8])


def test_not_utf8_csv_is_a_data_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("group,score\nÅ,0.1\n".encode("latin-1"))
    with pytest.raises(DataError, match="UTF-8"):
        load_csv(path, DatasetSchema(label_col=None))
    path.write_text("group,score\nA,0.1" + "1" * 200_000 + "\n")  # over the csv field limit
    with pytest.raises(DataError, match="not a readable"):
        load_csv(path, DatasetSchema(label_col=None))


def test_empty_file(tmp_path):
    path = write(tmp_path, "")
    with pytest.raises(DataError):
        load_csv(path, DatasetSchema())


def test_header_only_file(tmp_path):
    path = write(tmp_path, "group,score,label\n")
    with pytest.raises(DataError, match="no usable data rows"):
        load_csv(path, DatasetSchema())


def test_rows_with_empty_cells_rejected(tmp_path):
    path = write(tmp_path, "group,score\nA,0.1\nB,\n,0.5\nA,0.9\n")
    s = load_csv(path, DatasetSchema(label_col=None))
    assert s.n == 2


def test_missing_file():
    with pytest.raises(DataError):
        load_csv("/nonexistent/nowhere.csv", DatasetSchema())


def test_load_csv_returns_raw_units(tmp_path):
    """The declared interval does not rescale what is read; a fitted model
    owns the map onto its grid."""
    path = write(tmp_path, "group,score,label\nA,1.0,1.0\nB,4.0,2.5\n")
    s = load_csv(path, DatasetSchema(interval=(1.0, 4.0)))
    assert s.scores.tolist() == [1.0, 4.0]
    assert s.labels.tolist() == [1.0, 2.5]


@given(st.floats(-100, 100), st.floats(0.5, 50), st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20))
def test_transform_round_trip(offset, scale, ys):
    tr = AffineTransform(offset=offset, scale=scale)
    ys = np.array(ys)
    back = tr.to_raw(tr.to_internal(ys))
    assert np.abs(back - ys).max() <= 1e-12 * max(1.0, np.abs(ys).max())


def test_schema_rejects_duplicate_columns():
    with pytest.raises(ValueError):
        DatasetSchema(group_col="x", score_col="x")


@pytest.mark.parametrize("fields, message", [
    pytest.param({"delimiter": ";;"}, "got ';;'", id="delimiter_two_characters"),
    pytest.param({"delimiter": ""}, "got ''", id="delimiter_empty"),
    pytest.param({"delimiter": 5}, "got 5", id="delimiter_integer"),
    pytest.param({"delimiter": '"'}, "got '\"'", id="delimiter_quote"),
    pytest.param({"delimiter": "\n"}, "got '\\n'", id="delimiter_newline"),
    pytest.param({"delimiter": "\r"}, "got '\\r'", id="delimiter_carriage_return"),
    pytest.param({"group_col": 3}, "column names must be strings, got 3", id="group_integer"),
    pytest.param({"group_col": None}, "column names must be strings, got None", id="group_null"),
    pytest.param({"score_col": 1.5}, "column names must be strings, got 1.5", id="score_float"),
    pytest.param({"label_col": ["y"]}, "column names must be strings, got ['y']",
                 id="label_list"),
])
def test_schema_rejects_unusable_delimiters_and_column_names(fields, message):
    """The delimiter is one character that csv can split on, not a quote or
    a line break; every column name is a string (score and label may be None)."""
    with pytest.raises(ValueError) as exc:
        DatasetSchema(**fields)
    assert message in str(exc.value)
    if "delimiter" in fields:
        assert str(exc.value).startswith("schema delimiter must be one character other than "
                                         "a quote or a line break")


def test_schema_takes_any_other_one_character_delimiter():
    for delimiter in (",", ";", "\t", "|", " ", "\\", "'", "é"):
        assert DatasetSchema(delimiter=delimiter).delimiter == delimiter
    assert DatasetSchema(score_col=None).label_col == "label"


def test_schema_rejects_bad_interval():
    with pytest.raises(ValueError):
        DatasetSchema(interval=(2.0, 2.0))


@pytest.mark.parametrize("s, t", [(2.0, 2.0), (1.0, 0.0), (0.0, np.inf), (-np.inf, 0.0),
                                  (np.nan, 1.0), (0.0, np.nan), (-1e308, 1e308)])
def test_grid_schema_and_transform_share_the_interval_rule(s, t):
    """0 < t - s < inf, stated once in grid.check_interval, holds for a
    grid, a schema's interval and a transform's [offset, offset + scale]."""
    for build in (lambda: make_grid(s, t, 3), lambda: DatasetSchema(interval=(s, t)),
                  lambda: AffineTransform(offset=s, scale=t - s)):
        with pytest.raises(ValueError, match="invalid interval"):
            build()


def test_repeated_group_labels_rejected():
    with pytest.raises(ValueError, match="repeated group labels"):
        GroupedSamples(groups=("A", "A"), group_idx=np.array([0, 1]), scores=np.zeros(2))
    with pytest.raises(ValueError, match="repeated group labels"):
        from_rows([("A", 0.5)], groups=("A", "B", "A"))


def samples_of_size(n, seed=0):
    rng = np.random.default_rng(seed)
    rows = [(f"g{int(rng.integers(0, 3))}", float(rng.random()), float(rng.random()))
            for _ in range(n)]
    return from_rows(rows)


def test_split_sizes():
    train, test = split_train_test(samples_of_size(10), 0.7, seed=1)
    assert train.n == 7 and test.n == 3


def test_split_deterministic():
    s = samples_of_size(40)
    a_train, a_test = split_train_test(s, 0.7, seed=5)
    b_train, b_test = split_train_test(s, 0.7, seed=5)
    assert np.array_equal(a_train.scores, b_train.scores)
    assert np.array_equal(a_test.scores, b_test.scores)


def test_split_is_a_partition():
    s = samples_of_size(31)
    train, test = split_train_test(s, 0.7, seed=9)
    assert train.n + test.n == s.n
    merged = np.sort(np.concatenate([train.scores, test.scores]))
    assert np.array_equal(merged, np.sort(s.scores))


def test_split_preserves_group_universe():
    s = samples_of_size(8, seed=3)
    train, test = split_train_test(s, 0.7, seed=0)
    assert train.groups == s.groups == test.groups


@given(st.integers(1, 200), st.floats(0.05, 0.95), st.integers(0, 1000))
def test_split_ceiling_rule(n, ratio, seed):
    import math
    s = samples_of_size(n, seed=seed % 7)
    train, test = split_train_test(s, ratio, seed=seed)
    assert train.n == math.ceil(ratio * n - 1e-9)
    assert train.n + test.n == n


def test_split_rejects_bad_ratio():
    with pytest.raises(ValueError):
        split_train_test(samples_of_size(5), 0.0, seed=0)
    with pytest.raises(ValueError):
        split_train_test(samples_of_size(5), 1.0, seed=0)


# -- block-wise load_csv against the row-by-row oracle in csv_oracle.py --


class _Records(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def outcome(loader, path, schema):
    """Everything a caller can observe of one load: the samples bit for bit
    (or the DataError text) and the warnings logged."""
    handler = _Records()
    logger = logging.getLogger("fairpost.data_io")
    logger.addHandler(handler)
    try:
        s = loader(path, schema)
        result = ("ok", s.groups, s.group_idx.dtype, s.group_idx.tolist(),
                  s.scores.tobytes(), None if s.labels is None else s.labels.tobytes())
    except DataError as exc:
        result = ("error", str(exc))
    finally:
        logger.removeHandler(handler)
    return result, handler.messages


def apply_outcomes(path, schema):
    """What ``fairpost apply`` does with the file at ``path`` read per
    ``schema``, and what the oracle's :func:`apply_rows` says it must do:
    each as the exit code, the output's text (None if no file is left) and
    the stderr lines but the warnings.  The model has the groups the oracle
    reads, sorted rather than in file order."""
    read = dataclasses.replace(
        schema, label_col=schema.label_col if schema.score_col is None else None)
    try:
        groups = load_csv_rows(path, read)[0].groups
    except DataError:
        groups = ("A",)
    model_path, schema_path, out = (f"{path}.{name}" for name in ("model", "schema", "out"))
    random_model(sorted(groups), 5, len(groups)).save(model_path)
    with open(schema_path, "w", encoding="utf-8") as fh:
        json.dump({"group": schema.group_col, "score": schema.score_col,
                   "label": schema.label_col, "delimiter": schema.delimiter}, fh)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["apply", "--model", model_path, "--data", str(path), "--schema", schema_path,
                     "--seed", "7", "--out", out])
    text = None
    if os.path.exists(out):
        with open(out, encoding="utf-8", newline="") as fh:
            text = fh.read()
        os.remove(out)
    got = (code, text, [line for line in err.getvalue().splitlines()
                        if not line.startswith("warning: ")])
    try:
        expected = (0, apply_rows(path, read, pipeline.load(model_path), 7), [])
    except (DataError, UnknownGroupError) as exc:
        expected = (3, None, [f"data error: {exc}"])
    return got, expected


def load_samples(path, schema):
    return load_csv_rows(path, schema)[0]


def assert_same_as_oracle(path, schema, block_rows=data_io.BLOCK_ROWS):
    """load_csv gives the oracle's samples, errors and warnings, and apply
    writes the oracle's rows (or fails as it does)."""
    expected = outcome(load_samples, path, schema)
    with mock.patch.object(data_io, "BLOCK_ROWS", block_rows):
        got = outcome(load_csv, path, schema)
        applied, oracle = apply_outcomes(path, schema)
    assert got == expected
    assert applied == oracle
    return got


SCHEMAS = {
    "canonical": {},
    "no label": {"label_col": None},
    "label as score": {"score_col": None},
}
GOOD_GROUP = st.sampled_from(["A", "B", " A", "C ", "A,x", "B;y", "two\nlines", "cr\r\nlf",
                              "lone\rcr", 'q"uote', "é"])
GOOD_NUMBER = st.one_of(
    st.floats(-1e6, 1e6).map(repr), st.integers(-3, 3).map(str),
    st.sampled_from(["0.5", " 0.25 ", "-0.0", "1e-320", "+2", "+2e-1", "0.50", "1_0", "\t-0 "]))
BAD_CELL = st.sampled_from(["", "  ", "nan", "NaN", " inf ", "-inf", "1e999", "x", "0.5.5", "1,5"])


@st.composite
def csv_cases(draw):
    """A CSV text and a schema: valid rows with a few bad cells, blank
    lines and short or long rows dropped in anywhere, padded and quoted
    cells, cells holding the delimiter, a quote or a line break (a lone
    carriage return is quoted unless the terminator is a bare newline), and
    either line terminator."""
    delimiter = draw(st.sampled_from([",", ";"]))
    schema = DatasetSchema(delimiter=delimiter, **SCHEMAS[draw(st.sampled_from(sorted(SCHEMAS)))])
    header = draw(st.permutations(["group", "score", "label", "note"]))
    rows = []
    for _ in range(draw(st.integers(0, 40))):
        cells = {"group": draw(GOOD_GROUP), "score": draw(GOOD_NUMBER),
                 "label": draw(GOOD_NUMBER), "note": draw(st.sampled_from(["", "z"]))}
        rows.append([cells[c] for c in header])
    for _ in range(draw(st.integers(0, 3))):
        if rows:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            row[draw(st.integers(0, len(header) - 1))] = draw(BAD_CELL)
    for _ in range(draw(st.integers(0, 4))):
        # a prefix of a row (empty: a blank line), or a row with an extra cell
        cut = draw(st.integers(0, len(header) + 1))
        row = draw(st.sampled_from(rows)) if rows else header
        rows.insert(draw(st.integers(0, len(rows))), (row + ["extra"])[:cut])
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    terminator = draw(st.sampled_from(["\n", "\r\n"]))
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=delimiter, quoting=quoting, lineterminator=terminator)
    writer.writerow(header)
    writer.writerows(rows)  # an empty row is written as a blank line
    return buf.getvalue(), schema


@settings(max_examples=300, deadline=None)
@given(csv_cases(), st.sampled_from([1, 2, 3, 7, data_io.BLOCK_ROWS]))
def test_block_parser_matches_row_oracle(case, block_rows):
    text, schema = case
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/data.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert_same_as_oracle(path, schema, block_rows)


RAW_PIECE = st.sampled_from(["A", "B", "0.5", "0.25", "nan", "x", "1e999", "é", " ", "", ",",
                             ",", "\n", "\r\n", "\r", '"'])


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.lists(RAW_PIECE, max_size=8).map("".join), max_size=25),
       st.sampled_from(sorted(SCHEMAS)), st.sampled_from([1, 3, data_io.BLOCK_ROWS]),
       st.sampled_from([1, 50, data_io.BLOCK_BYTES]), st.sampled_from([b"", b"\xff"]))
def test_raw_text_matches_row_oracle(lines, schema, block_rows, block_bytes, bad_byte):
    """Text no csv writer makes (a quote left open or inside a cell, a lone
    carriage return, a byte that is not UTF-8 near the end) reads as the
    oracle reads it, through either reader."""
    data = "\n".join(["group,score,label", *lines, ""]).encode()
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/data.csv"
        with open(path, "wb") as fh:
            fh.write(data[:-1] + bad_byte + data[-1:])
        with mock.patch.object(data_io, "BLOCK_BYTES", block_bytes):
            assert_same_as_oracle(path, DatasetSchema(**SCHEMAS[schema]), block_rows)


@pytest.mark.parametrize("where", [0, 1, data_io.BLOCK_ROWS - 1, data_io.BLOCK_ROWS,
                                   2 * data_io.BLOCK_ROWS - 1, 2 * data_io.BLOCK_ROWS + 5])
@pytest.mark.parametrize("cell", ["nan", "-inf", "oops"])
@pytest.mark.parametrize("column", [1, 2])
def test_bad_cell_first_and_last_in_a_block(tmp_path, where, cell, column):
    rows = [["AB"[i % 2] + "\nx" * (i % 5 == 0), repr(i / 2048), repr(1 - i / 2048)]
            for i in range(2 * data_io.BLOCK_ROWS + 9)]
    rows[where][column] = cell
    lines = [",".join(f'"{c}"' if "\n" in c else c for c in row) for row in rows]
    lines[3:3] = ["", "B,0.5"]  # a blank line and a short row shift the file line
    path = write(tmp_path, "group,score,label\n" + "\n".join(lines) + "\n")
    got, _ = assert_same_as_oracle(path, DatasetSchema())
    assert got[0] == "error" and repr(cell) in got[1]


@pytest.mark.parametrize("header", ["group,score,score,label", "group,score,label,group",
                                    "label,group,score,label", "group,score,label,note,note",
                                    "group,score,note,label,score"])
@pytest.mark.parametrize("schema", sorted(SCHEMAS))
def test_repeated_header_columns_match_the_oracle(tmp_path, header, schema):
    """A column that load_csv reads may not repeat; one it does not read may."""
    path = write(tmp_path, header + "\n" + "A,0.5,0.25,0.75,0.5\n" * 2)
    got, _ = assert_same_as_oracle(path, DatasetSchema(**SCHEMAS[schema]))
    names = header.split(",")
    read = {"canonical": {"group", "score", "label"}, "no label": {"group", "score"},
            "label as score": {"group", "label"}}[schema]
    repeated = [c for c in names if names.count(c) > 1 and c in read]
    assert got[0] == ("error" if repeated else "ok")
    if repeated:
        assert got[1].endswith(f"column {repeated[0]!r} appears more than once in the header")


OVERSIZE = "A,0." + "1" * 200_000 + ",0.5\n"  # over the csv module's field limit


@pytest.mark.parametrize("body", [
    "A,0.1,nan\n" + OVERSIZE,                     # bad cell, then a csv error in its block
    OVERSIZE + "A,0.1,nan\n",                     # csv error first
    "A,0.1,0.2\n" * 3 + OVERSIZE + "A,0.3,0.4\n",  # csv error after good rows
    "A,0.1,0.2\n" * 3 + "B,nan,0.4\n" + "A,0.1,0.2\n" * 1500 + "\n\nA,zz,0.1\n",
    # a number padded with what str.strip removes but float refuses parses
    # stripped, so the bad cell after it is the one named
    "A,\x1c0.5,0.1\nB,0.25,0.2\nA,abc,0.3\n",
    # a quote never closed runs to the end of the file, whose last line
    # break is inside the cell: the row ends on the file's last line, 4
    'A,0.1,0.2\nB,0.5,"0.1\nA,0.3,0.4\n',
])
def test_first_problem_in_file_order_is_reported(tmp_path, body):
    path = write(tmp_path, "group,score,label\n" + body)
    assert_same_as_oracle(path, DatasetSchema())


@pytest.mark.parametrize("first, problem", [("A,0.1,inf", "non-finite cell at row 2"),
                                            ("A,0.1,0.5", "not a readable UTF-8")])
def test_decoding_error_after_good_rows(tmp_path, first, problem):
    path = tmp_path / "mixed.csv"
    path.write_bytes(f"group,score,label\n{first}\n".encode() + b"A,0.1,0.2\n" * 3000
                     + "Å,0.1,0.2\n".encode("latin-1"))
    got, _ = assert_same_as_oracle(path, DatasetSchema())
    assert problem in got[1]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_bad_cell_in_a_pipe_is_reported(tmp_path):
    # the file is read once: the walk that names a bad row reads the bytes held
    text = "group,score,label\n" + "A,0.1,0.2\n" * (data_io.BLOCK_ROWS + 100) + "B,nan,0.4\n"
    fifo = tmp_path / "pipe.csv"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
    writer.start()
    try:
        with pytest.raises(DataError, match=rf"non-finite cell at row {data_io.BLOCK_ROWS + 102}, "):
            load_csv(fifo, DatasetSchema())
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


# -- the byte-splitting path for regular files, against the same oracle --

REGULAR_GROUP = st.sampled_from(["A", "B", "g7", "x.y", "-"])
REGULAR_NUMBER = st.one_of(
    st.floats(-1e6, 1e6).map(repr), st.integers(-3, 3).map(str),
    st.sampled_from(["-0.0", "1e-320", "+2", "0.50", "1_0", ".5"]))
IRREGULAR = ["quote", "crlf", "padded cell", "empty cell", "blank line", "short row",
             "long row", "short and long row", "oversize line", "non-ascii label",
             "non-finite cell", "unparseable cell", "no final line break", "nul"]
READ = {"canonical": ["group", "score", "label"], "no label": ["group", "score"],
        "label as score": ["group", "label"]}


@st.composite
def regular_cases(draw, perturbation):
    """A CSV text and a schema: a regular file (non-empty ASCII cells with
    no quote or padding, and one line break after each row) with
    ``perturbation`` (None, "bom" or one of IRREGULAR) made to it."""
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    name = draw(st.sampled_from(sorted(SCHEMAS)))
    header = draw(st.permutations(["group", "score", "label", "note"]))
    rows = []
    for _ in range(draw(st.integers(2, 30))):
        cells = {"group": draw(REGULAR_GROUP), "score": draw(REGULAR_NUMBER),
                 "label": draw(REGULAR_NUMBER), "note": draw(st.sampled_from(["y", "z"]))}
        rows.append([cells[c] for c in header])
    i = draw(st.integers(0, len(rows) - 1))
    read = header.index(draw(st.sampled_from(READ[name])))
    number = header.index(draw(st.sampled_from(READ[name][1:])))
    terminator, end = "\n", "\n"
    if perturbation == "quote":
        rows[i][read] = f'"{rows[i][read]}"'
    elif perturbation == "crlf":
        terminator = end = "\r\n"
    elif perturbation == "padded cell":  # a number too, with what str.strip removes
        j = draw(st.integers(0, len(header) - 1))
        pad = draw(st.sampled_from([c for c in " \t\x0b\x0c\x1c\x1f" if c != delimiter]))
        rows[i][j] = draw(st.sampled_from([pad + rows[i][j], rows[i][j] + pad]))
    elif perturbation == "empty cell":  # in a column read or not
        rows[i][draw(st.sampled_from([read, header.index("note")]))] = ""
    elif perturbation == "blank line":
        rows.insert(i, [])
    elif perturbation == "short row":
        rows[i].pop()
    elif perturbation == "long row":
        rows[i].append("extra")
    elif perturbation == "short and long row":  # the file's delimiter count is unchanged
        rows[(i + draw(st.integers(1, len(rows) - 1))) % len(rows)].append(rows[i].pop())
    elif perturbation == "oversize line":
        rows[i][number] = "0." + "1" * 140_000  # over the csv module's field limit
    elif perturbation == "non-ascii label":
        rows[i][header.index("group")] = "é"
    elif perturbation == "non-finite cell":
        rows[i][number] = draw(st.sampled_from(["nan", "inf", "-Infinity", "1e999"]))
    elif perturbation == "unparseable cell":
        rows[i][number] = draw(st.sampled_from(["x", "0.5.5", "0x1"]))
    elif perturbation == "no final line break":
        end = ""
    elif perturbation == "nul":
        rows[i][header.index("note")] = "\0"
    text = terminator.join(delimiter.join(row) for row in [header, *rows]) + end
    if perturbation == "bom":  # as Excel's "CSV UTF-8" starts: the file stays regular
        text = "\ufeff" + text
    return text, DatasetSchema(delimiter=delimiter, **SCHEMAS[name])


@pytest.mark.parametrize("perturbation", [None, "bom", *IRREGULAR])
@settings(max_examples=30, deadline=None)
@given(data=st.data(), block_bytes=st.sampled_from([1, 100, data_io.BLOCK_BYTES]))
def test_regular_files_are_split_as_the_oracle_reads_them(perturbation, data, block_bytes):
    """A regular file, with or without a leading byte-order mark, takes the
    byte-splitting path and gives what the row oracle gives; a file with any
    one perturbation is declined, and the csv path gives what the oracle
    gives.  Only a run that fails walks the file again to name its error."""
    text, schema = data.draw(regular_cases(perturbation))
    bounds, csv_blocks, first_bad_row = (
        data_io._regular_bounds, data_io._csv_blocks, data_io._first_bad_row)
    regular, csv_read, walked = [], [], []

    def bounds_spy(*args):
        found = bounds(*args)
        regular.append(found is not None)
        return found

    def csv_spy(*args):  # runs once the csv path's first block is asked for
        csv_read.append(True)
        yield from csv_blocks(*args)

    def walk_spy(*args):
        walked.append(True)
        return first_bad_row(*args)

    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/data.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with mock.patch.object(data_io, "_regular_bounds", bounds_spy), \
                mock.patch.object(data_io, "_csv_blocks", csv_spy), \
                mock.patch.object(data_io, "_first_bad_row", walk_spy), \
                mock.patch.object(data_io, "BLOCK_BYTES", block_bytes):
            got = outcome(load_csv, path, schema)
            loads = (regular[:], csv_read[:], walked[:])
            del regular[:], csv_read[:], walked[:]
            applied, oracle = apply_outcomes(path, schema)
        assert got == outcome(load_samples, path, schema)
        assert applied == oracle
    # a bad number passes the block checks, and the walk finds it
    declined = perturbation not in (None, "bom", "non-finite cell", "unparseable cell")
    # each run reads the file once: the csv path runs exactly for a declined
    # file, and the walk exactly when the run fails
    for (read_regular, read_csv, walk), failed in [(loads, got[0][0] == "error"),
                                                   ((regular, csv_read, walked), applied[0] != 0)]:
        assert read_regular == [not declined] and read_csv == ([True] if declined else [])
        assert walk == ([True] if failed else [])


def test_delimiters_are_counted_per_line(tmp_path):
    """A long line and a short one hold as many delimiters as two good lines,
    but the file is not regular: load_csv reads the long line's first two
    cells and rejects the short line, as the oracle does."""
    path = write(tmp_path, "group,score\nA,0.5,0.25\n0.75\nB,0.1\n")
    got, warnings = assert_same_as_oracle(path, DatasetSchema(label_col=None))
    assert got[1] == ("A", "B") and warnings[0].endswith("rejected 1 row(s) with empty cells")


@pytest.mark.parametrize("crlf", [False, True], ids=["regular", "crlf"])
def test_blocks_before_a_bad_number_are_yielded_once(tmp_path, crlf):
    """read_blocks yields a prefix of the file's rows, each once, then
    raises at the bad number; the byte splitter's rows are not read again."""
    end = "\r\n" if crlf else "\n"
    rows = [f"{'AB'[i % 2]},{i / 64!r}" for i in range(60)]
    rows[45] = "A,0.5.5"
    path = write(tmp_path, end.join(["group,score", *rows]) + end)
    scores = []
    with mock.patch.multiple(data_io, BLOCK_BYTES=100, BLOCK_ROWS=7), \
            pytest.raises(DataError, match="unparseable cell at row 47, column 'score'"):
        for block in data_io.read_blocks(path, DatasetSchema(label_col=None)):
            scores += block.score_text
    assert 0 < len(scores) <= 45 and scores == [repr(i / 64) for i in range(len(scores))]
