"""``apply`` reads, predicts and writes one block at a time: its bytes do not
depend on where the blocks are cut, its draws are one stream, a failure
leaves no output behind, errors keep their file-wide row numbers, and its
memory does not hold the file's columns."""

import builtins
import errno
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from csv_oracle import apply_rows, random_model
from fairpost import data_io
from fairpost.cli import main
from fairpost.data_io import DatasetSchema
from fairpost.pipeline import load

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
N = 3000  # rows: several blocks at the default sizes


def write_data(path, n=N, seed=0, newline="\n"):
    """Four groups' scores in [-0.1, 1.1], so that some lie outside [0, 1]."""
    rng = np.random.default_rng(seed)
    groups = rng.integers(0, 4, n).tolist()
    scores = (rng.random(n) * 1.2 - 0.1).tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("group,score,label" + newline)
        fh.writelines(f"{'ABCD'[g]},{y!r},0.5{newline}" for g, y in zip(groups, scores))
    return path


@pytest.fixture
def model(tmp_path):
    path = tmp_path / "model.json"
    random_model(("D", "C", "B", "A"), 12, 0).save(path)
    return path


def apply(model, data, out, *extra):
    return main(["apply", "--model", str(model), "--data", str(data), "--out", str(out),
                 *map(str, extra)])


STDIN_APPLY = """
import sys
from unittest import mock
from fairpost import cli, data_io
with mock.patch.object(data_io, "BLOCK_BYTES", int(sys.argv[1])), \\
        mock.patch.object(data_io, "BLOCK_ROWS", int(sys.argv[2])):
    sys.exit(cli.main(sys.argv[3:]))
"""


@pytest.mark.parametrize("mode", ["sample", "barycentric"])
@pytest.mark.parametrize("source", ["regular", "crlf", "stdin"])
@pytest.mark.parametrize("block", [1, 100, None], ids=["1", "100", "default"])
def test_apply_bytes_do_not_depend_on_the_blocks(tmp_path, model, mode, source, block):
    """Cut into blocks of one line, of 100 bytes or rows, or of the default
    sizes, a regular file (the byte splitter), its CRLF copy (csv.reader)
    and standard input give the row-by-row reference's bytes."""
    data = write_data(tmp_path / "data.csv", newline="\r\n" if source == "crlf" else "\n")
    out = tmp_path / "out.csv"
    sizes = {"BLOCK_BYTES": block or data_io.BLOCK_BYTES,
             "BLOCK_ROWS": block or data_io.BLOCK_ROWS}
    argv = ["--mode", mode, "--seed", 5]
    if source == "stdin":
        with open(data, "rb") as fh:
            done = subprocess.run(
                [sys.executable, "-c", STDIN_APPLY, str(sizes["BLOCK_BYTES"]),
                 str(sizes["BLOCK_ROWS"]), "apply",
                 "--model", str(model), "--data", "/dev/stdin", "--out", str(out),
                 *map(str, argv)],
                stdin=fh, capture_output=True, env=dict(os.environ, PYTHONPATH=SRC), check=False)
        assert done.returncode == 0, done.stderr
    else:
        with mock.patch.multiple(data_io, **sizes):
            assert apply(model, data, out, *argv) == 0
    expected = apply_rows(data, DatasetSchema(label_col=None), load(model), 5, mode)
    assert out.read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("block", [1, 100, None], ids=["1", "100", "default"])
def test_apply_draws_one_stream(tmp_path, model, block):
    """Drawn block by block, the uniforms are those of one random(n) call,
    and the Generator ends where that call leaves it."""
    data = write_data(tmp_path / "data.csv")
    generators = []

    def recording(seed):
        generators.append(np.random.Generator(np.random.PCG64(seed)))
        return generators[-1]

    with mock.patch.object(np.random, "default_rng", recording), \
            mock.patch.object(data_io, "BLOCK_BYTES", block or data_io.BLOCK_BYTES):
        assert apply(model, data, tmp_path / "out.csv", "--seed", 9) == 0
    once = np.random.default_rng(9)
    once.random(N)
    assert [g.bit_generator.state for g in generators] == [once.bit_generator.state]


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["regular", "crlf"])
@pytest.mark.parametrize("fault", ["bad score", "unknown group", "no rows"])
def test_a_failed_apply_leaves_an_existing_out_as_it_was(tmp_path, model, capsys, newline,
                                                         fault):
    """The output is written to a temporary file beside --out and moved onto
    it only after the last block: a failure in the last block leaves the
    old --out byte for byte, and no temporary file."""
    data = write_data(tmp_path / "data.csv", newline=newline)
    out = tmp_path / "out.csv"
    assert apply(model, data, out) == 0
    before = out.read_bytes()
    lines = data.read_bytes().split(newline.encode())
    if fault == "bad score":
        lines[-2] = lines[-2].replace(b",", b",x", 1)
    elif fault == "unknown group":
        lines[-2] = b"Z" + lines[-2][1:]
    else:
        lines = [lines[0], b""]
    bad = tmp_path / "bad.csv"
    bad.write_bytes(newline.encode().join(lines))
    capsys.readouterr()
    assert apply(model, bad, out) == 3
    assert capsys.readouterr().err.splitlines()[-1].startswith("data error: ")
    assert out.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["bad.csv", "data.csv", "model.json", "out.csv"]


def test_a_write_that_fails_part_way_leaves_an_existing_out_as_it_was(tmp_path, model, capsys):
    """A full disk after the first few kilobytes is a config error naming
    --out, and the old --out is left byte for byte, with no temporary file."""
    data = write_data(tmp_path / "data.csv")
    out = tmp_path / "out.csv"
    assert apply(model, data, out) == 0
    before = out.read_bytes()
    real_open = builtins.open

    def full_disk_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "w" in mode:
            room, write = [4096], fh.write

            def filling(text):
                room[0] -= len(text)
                if room[0] < 0:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return write(text)

            fh.write = filling
        return fh

    capsys.readouterr()
    with mock.patch.object(builtins, "open", full_disk_open):
        assert apply(model, data, out, "--seed", 3) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith(f"config error: cannot write {out}: ")
    assert out.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["data.csv", "model.json", "out.csv"]


def test_a_data_error_after_an_unknown_group_comes_first(tmp_path, model, capsys):
    """An unknown group in the first block stops the predictions, not the
    reading: a bad cell in a later block is still the error reported."""
    data = write_data(tmp_path / "data.csv")
    lines = data.read_text().splitlines()
    lines[3] = "Z,0.5,0.5"
    lines[2900] = "A,0.5.5,0.5"
    data.write_text("\n".join(lines) + "\n")
    assert apply(model, data, tmp_path / "out.csv") == 3
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"data error: {data}: unparseable cell at row 2901, column 'score': '0.5.5'")


@pytest.mark.parametrize("row", [0, 1, 2500])
def test_an_unknown_group_names_its_row_in_the_file(tmp_path, model, capsys, row):
    """Rows are numbered across blocks, and a rejected row is not counted;
    the rejected-row warning comes once the whole file has been read."""
    data = write_data(tmp_path / "data.csv")
    lines = data.read_text().splitlines()
    lines[row + 1] = "Z" + lines[row + 1][1:]
    lines.insert(1, "A,,0.5")  # rejected: an empty score
    data.write_text("\n".join(lines) + "\n")
    assert apply(model, data, tmp_path / "out.csv") == 3
    err = capsys.readouterr().err.splitlines()
    assert err[-2:] == [f"warning: {data}: rejected 1 row(s) with empty cells",
                        f"data error: row {row}: group 'Z' was not present at fit time"]


def test_the_out_of_range_warning_names_the_first_such_score(tmp_path, model, capsys):
    """Once, for the first score outside the fitted interval in file order,
    and before the rejected-row warning, which waits for the file's end."""
    rng = np.random.default_rng(1)
    scores = rng.random(N).tolist()
    scores[2500], scores[2800] = 1.25, -0.5
    data = tmp_path / "data.csv"
    data.write_text("group,score\nA,\n" + "".join(f"{'ABCD'[i % 4]},{y!r}\n"
                                                   for i, y in enumerate(scores)))
    assert apply(model, data, tmp_path / "out.csv") == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: score 1.25 outside fitted interval [0, 1]; clamping",
        f"warning: {data}: rejected 1 row(s) with empty cells"]


def test_apply_holds_the_file_and_about_one_block(tmp_path, model):
    """Its traced peak stays below the file's size plus 2 MB on 100,000 rows
    of four Beta groups: no column of the whole file is built."""
    rng = np.random.default_rng(2)
    sizes = (40_000, 30_000, 20_000, 10_000)
    groups = np.repeat(np.arange(4), sizes)
    scores = np.concatenate([rng.beta(a, b, n) for (a, b), n in
                             zip(((2, 5), (5, 2), (2, 2), (0.7, 0.9)), sizes)])
    perm = rng.permutation(len(groups))
    data = tmp_path / "data.csv"
    with open(data, "w", encoding="utf-8") as fh:
        fh.write("group,score,label\n")
        fh.writelines(f"{'ABCD'[g]},{y!r},{y!r}\n"
                      for g, y in zip(groups[perm].tolist(), scores[perm].tolist()))
    tracemalloc.start()
    try:
        assert apply(model, data, tmp_path / "out.csv") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < os.path.getsize(data) + 2 * 2**20
