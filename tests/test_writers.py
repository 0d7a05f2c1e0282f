"""The block writers spell every value exactly as the per-value reference:
``f"{g},{y},{p!r}"`` per row for ``apply``, with ``y`` the score's cell
text as read, and ``format(x, ".17g")`` per entry for the model document.
Every CSV file that ``write_csv`` writes reads back through ``csv.reader``
to its header and cells."""

import csv
import io
import itertools
import json
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csv_oracle import random_model
from fairpost import __version__, data_io
from fairpost.cli import main
from fairpost.data_io import BLOCK_BYTES, BLOCK_ROWS, DatasetSchema, format_floats, load_csv
from fairpost.pipeline import estimate, fit, load
from fairpost.sweep import SweepRow, aggregate, lower_envelope, write_outputs
from sample_rows import from_rows


def reference_apply(groups, score_text, preds, seed) -> str:
    """The apply output with each score's text and one ``repr`` per prediction."""
    return (f"# fairpost {__version__} master_seed={seed}\ngroup,score,prediction\n"
            + "".join(f"{g},{y},{p!r}\n" for g, y, p in zip(groups, score_text, preds)))


def group_labels(samples) -> list:
    return [samples.groups[i] for i in samples.group_idx.tolist()]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0, 1, 2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3]),
       st.sampled_from([("A", "B"), ("A", "b c", "é")]), st.sampled_from([1, 3, 8]),
       st.sampled_from(["sample", "barycentric"]), st.sampled_from([1, 100, BLOCK_BYTES]),
       st.integers(0, 2**32 - 1))
def test_apply_writer_matches_per_row_reference(n, labels, k, mode, block_bytes, seed):
    """apply's bytes are the per-row reference's whatever the blocks: plain
    labels take the byte splitter, a padded or non-ASCII one csv.reader.
    Predictions repeat a few values (k midpoints in sample mode, G x k row
    means in barycentric mode); scores are mostly distinct, some -0.0 and
    some outside the fitted interval."""
    rng = np.random.default_rng(seed)
    scores = rng.random(n) * 1.2 - 0.1
    scores[rng.random(n) < 0.1] = -0.0
    text = [repr(y) for y in scores.tolist()]
    group_idx = rng.integers(0, len(labels), n)
    groups = [labels[i] for i in group_idx.tolist()]
    with tempfile.TemporaryDirectory() as tmp:
        data, model_path, out = (os.path.join(tmp, name) for name in ("d.csv", "m.json", "p.csv"))
        with open(data, "w", encoding="utf-8") as fh:
            fh.write("group,score\n" + "".join(f"{g},{y}\n" for g, y in zip(groups, text)))
        random_model(labels, k, seed).save(model_path)
        with mock.patch.object(data_io, "BLOCK_BYTES", block_bytes):
            code = main(["apply", "--model", model_path, "--data", data, "--mode", mode,
                         "--seed", str(seed), "--out", out])
        if n == 0:  # no usable rows
            assert code == 3 and not os.path.exists(out)
            return
        assert code == 0
        with open(out, encoding="utf-8", newline="") as fh:
            written = fh.read()
        preds = load(model_path).predict_batch(labels, group_idx, scores,
                                               np.random.default_rng(seed), mode)
    assert written == reference_apply(groups, text, preds.tolist(), seed)


def read_back(path) -> tuple[str, list, list]:
    """A written file's metadata line, header and rows, through csv.reader."""
    with open(path, encoding="utf-8", newline="") as fh:
        meta = fh.readline()
        header, *rows = csv.reader(fh)
    return meta, header, rows


# labels as load_csv reads them: nonempty, stripped, and any of them may
# hold the delimiter, a quote or a line break
LABEL = st.text(st.sampled_from('aB é,"\n\r;'), min_size=1, max_size=6).map(str.strip).filter(bool)


@settings(max_examples=25, deadline=None)
@given(st.lists(LABEL, min_size=1, max_size=4, unique=True), st.integers(1, 30),
       st.integers(0, 2**32 - 1))
def test_apply_output_reads_back_to_its_labels_and_cells(labels, n, seed):
    rng = np.random.default_rng(seed)
    groups = [labels[i % len(labels)] for i in range(n)]
    cells = [repr(y) for y in rng.random(n).tolist()]
    with tempfile.TemporaryDirectory() as tmp:
        data, model, out = (os.path.join(tmp, name) for name in ("d.csv", "m.json", "p.csv"))
        with open(data, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([("group", "score"), *zip(groups, cells)])
        assert main(["fit", "--data", data, "--k", "3", "--alpha", "0.1", "--epsilon", "inf",
                     "--out", model]) == 0
        assert main(["apply", "--model", model, "--data", data, "--seed", str(seed % 1000),
                     "--out", out]) == 0
        meta, header, rows = read_back(out)
    assert meta == f"# fairpost {__version__} master_seed={seed % 1000}\n"
    assert header == ["group", "score", "prediction"]
    assert [row[:2] for row in rows] == [list(pair) for pair in zip(groups, cells)]
    assert all(len(row) == 3 and float(row[2]) in (1 / 6, 0.5, 5 / 6) for row in rows)


def cell(x) -> str:
    """A sweep cell as written: NaN empty, a float its repr, a status's commas as ';'."""
    if isinstance(x, float):
        return "" if math.isnan(x) else repr(x)
    return x.replace(",", ";") if isinstance(x, str) else str(x)


FIGURE = st.one_of(st.just(math.nan), st.floats(0, 2))
STATUS = st.one_of(st.just("ok"), st.text(st.sampled_from('xE:,"\n\r '), max_size=8)
                   .map(lambda text: "error:ValueError: " + text))


@st.composite
def sweep_rows(draw):
    """Rows of a small grid, some of them failed, with NaN and finite cells."""
    rows = []
    for alpha, k, eps, seed in itertools.product([0.0, math.inf], [2, 3], [1.0, math.inf],
                                                 range(draw(st.integers(1, 2)))):
        figures = [draw(FIGURE) for _ in range(4)]
        rows.append(SweepRow(alpha, k, eps, seed, *figures, draw(STATUS),
                             *[draw(st.floats(0, 1)) for _ in range(4)]))
    return rows


@settings(max_examples=40, deadline=None)
@given(sweep_rows(), st.integers(0, 99))
def test_sweep_files_read_back_to_their_headers_and_cells(rows, master_seed):
    with tempfile.TemporaryDirectory() as tmp:
        write_outputs(tmp, rows, master_seed)
        files = {name: read_back(os.path.join(tmp, f"{name}.csv"))
                 for name in ("results", "aggregates", "envelope", "timings")}
    aggs = aggregate(rows)
    envelope = []
    for eps in (1.0, math.inf):
        points = [(a.delta_sp_mean, a.mse_raw_mean) for a in aggs
                  if a.epsilon == eps and a.n_ok > 0 and not math.isnan(a.delta_sp_mean)]
        envelope += [(eps, d, m) for d, m in (lower_envelope(points) if points else [])]
    expected = {
        "results": ("alpha,k,epsilon,seed,mse_raw,mse_norm,delta_sp,lp_objective,status",
                    [(r.alpha, r.k, r.epsilon, r.seed, r.mse_raw, r.mse_norm, r.delta_sp,
                      r.lp_objective, r.status) for r in rows]),
        "aggregates": ("alpha,k,epsilon,n_ok,mse_raw_mean,mse_raw_se,mse_norm_mean,"
                       "delta_sp_mean,delta_sp_se",
                       [(a.alpha, a.k, a.epsilon, a.n_ok, a.mse_raw_mean, a.mse_raw_se,
                         a.mse_norm_mean, a.delta_sp_mean, a.delta_sp_se) for a in aggs]),
        "envelope": ("epsilon,delta_sp,mse_raw", envelope),
        "timings": ("alpha,k,epsilon,seed,cell_seconds,estimate_seconds,fit_seconds,"
                    "score_seconds",
                    [(r.alpha, r.k, r.epsilon, r.seed, r.cell_seconds, r.estimate_seconds,
                      r.fit_seconds, r.score_seconds) for r in rows]),
    }
    for name, (header, records) in expected.items():
        meta, got_header, got_rows = files[name]
        assert meta == f"# fairpost {__version__} master_seed={master_seed}\n"
        assert got_header == header.split(",")
        assert got_rows == [[cell(x) for x in rec] for rec in records]


IDENTITY = DatasetSchema()
AFFINE = DatasetSchema(score_col=None, interval=(1.0, 4.0))


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """Models fitted on [0, 1] (the identity transform) and on [1, 4], each
    with data to apply that crosses a block edge and has rows outside the
    fitted interval."""
    tmp = tmp_path_factory.mktemp("writers")
    rng = np.random.default_rng(5)
    (tmp / "affine.json").write_text(
        '{"score": null, "interval": [1.0, 4.0]}')
    for name, n, spread in (("fit", 600, 1.0), ("apply", 2 * BLOCK_ROWS + 7, 1.2)):
        ys = ((rng.random(n) - 0.5) * spread + 0.5).tolist()
        (tmp / f"identity-{name}.csv").write_text("group,score,label\n" + "".join(
            f"{'ABC'[i % 3]},{y!r},{min(max(y, 0.0), 1.0)!r}\n" for i, y in enumerate(ys)))
        (tmp / f"affine-{name}.csv").write_text("group,label\n" + "".join(
            f"{'AB'[i % 2]},{1.0 + 3.0 * y!r}\n" for i, y in enumerate(ys)))
    for name, extra in (("identity", []), ("affine", ["--schema", str(tmp / "affine.json")])):
        assert main(["fit", "--data", str(tmp / f"{name}-fit.csv"), "--k", "7", "--alpha", "0.05",
                     "--epsilon", "inf", "--out", str(tmp / f"{name}.model"), *extra]) == 0
    return tmp


@pytest.mark.parametrize("mode", ["sample", "barycentric"])
@pytest.mark.parametrize("name, schema", [("identity", IDENTITY), ("affine", AFFINE)])
def test_apply_command_matches_per_row_reference(fitted, mode, name, schema):
    extra = ["--schema", str(fitted / "affine.json")] if name == "affine" else []
    data, out = fitted / f"{name}-apply.csv", fitted / f"{name}-{mode}.csv"
    assert main(["apply", "--model", str(fitted / f"{name}.model"), "--data", str(data),
                 "--mode", mode, "--seed", "11", "--out", str(out), *extra]) == 0
    samples = load_csv(data, schema)
    model = load(fitted / f"{name}.model")
    preds = model.predict_batch(samples.groups, samples.group_idx, samples.scores,
                                np.random.default_rng(11), mode=mode)
    assert model.out_of_range_count > 0
    # the score is column 1 of both files (the label doubles as the score under AFFINE)
    text = [line.split(",")[1] for line in data.read_text().splitlines()[1:]]
    assert out.read_text(encoding="utf-8") == reference_apply(
        group_labels(samples), text, preds.tolist(), 11)


def test_apply_writes_each_score_as_read(tmp_path):
    """On the interval (0.1, 0.8) the model's raw -> internal -> raw round
    trip moves some scores by one ulp; apply writes the input cells, and its
    predictions are those of the raw scores."""
    rng = np.random.default_rng(8)
    cells = [repr(y) for y in rng.uniform(0.1, 0.8, 3000).tolist()]
    data, schema = tmp_path / "data.csv", tmp_path / "schema.json"
    data.write_text("group,score\n" + "".join(f"{'AB'[i % 2]},{c}\n"
                                              for i, c in enumerate(cells)))
    schema.write_text('{"label": null, "interval": [0.1, 0.8]}')
    model_path, out = tmp_path / "model.json", tmp_path / "out.csv"
    assert main(["fit", "--data", str(data), "--schema", str(schema), "--k", "9",
                 "--alpha", "0.05", "--epsilon", "inf", "--out", str(model_path)]) == 0
    assert main(["apply", "--model", str(model_path), "--data", str(data), "--schema",
                 str(schema), "--seed", "3", "--out", str(out)]) == 0
    model = load(model_path)
    tr = model.transform
    assert any(repr(tr.to_raw(tr.to_internal(float(c)))) != c for c in cells)
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert [score for _, score, _ in rows] == cells
    samples = load_csv(data, DatasetSchema(label_col=None))
    preds = model.predict_batch(samples.groups, samples.group_idx, samples.scores,
                                np.random.default_rng(3))
    assert [pred for _, _, pred in rows] == [repr(p) for p in preds.tolist()]


# each spelling of a score and its repr: apply echoes the stripped cell
SPELLINGS = [(" 0.25 ", "0.25", "0.25"), ("+2e-1", "+2e-1", "0.2"), ("0.50", "0.50", "0.5"),
             ('"0.5"', "0.5", "0.5"), ("1_0", "1_0", "10.0"), ("-0", "-0", "-0.0"),
             ("\t7e-1\t", "7e-1", "0.7")]


@pytest.mark.parametrize("mode", ["sample", "barycentric"])
def test_apply_echoes_other_spellings_as_read(tmp_path, mode):
    """A score cell is written as its stripped text, not re-spelled, and
    predicts exactly as its value spelled as ``repr``."""
    rows = [("AB"[i % 2], *SPELLINGS[i % len(SPELLINGS)]) for i in range(4 * len(SPELLINGS))]
    spelled, as_repr = tmp_path / "spelled.csv", tmp_path / "repr.csv"
    spelled.write_text("group,score\n" + "".join(f"{g},{cell}\n" for g, cell, _, _ in rows))
    as_repr.write_text("group,score\n" + "".join(f"{g},{y}\n" for g, _, _, y in rows))
    model = tmp_path / "model.json"
    assert main(["fit", "--data", str(as_repr), "--k", "5", "--alpha", "0.05", "--epsilon",
                 "inf", "--out", str(model)]) == 0
    written = []
    for data in (spelled, as_repr):
        out = tmp_path / f"out-{data.stem}.csv"
        assert main(["apply", "--model", str(model), "--data", str(data), "--mode", mode,
                     "--seed", "2", "--out", str(out)]) == 0
        written.append([line.split(",") for line in out.read_text().splitlines()[2:]])
    assert [score for _, score, _ in written[0]] == [text for _, _, text, _ in rows]
    assert [score for _, score, _ in written[1]] == [y for _, _, _, y in rows]
    assert [pred for _, _, pred in written[0]] == [pred for _, _, pred in written[1]]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324])),
                max_size=60),
       st.sampled_from([repr, lambda x: format(x, ".17g")]))
def test_format_floats_matches_per_value_calls(values, fmt):
    assert format_floats(np.array(values, dtype=float), fmt) == [fmt(x) for x in values]


def reference_document(m) -> dict:
    """The model document with one ``format(x, ".17g")`` per entry."""
    f = lambda x: format(float(x), ".17g")
    return {
        "format": "fairpost-model",
        "version": 1,
        "grid": {"s": f(m.grid.s), "t": f(m.grid.t), "k": m.grid.k,
                 "midpoints": [f(v) for v in m.grid.midpoints]},
        "groups": list(m.groups),
        "kernels": [[f(x) for x in k.ravel()] for k in m.kernels],
        "fit": {"alpha": f(m.alpha), "epsilon": f(m.epsilon), "k": m.grid.k, "seed": None},
        "transform": {"offset": f(m.transform.offset), "scale": f(m.transform.scale)},
        "diagnostics": {
            "weights": [f(x) for x in m.weights],
            "pmfs": [[f(x) for x in row] for row in m.pmfs],
            "targets": [[f(x) for x in row] for row in m.targets],
            "barycenter": [f(x) for x in m.barycenter],
            "objective": f(m.objective),
        },
    }


@pytest.mark.parametrize("alpha, epsilon", [(math.inf, math.inf), (0.05, 1.0), (0.0, 0.5)])
def test_to_document_matches_per_entry_reference(alpha, epsilon):
    rng = np.random.default_rng(3)
    rows = [(g, float(y)) for g, a, b in (("A", 2, 5), ("B", 5, 2), ("C", 1, 1))
            for y in rng.beta(a, b, 400)]
    model = fit(estimate(from_rows(rows), (0.0, 1.0), 9, epsilon, 4), alpha)
    doc = model.to_document()
    assert doc == reference_document(model)
    if math.isinf(alpha):
        assert doc["fit"]["alpha"] == doc["fit"]["epsilon"] == "inf"


def test_apply_quotes_labels_that_hold_a_delimiter_quote_or_line_break(tmp_path):
    """Each label is written as csv's minimal quoting writes it, so every
    output row reads back as 3 fields with the label as read."""
    labels = ["A,1", 'say "hi"', "two\nlines", "plain"]
    data = tmp_path / "data.csv"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["group", "score"])
    writer.writerows([labels[i % 4], f"{(i % 9) / 8!r}"] for i in range(40))
    data.write_text(buf.getvalue())
    model, out = tmp_path / "model.json", tmp_path / "predictions.csv"
    assert main(["fit", "--data", str(data), "--k", "5", "--alpha", "0.1", "--epsilon", "inf",
                 "--out", str(model)]) == 0
    assert main(["apply", "--model", str(model), "--data", str(data), "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[2:]
    assert [len(row) for row in rows] == [3] * 40
    assert [row[0] for row in rows] == [labels[i % 4] for i in range(40)]
    text = out.read_text()
    assert '\n"A,1",0.0,' in text and '\nplain,0.375,' in text


@pytest.mark.parametrize("alpha", [0.0, 0.05, math.inf])
@pytest.mark.parametrize("k", [1, 2, 12, 100])
def test_save_writes_the_bytes_of_json_dump(tmp_path, k, alpha):
    """save renders the document itself, in the bytes json.dump(doc, fh,
    indent=1) and a newline would write, labels that need escaping included."""
    rng = np.random.default_rng(k)
    labels = ["é", 'say "hi"', "back\\slash", "two\nlines"]
    rows = [(labels[i % 4], float(y)) for i, y in enumerate(rng.beta(2, 5, 800))]
    model = fit(estimate(from_rows(rows), (0.0, 1.0), k, 1.0, 0), alpha)
    path = tmp_path / "model.json"
    model.save(path)
    assert path.read_bytes() == (json.dumps(model.to_document(), indent=1) + "\n").encode()
