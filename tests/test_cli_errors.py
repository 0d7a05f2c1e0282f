"""Every user-facing failure exits with its documented code and a one-line
message: 2 for config errors (unwritable outputs included), 3 for data
errors (unreadable or malformed model files and non-finite cells included)."""

import dataclasses
import json
import math

import pytest

from fairpost.cli import main


@pytest.fixture
def data(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("group,score,label\n" + "".join(
        f"{'AB'[i % 2]},{(i % 10) / 10 + 0.05!r},{(i % 7) / 7!r}\n" for i in range(60)))
    return path


@pytest.fixture
def model(tmp_path, data):
    path = tmp_path / "model.json"
    assert main(["fit", "--data", str(data), "--k", "4", "--alpha", "0.1",
                 "--epsilon", "inf", "--out", str(path)]) == 0
    return path


def run_apply_and_evaluate(model, data, tmp_path):
    return [main(["apply", "--model", str(model), "--data", str(data),
                  "--out", str(tmp_path / "p.csv")]),
            main(["evaluate", "--model", str(model), "--data", str(data)])]


@pytest.mark.parametrize("content", [
    None,                                   # missing file
    "this is not json",                     # non-JSON
    '{"format": "fairpost-model", "vers',   # truncated
    "[]",                                   # JSON, but not a model
])
def test_unloadable_model_is_a_data_error(tmp_path, data, capsys, content):
    path = tmp_path / "broken.json"
    if content is not None:
        path.write_text(content)
    assert run_apply_and_evaluate(path, data, tmp_path) == [3, 3]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("data error: cannot load model") for line in err)


def test_model_with_invalid_kernels_is_a_data_error(tmp_path, data, model, capsys):
    doc = json.loads(model.read_text())
    doc["kernels"][0][0] = "-1"
    model.write_text(json.dumps(doc))
    assert run_apply_and_evaluate(model, data, tmp_path) == [3, 3]
    assert "nonnegative" in capsys.readouterr().err


def test_unwritable_outputs_are_config_errors(tmp_path, data, model, capsys):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    nowhere = str(blocker / "out")  # a path below a regular file
    assert main(["fit", "--data", str(data), "--k", "2", "--alpha", "0.1",
                 "--epsilon", "inf", "--out", nowhere]) == 2
    assert main(["fit", "--data", str(data), "--k", "2", "--alpha", "0.1",
                 "--epsilon", "inf", "--out", str(tmp_path / "m2.json"),
                 "--dump-lp", nowhere]) == 2
    assert main(["apply", "--model", str(model), "--data", str(data), "--out", nowhere]) == 2
    assert main(["apply", "--model", str(model), "--data", str(data),
                 "--out", str(tmp_path)]) == 2  # a directory
    assert main(["evaluate", "--model", str(model), "--data", str(data),
                 "--out", nowhere]) == 2
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"data": str(data), "alphas": [0.1], "ks": [2],
                               "epsilons": ["inf"], "seeds": 1}))
    assert main(["sweep", "--config", str(cfg), "--out", nowhere]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 6 and all(line.startswith("config error: cannot write") for line in err)


def test_non_finite_cells_are_data_errors(tmp_path, model, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("group,score,label\nA,0.5,0.5\nB,nan,0.5\n")
    assert main(["fit", "--data", str(bad), "--k", "2", "--alpha", "0.1",
                 "--epsilon", "inf", "--out", str(tmp_path / "m.json")]) == 3
    assert run_apply_and_evaluate(model, bad, tmp_path) == [3, 3]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all("non-finite cell at row 3, column 'score'" in line
                                 for line in err)


def test_nan_alpha_is_a_config_error(tmp_path, data):
    assert main(["fit", "--data", str(data), "--k", "2", "--alpha", "nan",
                 "--epsilon", "inf", "--out", str(tmp_path / "m.json")]) == 2


@pytest.mark.parametrize("field, value", [
    ("ks", 2.5), ("ks", True), ("ks", "2"), ("seeds", 1.9), ("seeds", True),
    ("master_seed", 1.9),
], ids=["k_float", "k_bool", "k_string", "seeds_float", "seeds_bool", "master_seed_float"])
def test_non_integral_sweep_counts_are_config_errors(tmp_path, data, capsys, field, value):
    """k, the seed count and the master seed are JSON integers, as fit --k
    and --seed take only integers."""
    doc = {"data": str(data), "alphas": [0.1], "ks": [2], "epsilons": ["inf"], "seeds": 1}
    doc[field] = [value] if field == "ks" else value
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    assert capsys.readouterr().err == (f"config error: config {cfg}: "
                                       f"expected an integer, got {value!r}\n")


def test_label_less_sweep_is_a_config_error(tmp_path, data, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"data": str(data), "schema": {"label": None}, "alphas": [0.1],
                               "ks": [2], "epsilons": ["inf"], "seeds": 1}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    assert capsys.readouterr().err == (f"config error: config {cfg}: "
                                       "sweep requires labeled data for test MSE\n")


def test_label_less_evaluate_is_a_data_error(tmp_path, data, model, capsys):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"label": None}))
    assert main(["evaluate", "--model", str(model), "--data", str(data),
                 "--schema", str(schema)]) == 3
    assert capsys.readouterr().err == "data error: evaluate requires labeled data\n"


def test_sweep_schema_dict_errors_are_config_errors(tmp_path, data):
    """The schema is an inline object: a path string, and a falsy non-object,
    are refused like any other non-object."""
    for schema in ({"interval": [1, 0]}, {"interval": [0, math.inf]}, ["not", "a", "dict"],
                   "schema.json", "", [], None, False):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"data": str(data), "schema": schema, "alphas": [0.1],
                                   "ks": [2], "epsilons": ["inf"], "seeds": 1}))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("corrupt", ["center", "duals"])
def test_solution_failing_its_certificate_is_a_solver_error(tmp_path, data, monkeypatch,
                                                            capsys, corrupt):
    """Corrupt every linprog result: zeroed center running sums break the
    KS bound, shifted equality duals price every column below -tol.  The
    Q and S columns follow the seed master's coupling columns."""
    from fairpost import barycenter_lp
    real = barycenter_lp.linprog
    n_groups, k = 2, 4
    seed_cols = []

    def corrupted(highs, n_ub):
        seed_cols.append(highs.getNumCol())
        res = real(highs, n_ub)
        if corrupt == "center":
            q_end = seed_cols[0] - n_groups * k
            res.x[q_end - k:q_end] = 0.0
        else:
            res = dataclasses.replace(res, duals=res.duals + 1.0)
        return res
    monkeypatch.setattr(barycenter_lp, "linprog", corrupted)
    assert main(["fit", "--data", str(data), "--k", str(k), "--alpha", "0.1",
                 "--epsilon", "inf", "--out", str(tmp_path / "m.json")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("solver error: solution fails its certificate")
    assert ("KS(target, barycenter)" if corrupt == "center" else "prices at") in err


@pytest.mark.parametrize("bad_label", ["nan", "x"])
def test_apply_ignores_labels_it_does_not_use(tmp_path, data, model, bad_label):
    """apply never reads the label column; evaluate still rejects the cell."""
    lines = data.read_text().splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0] + "," + bad_label
    bad = tmp_path / "bad_label.csv"
    bad.write_text("\n".join(lines) + "\n")
    clean_out, bad_out = tmp_path / "clean.csv", tmp_path / "bad.csv"
    assert main(["apply", "--model", str(model), "--data", str(data), "--out", str(clean_out)]) == 0
    assert main(["apply", "--model", str(model), "--data", str(bad), "--out", str(bad_out)]) == 0
    assert bad_out.read_bytes() == clean_out.read_bytes()
    assert main(["evaluate", "--model", str(model), "--data", str(bad)]) == 3


def test_label_as_score_is_still_checked_by_apply(tmp_path, model):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"score": None}))
    bad = tmp_path / "bad.csv"
    bad.write_text("group,score,label\nA,0.5,0.5\nB,0.5,x\n")
    assert main(["apply", "--model", str(model), "--data", str(bad), "--schema", str(schema),
                 "--out", str(tmp_path / "p.csv")]) == 3


def test_inf_spellings_parse_as_inf(tmp_path, data):
    out = tmp_path / "m.json"
    assert main(["fit", "--data", str(data), "--k", "3", "--alpha", " +Infinity ",
                 "--epsilon", "INF", "--out", str(out)]) == 0
    fit = json.loads(out.read_text())["fit"]
    assert fit["alpha"] == fit["epsilon"] == "inf"
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"data": str(data), "alphas": ["Inf"], "ks": [2],
                               "epsilons": [" infinity"], "seeds": 1}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    results = (tmp_path / "o" / "results.csv").read_text().splitlines()
    assert results[2].startswith("inf,2,inf,0,")


def test_non_numbers_are_config_errors(tmp_path, data, capsys):
    assert main(["fit", "--data", str(data), "--k", "3", "--alpha", "infinite",
                 "--epsilon", "1", "--out", str(tmp_path / "m.json")]) == 2
    for alphas in (["x"], [None], [[0.1]]):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"data": str(data), "alphas": alphas, "ks": [2],
                                   "epsilons": ["inf"], "seeds": 1}))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 4 and all(line.startswith("config error: expected a number") for line in err)


@pytest.mark.parametrize("field, value, fit_flag, message", [
    ("split_ratio", 1.5, None, "split ratio must be in (0, 1), got 1.5"),
    ("alphas", ["nan"], "--alpha", "alpha must be nonnegative, got nan"),
    ("alphas", [-0.1], "--alpha", "alpha must be nonnegative, got -0.1"),
    ("epsilons", [-1], "--epsilon", "epsilon must be positive (or inf), got -1.0"),
    ("ks", [0], "--k", "invalid bin count: need k >= 1, got 0"),
], ids=["split_ratio", "alpha_nan", "alpha_negative", "epsilon_negative", "k_zero"])
def test_bad_sweep_hyperparameters_are_config_errors(tmp_path, data, capsys, field, value,
                                                     fit_flag, message):
    """Checked once before any cell runs, with the message fit gives."""
    doc = {"data": str(data), "alphas": [0.1], "ks": [2], "epsilons": ["inf"], "seeds": 1}
    doc[field] = value
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(doc))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    assert capsys.readouterr().err == f"config error: config {cfg}: {message}\n"
    if fit_flag is not None:
        argv = {"--k": "2", "--alpha": "0.1", "--epsilon": "inf", fit_flag: str(value[0])}
        assert main(["fit", "--data", str(data), *(x for kv in argv.items() for x in kv),
                     "--out", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
