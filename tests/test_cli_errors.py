"""Every user-facing failure exits with its documented code and a one-line
message: 2 for config errors (unwritable outputs included), 3 for data
errors (unreadable or malformed model files and non-finite cells included)."""

import json
import math

import numpy as np
import pytest

from fairpost.cli import main
from lp_oracles import phi_table


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


@pytest.mark.parametrize("field, key, value, fault", [
    ("transform", "scale", "nan", "invalid interval"),
    ("transform", "scale", "0", "invalid interval"),
    ("transform", "scale", "-1", "invalid interval"),
    ("transform", "scale", "inf", "invalid interval"),
    ("grid", "t", "inf", "invalid interval"),
    ("groups", 1, "A", "repeated group labels"),
])
def test_model_breaking_a_model_rule_is_a_data_error(tmp_path, data, model, capsys,
                                                     field, key, value, fault):
    """A model file's grid and transform intervals must pass the interval
    rule and its group labels must be distinct; apply refuses any other
    with exit 3 and one line on stderr, before it predicts anything."""
    doc = json.loads(model.read_text())
    doc[field][key] = value
    model.write_text(json.dumps(doc))
    out = tmp_path / "p.csv"
    assert main(["apply", "--model", str(model), "--data", str(data), "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error: cannot load model") and fault in err[0]
    assert not out.exists()


@pytest.mark.parametrize("groups, shown", [
    pytest.param("ABCD", "'ABCD'", id="string"),
    pytest.param([1, 2], "[1, 2]", id="integers"),
])
def test_model_group_labels_must_be_strings(tmp_path, data, model, capsys, groups, shown):
    """A string would pair the kernels with its characters, and no CSV cell
    matches an integer label: both exit 3 naming the file."""
    doc = json.loads(model.read_text())
    doc["groups"] = groups
    model.write_text(json.dumps(doc))
    assert run_apply_and_evaluate(model, data, tmp_path) == [3, 3]
    err = capsys.readouterr().err.splitlines()
    assert err == [f"data error: cannot load model: {model}: groups must be a list of strings, "
                   f"got {shown}"] * 2


@pytest.mark.parametrize("schema", [
    pytest.param({"delimiter": ";;"}, id="delimiter_two_characters"),
    pytest.param({"delimiter": ""}, id="delimiter_empty"),
    pytest.param({"delimiter": 5}, id="delimiter_integer"),
    pytest.param({"delimiter": '"'}, id="delimiter_quote"),
    pytest.param({"group": 3}, id="group_integer"),
])
def test_unusable_schema_is_a_config_error_in_every_command(tmp_path, data, model, capsys,
                                                            schema):
    """fit, apply, evaluate and sweep each exit 2 with one line, before
    reading any data or writing any output."""
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(schema))
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"data": str(data), "schema": schema, "alphas": [0.1],
                               "ks": [2], "epsilons": ["inf"], "seeds": 1}))
    out = tmp_path / "out"
    for argv in (["fit", "--data", str(data), "--schema", str(path), "--k", "2",
                  "--alpha", "0.1", "--epsilon", "inf", "--out", str(out)],
                 ["apply", "--model", str(model), "--data", str(data), "--schema", str(path),
                  "--out", str(out)],
                 ["evaluate", "--model", str(model), "--data", str(data), "--schema", str(path),
                  "--out", str(out)],
                 ["sweep", "--config", str(cfg), "--out", str(out)]):
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert ("delimiter" if "delimiter" in schema else "column names must be strings") in err[0]
        assert not out.exists()


def test_fit_refuses_the_removed_dump_lp_flag(tmp_path, data, capsys):
    """fit has no --dump-lp; argparse refuses it with exit 2 before any fit."""
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--data", str(data), "--k", "2", "--alpha", "0.1", "--epsilon", "inf",
              "--out", str(tmp_path / "m.json"), "--dump-lp", "x"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --dump-lp x" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_unwritable_outputs_are_config_errors(tmp_path, data, model, capsys):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    nowhere = str(blocker / "out")  # a path below a regular file
    assert main(["fit", "--data", str(data), "--k", "2", "--alpha", "0.1",
                 "--epsilon", "inf", "--out", nowhere]) == 2
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
    assert len(err) == 5 and all(line.startswith("config error: cannot write") for line in err)


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


@pytest.mark.parametrize("extra, shown", [
    pytest.param({"seed": 3}, "unknown config key(s) 'seed'", id="seed"),
    pytest.param({"split-ratio": 0.5, "seed": 3}, "unknown config key(s) 'seed', 'split-ratio'",
                 id="two_keys"),
    pytest.param({"schema": {"delimeter": ";"}}, "unknown schema key(s) 'delimeter'",
                 id="schema_key"),
])
def test_unknown_sweep_config_keys_are_config_errors(tmp_path, data, capsys, extra, shown):
    """A misspelt key would otherwise run the default in its place."""
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"data": str(data), "alphas": [0.1], "ks": [2],
                               "epsilons": ["inf"], "seeds": 1, **extra}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: config {cfg}: {shown}\n"
    assert not (tmp_path / "o").exists()


def test_unknown_schema_keys_are_config_errors_and_normalization_is_ignored(tmp_path, data,
                                                                           model, capsys):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"delimeter": ";", "normalization": "none"}))
    out = tmp_path / "out"
    for argv in (["fit", "--data", str(data), "--k", "2", "--alpha", "0.1", "--epsilon", "inf"],
                 ["apply", "--model", str(model), "--data", str(data)],
                 ["evaluate", "--model", str(model), "--data", str(data)]):
        assert main([*argv, "--schema", str(schema), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (f"config error: schema {schema}: "
                                           "unknown schema key(s) 'delimeter'\n")
        assert not out.exists()
    # the legacy key alone is accepted, in a schema file and in a sweep config
    schema.write_text(json.dumps({"normalization": "none"}))
    assert main(["apply", "--model", str(model), "--data", str(data), "--schema", str(schema),
                 "--out", str(out)]) == 0
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"data": str(data), "schema": {"normalization": "none"},
                               "alphas": [0.1], "ks": [2], "epsilons": ["inf"], "seeds": 1}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("header, command", [
    ("group,score,score", "apply"), ("group,group,score", "apply"),
    ("group,score,label,label", "evaluate"),
])
def test_a_column_read_twice_in_the_header_is_a_data_error(tmp_path, data, model, capsys,
                                                            header, command):
    repeated = header.split(",")[-1] if header.count("group") == 1 else "group"
    path = tmp_path / "repeated.csv"
    path.write_text(header + "\n" + "A,0.5,0.5,0.5\n" * 3)
    out = tmp_path / "out"
    assert main([command, "--model", str(model), "--data", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (f"data error: {path}: column {repeated!r} appears more "
                                       "than once in the header\n")
    assert not out.exists()


def test_a_repeated_column_that_is_not_read_is_allowed(tmp_path, model):
    """apply reads no labels, so a repeated label column does not stop it."""
    path = tmp_path / "labels.csv"
    path.write_text("group,score,label,label,note,note\n" + "A,0.5,x,y,,\n" * 3)
    assert main(["apply", "--model", str(model), "--data", str(path),
                 "--out", str(tmp_path / "p.csv")]) == 0


@pytest.mark.parametrize("path", [["x"], 0, None], ids=["list", "zero", "null"])
def test_sweep_data_that_is_not_a_string_is_a_config_error(tmp_path, capsys, path):
    """A list would escape as a TypeError, and 0 would read standard input."""
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"data": path, "alphas": [0.1], "ks": [2], "epsilons": ["inf"],
                               "seeds": 1}))
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (f"config error: config {cfg}: "
                                       f"data must be a path string, got {path!r}\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("corrupt", ["coupling", "block"])
def test_solution_failing_its_certificate_is_a_solver_error(tmp_path, data, monkeypatch,
                                                            capsys, corrupt):
    """Corrupt the solve: halved couplings miss the input pmfs, and the last
    gap's center moved to its costliest breakpoint misses the lower bound."""
    from fairpost import barycenter_lp
    if corrupt == "coupling":
        real = barycenter_lp.monotone_coupling
        monkeypatch.setattr(barycenter_lp, "monotone_coupling", lambda p, q: 0.5 * real(p, q))
    else:
        real = barycenter_lp._bisect

        def costliest(lp, gaps):
            x, picks = real(lp, gaps)
            picks[-1] = np.argmax(phi_table(lp, gaps)[1][-1])
            return x, picks
        monkeypatch.setattr(barycenter_lp, "_bisect", costliest)
    assert main(["fit", "--data", str(data), "--k", "4", "--alpha", "0.1",
                 "--epsilon", "inf", "--out", str(tmp_path / "m.json")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("solver error: solution fails its certificate")
    assert err.count("\n") == 1
    assert ("coupling row sums miss" if corrupt == "coupling" else "miss the lower bound") in err


def test_unknown_group_message_is_printed_without_quotes(tmp_path, model, capsys):
    """The message is the error's text, not the quoted repr KeyError's str gives."""
    data = tmp_path / "unknown.csv"
    data.write_text("group,score\nZ,0.5\n")
    assert main(["apply", "--model", str(model), "--data", str(data),
                 "--out", str(tmp_path / "p.csv")]) == 3
    assert capsys.readouterr().err == "data error: row 0: group 'Z' was not present at fit time\n"


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


@pytest.mark.parametrize("label", [None, "nan", "x", ""])
def test_fit_ignores_labels_it_does_not_use(tmp_path, data, label):
    """fit reads only the group and score columns: a file without labels, or
    with a bad or empty label cell, fits to the bytes of the full file."""
    lines = data.read_text().splitlines()
    if label is None:
        lines = [line.rsplit(",", 1)[0] for line in lines]
    else:
        lines[5] = lines[5].rsplit(",", 1)[0] + "," + label
    other = tmp_path / "other.csv"
    other.write_text("\n".join(lines) + "\n")
    models = [tmp_path / "full.json", tmp_path / "other.json"]
    for path, out in zip((data, other), models):
        assert main(["fit", "--data", str(path), "--k", "4", "--alpha", "0.1",
                     "--epsilon", "1", "--seed", "3", "--out", str(out)]) == 0
    assert models[0].read_bytes() == models[1].read_bytes()


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


def test_schema_and_config_may_start_with_a_byte_order_mark(tmp_path, data):
    """A JSON file that starts with a UTF-8 byte-order mark (as some Windows
    editors save it) reads as the same document, as a data CSV does."""
    bom = b"\xef\xbb\xbf"
    schema = tmp_path / "schema.json"
    schema.write_bytes(bom + json.dumps({"interval": [0, 2]}).encode())
    out = tmp_path / "m.json"
    assert main(["fit", "--data", str(data), "--schema", str(schema), "--k", "3",
                 "--alpha", "0.1", "--epsilon", "inf", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["transform"] == {"offset": "0", "scale": "2"}
    cfg = tmp_path / "sweep.json"
    cfg.write_bytes(bom + json.dumps({"data": str(data), "alphas": [0.1], "ks": [2],
                                      "epsilons": ["inf"], "seeds": 1}).encode())
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "results.csv").exists()


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


@pytest.mark.parametrize("command, seed", [
    ("fit", "-1"), ("apply", "-1"), ("evaluate", "-3"), ("sweep", "-1"), ("sweep", None),
    ("fit", "1.5"),
], ids=["fit", "apply", "evaluate", "sweep", "master_seed", "fit_float"])
def test_negative_seeds_are_config_errors(tmp_path, data, model, capsys, command, seed):
    """numpy seeds no generator from a negative integer: a negative (or
    non-integer) --seed is argparse's error naming the flag, and a negative
    master_seed a config error naming the key, each exit 2 before anything
    is written."""
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"data": str(data), "alphas": [0.1], "ks": [2],
                               "epsilons": ["inf"], "seeds": 1, "master_seed": -2}))
    out = tmp_path / "out"
    argv = {"fit": ["--data", str(data), "--k", "2", "--alpha", "0.1", "--epsilon", "inf"],
            "apply": ["--model", str(model), "--data", str(data)],
            "evaluate": ["--model", str(model), "--data", str(data)],
            "sweep": ["--config", str(cfg)]}[command] + ["--out", str(out)]
    if seed is None:
        assert main([command, *argv]) == 2
        assert capsys.readouterr().err == (f"config error: config {cfg}: "
                                           "master_seed must be >= 0, got -2\n")
    else:
        with pytest.raises(SystemExit) as exc:
            main([command, *argv, "--seed", seed])
        assert exc.value.code == 2
        assert f"argument --seed: must be an integer >= 0, got {seed!r}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["apply", "--seed", "-1"], ["fit", "--k", "1.5"], ["evaluate", "--no-such-flag"],
], ids=["negative_seed", "float_k", "unknown_flag"])
def test_argparse_refusals_print_one_line(tmp_path, data, model, capsys, argv):
    """argparse's own refusals are config errors of one line, exit 2,
    without its usage block."""
    required = {"fit": ["--data", str(data), "--k", "2", "--alpha", "0.1", "--epsilon", "inf"],
                "apply": ["--model", str(model), "--data", str(data)],
                "evaluate": ["--model", str(model), "--data", str(data)]}[argv[0]]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([argv[0], *required, "--out", str(out), *argv[1:]])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not out.exists()


def test_warnings_carry_a_prefix(tmp_path, data, capsys):
    """A seeded finite-epsilon fit warns on stderr as "warning: ..."; the
    handler goes with the command, so a second command does not print twice."""
    for out in ("m1.json", "m2.json"):
        assert main(["fit", "--data", str(data), "--k", "2", "--alpha", "0.1", "--epsilon", "1",
                     "--seed", "0", "--out", str(tmp_path / out)]) == 0
        assert capsys.readouterr().err == (
            "warning: anyone who knows this fit's seed can undo its noise (epsilon=1)\n")
