import ast
import itertools
import json
import logging
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import fairpost.barycenter_lp
import fairpost.grid
import fairpost.metrics
import fairpost.pipeline
import fairpost.transport
from fairpost.cli import main
from fairpost.data_io import AffineTransform, GroupedSamples
from fairpost.dp_estimation import sample_laplace_many
from fairpost.errors import UnknownGroupError
from fairpost.metrics import statistical_parity_gap
from fairpost.pipeline import FairPostprocessor, estimate, fit, load
from lp_oracles import ks_distance
from sample_rows import from_rows


def predict_rows(model, rows, rng, mode="sample"):
    """predict_batch over (group, score) rows."""
    s = from_rows(rows)
    return model.predict_batch(s.groups, s.group_idx, s.scores, rng, mode=mode)


def two_group_samples(n_a=300, n_b=200, seed=0):
    rng = np.random.default_rng(seed)
    rows = [("A", float(x)) for x in rng.beta(2, 5, n_a)]
    rows += [("B", float(x)) for x in rng.beta(5, 2, n_b)]
    return from_rows(rows)


def test_k_equals_one_is_exactly_fair():
    samples = two_group_samples()
    model = fit(estimate(samples, (0, 1), 1, 1.0, 3), 0.5)
    rng = np.random.default_rng(0)
    preds_a = predict_rows(model, [("A", y) for y in np.linspace(0, 1, 50)], rng)
    preds_b = predict_rows(model, [("B", y) for y in np.linspace(0, 1, 50)], rng)
    assert (preds_a == 0.5).all() and (preds_b == 0.5).all()
    group_idx = np.repeat([0, 1], [len(preds_a), len(preds_b)])
    assert statistical_parity_gap(group_idx, np.concatenate([preds_a, preds_b]), 2,
                                  model.grid) == 0.0


BETA_POPULATIONS = [(2.0, 5.0), (5.0, 2.0), (2.0, 2.0), (0.7, 0.9)]
BETA_SHARES = [0.4, 0.3, 0.2, 0.1]


def population_parity_gap(model) -> float:
    """The largest KS distance between the groups' exact output
    distributions: each Beta population's bin masses pushed through its
    group's kernel, with no sampling."""
    from scipy.stats import beta
    edges = np.linspace(0.0, 1.0, model.grid.k + 1)
    outs = [np.diff(beta.cdf(edges, a, b)) @ model.kernels[model.groups.index(g)]
            for g, (a, b) in zip("ABCD", BETA_POPULATIONS)]
    return max(ks_distance(p, q) for p, q in itertools.combinations(outs, 2))


def test_fewer_bins_favor_fairness_on_exact_populations():
    """The paper's bin-count claim, on known populations: at alpha = 0.05
    and epsilon = 0.1 the mean population parity gap over 10 fit seeds is
    larger at k = 100 than at k = 4."""
    rng = np.random.default_rng(0)
    counts = [int(20_000 * share) for share in BETA_SHARES]
    samples = GroupedSamples(
        groups=("A", "B", "C", "D"), group_idx=np.repeat(np.arange(4), counts),
        scores=np.concatenate([rng.beta(a, b, n) for (a, b), n in zip(BETA_POPULATIONS, counts)]))
    gaps = {k: np.mean([population_parity_gap(fit(estimate(samples, (0, 1), k, 0.1, seed), 0.05))
                        for seed in range(10)]) for k in (4, 100)}
    assert gaps[100] > gaps[4]


def test_single_group_gets_identity_kernel():
    rng = np.random.default_rng(1)
    rows = [("only", float(x)) for x in rng.random(100)]
    model = fit(estimate(from_rows(rows), (0, 1), 6, math.inf, 0), 0.3)
    assert np.allclose(model.kernels[0], np.eye(6), atol=1e-9)


def test_identical_groups_identity_kernels_zero_objective():
    rng = np.random.default_rng(2)
    ys = [float(x) for x in rng.random(80)]
    rows = [("A", y) for y in ys] + [("B", y) for y in ys]
    model = fit(estimate(from_rows(rows), (0, 1), 5, math.inf, 0), 0.0)
    assert model.objective == pytest.approx(0.0, abs=1e-9)
    for a in range(2):
        assert np.allclose(model.kernels[a], np.eye(5), atol=1e-7)


def test_predict_identity_kernels_is_pure_discretization():
    samples = two_group_samples()
    model = fit(estimate(samples, (0, 1), 8, math.inf, 0), math.inf)
    rng = np.random.default_rng(0)
    for y in (0.03, 0.31, 0.9999):
        j = fairpost.grid.discretize_many(model.grid, [y])[0]
        assert model.predict("A", y, rng) == model.grid.midpoints[j]


def test_predict_k1_constant():
    samples = two_group_samples()
    model = fit(estimate(samples, (0.0, 2.0), 1, math.inf, 0), 0.0)
    rng = np.random.default_rng(0)
    assert model.predict("B", 1.7, rng) == 1.0  # (s + t) / 2


def test_predict_follows_deterministic_kernel_row():
    # opposed point masses, alpha = 0: group A bin 1 must map to the middle
    rows = [("A", 0.1)] * 30 + [("B", 0.9)] * 30
    model = fit(estimate(from_rows(rows), (0, 1), 3, math.inf, 0), 0.0)
    rng = np.random.default_rng(0)
    assert model.predict("A", 0.05, rng) == pytest.approx(0.5)
    assert model.objective == pytest.approx(1 / 9, abs=1e-9)


def test_predict_batch_empty():
    model = fit(estimate(two_group_samples(), (0, 1), 4, math.inf, 0), 0.1)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    assert len(predict_rows(model, [], rng)) == 0
    assert rng.bit_generator.state == before


def test_predict_batch_matches_scalar_loop():
    model = fit(estimate(two_group_samples(), (0, 1), 6, 1.0, 5), 0.2)
    rows = [("A", 0.1), ("B", 0.8), ("A", 0.5), ("B", 0.2)] * 10
    batch = predict_rows(model, rows, np.random.default_rng(33))
    rng = np.random.default_rng(33)
    loop = [model.predict(a, y, rng) for a, y in rows]
    assert np.array_equal(batch, np.array(loop))


def test_unknown_group_reports_row_index():
    model = fit(estimate(two_group_samples(), (0, 1), 4, math.inf, 0), 0.1)
    with pytest.raises(UnknownGroupError, match="row 1"):
        predict_rows(model, [("A", 0.5), ("C", 0.5)], np.random.default_rng(0))
    with pytest.raises(UnknownGroupError):
        model.predict("C", 0.5, np.random.default_rng(0))


def test_monte_carlo_outputs_match_targets():
    samples = two_group_samples(400, 400, seed=8)
    model = fit(estimate(samples, (0, 1), 8, math.inf, 0), 0.1)
    rng = np.random.default_rng(99)
    for a, label in enumerate(model.groups):
        draws = rng.choice(model.grid.k, size=10 ** 5, p=model.pmfs[a])
        rows = [(label, model.grid.midpoints[j]) for j in draws]
        preds = predict_rows(model, rows, rng)
        hist = np.zeros(model.grid.k)
        for j, v in enumerate(model.grid.midpoints):
            hist[j] = (preds == v).mean()
        assert np.abs(hist - model.targets[a]).sum() < 0.02


def test_pushforward_identity_on_fitted_models():
    for seed, alpha, eps in [(0, 0.0, math.inf), (1, 0.1, 2.0), (2, 0.4, 0.5)]:
        samples = two_group_samples(seed=seed)
        model = fit(estimate(samples, (0, 1), 7, eps, seed), alpha)
        for a in range(len(model.groups)):
            got = model.pmfs[a] @ model.kernels[a]
            assert np.abs(got - model.targets[a]).max() <= 1e-9


def test_population_fairness_at_fitted_distributions():
    """Pairwise KS between pushed-forward fitted distributions stays within
    alpha, including for a group absent from the training data."""
    rng = np.random.default_rng(12)
    rows = [("A", float(x)) for x in rng.beta(2, 6, 200)]
    rows += [("B", float(x)) for x in rng.beta(6, 2, 150)]
    samples = from_rows(rows, groups=("A", "B", "ghost"))
    for alpha in (0.0, 0.05, 0.25):
        model = fit(estimate(samples, (0, 1), 6, math.inf, 0), alpha)
        outs = [model.pmfs[a] @ model.kernels[a]
                for a in range(len(model.groups))]
        for pa, pb in itertools.combinations(outs, 2):
            assert ks_distance(pa, pb) <= alpha + 1e-6


def test_out_of_range_scores_counted_not_fatal():
    model = fit(estimate(two_group_samples(), (0, 1), 4, math.inf, 0), 0.1)
    rng = np.random.default_rng(0)
    assert model.out_of_range_count == 0
    model.predict("A", 1.7, rng)
    model.predict("A", -0.2, rng)
    model.predict("A", 0.5, rng)
    assert model.out_of_range_count == 2


def test_nan_scores_are_refused_not_binned():
    """predict and predict_batch name the first NaN's row; no draw is made,
    no score is counted out of range, and fit refuses NaN training scores."""
    model = fit(estimate(two_group_samples(), (0, 1), 4, math.inf, 0), 0.1)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"^row 0: NaN has no bin$"):
        model.predict("A", math.nan, rng)
    rows = [("A", 0.1), ("B", 2.0), ("A", 0.5), ("B", math.nan), ("A", math.nan)]
    for mode in ("sample", "barycentric"):
        with pytest.raises(ValueError, match=r"^row 3: NaN has no bin$"):
            predict_rows(model, rows, rng, mode=mode)
    assert rng.bit_generator.state == state and model.out_of_range_count == 0
    samples = from_rows([("A", 0.2), ("A", 0.6), ("B", math.nan)])
    with pytest.raises(ValueError, match=r"^row 2: NaN has no bin$"):
        fit(estimate(samples, (0, 1), 4, math.inf, 0), 0.1)


def test_fit_logs_each_stage_time(tmp_path, caplog):
    """One fit logs the wall time of step 1, step 2, the kernels and save,
    with save's byte count, at DEBUG."""
    path = tmp_path / "model.json"
    with caplog.at_level(logging.DEBUG, logger="fairpost.pipeline"):
        fit(estimate(two_group_samples(), (0, 1), 9, 0.7, 123), 0.15).save(path)
    messages = [r.getMessage() for r in caplog.records
                if r.name == "fairpost.pipeline" and r.levelno == logging.DEBUG]
    patterns = [r"step 1 \(private estimate, k=9, epsilon=0\.7\): \d+\.\d{3} ms",
                r"step 2 \(barycenter, alpha=0\.15\): \d+\.\d{3} ms",
                r"step 3 \(kernels\): \d+\.\d{3} ms",
                rf"save: {path.stat().st_size} bytes in \d+\.\d{{3}} ms"]
    assert len(messages) == 4
    for message, pattern in zip(messages, patterns):
        assert re.fullmatch(pattern, message), message


def test_serialization_round_trip_bit_identical(tmp_path):
    model = fit(estimate(two_group_samples(), (0, 1), 9, 0.7, 123), 0.15)
    path = tmp_path / "model.json"
    model.save(path)
    loaded = load(path)
    assert loaded.groups == model.groups
    assert np.array_equal(loaded.kernels, model.kernels)
    assert np.array_equal(loaded.grid.midpoints, model.grid.midpoints)
    rows = [("A", 0.3), ("B", 0.6)] * 25
    a = predict_rows(model, rows, np.random.default_rng(7))
    b = predict_rows(loaded, rows, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_model_file_rejects_other_formats(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(ValueError):
        load(path)


def saved_document(tmp_path):
    model = fit(estimate(two_group_samples(), (0, 1), 3, math.inf, 0), 0.1)
    path = tmp_path / "model.json"
    model.save(path)
    return path, json.loads(path.read_text())


@pytest.mark.parametrize("corrupt, message", [
    (lambda d: d["kernels"].pop(), "2 groups x 9 entries"),
    (lambda d: d["groups"].append("C"), "3 groups x 9 entries"),
    (lambda d: d["kernels"][0].pop(), "2 groups x 9 entries"),
    (lambda d: d["kernels"][1].__setitem__(0, "-0.25"), "nonnegative"),
    (lambda d: d["kernels"][1].__setitem__(4, "nan"), "nonnegative"),
    (lambda d: d["kernels"][0].__setitem__(8, "0.999"), "sum to 1"),
    (lambda d: d.pop("diagnostics"), "malformed model file"),
    (lambda d: d["grid"].__setitem__("k", None), "malformed model file"),
    (lambda d: d["transform"].__setitem__("scale", "nan"), "invalid interval"),
    (lambda d: d["transform"].__setitem__("scale", "0"), "invalid interval"),
    (lambda d: d["transform"].__setitem__("scale", "-1"), "invalid interval"),
    (lambda d: d["transform"].__setitem__("scale", "inf"), "invalid interval"),
    (lambda d: d["grid"].__setitem__("t", "inf"), "invalid interval"),
    (lambda d: d["groups"].__setitem__(1, "A"), "repeated group labels"),
    (lambda d: d["grid"].__setitem__("k", 0), "invalid bin count"),
    (lambda d: d["fit"].__setitem__("alpha", "x"), "could not convert string to float"),
    (lambda d: d["diagnostics"]["weights"].__setitem__(0, None), "malformed model file"),
    (lambda d: d["diagnostics"]["weights"].append("0.5"), "weights must be 2 finite entries"),
    (lambda d: d["diagnostics"]["weights"].__setitem__(1, "-1"),
     "weights must be 2 finite entries"),
    (lambda d: d["diagnostics"]["weights"].__setitem__(0, "inf"),
     "weights must be 2 finite entries"),
    (lambda d: d["diagnostics"]["pmfs"].pop(), "pmfs must hold 2 groups x 3 entries"),
    (lambda d: d["diagnostics"]["pmfs"][1].pop(), "pmfs must hold 2 groups x 3 entries"),
    (lambda d: d["diagnostics"]["pmfs"][0].__setitem__(0, "-0.25"),
     "pmfs entries must be nonnegative"),
    (lambda d: d["diagnostics"]["pmfs"][1].__setitem__(2, "2"), "pmfs rows must sum to 1"),
    (lambda d: d["diagnostics"]["targets"].append(["1", "0", "0"]),
     "targets must hold 2 groups x 3 entries"),
    (lambda d: d["diagnostics"]["targets"][0].pop(), "targets must hold 2 groups x 3 entries"),
    (lambda d: d["diagnostics"]["targets"][1].__setitem__(0, "nan"),
     "targets entries must be nonnegative"),
    (lambda d: d["diagnostics"]["targets"][0].__setitem__(1, "0.5"),
     "targets rows must sum to 1"),
    (lambda d: d["diagnostics"]["barycenter"].pop(), "barycenter must hold 3 entries"),
    pytest.param(lambda d: d["fit"].__setitem__("k", 7),
                 "fit k 7 disagrees with the grid's k = 3", id="fit_k"),
    pytest.param(lambda d: d["fit"].__setitem__("alpha", "-1"),
                 "alpha must be nonnegative, got -1.0", id="fit_alpha_negative"),
    pytest.param(lambda d: d["fit"].__setitem__("alpha", "nan"),
                 "alpha must be nonnegative, got nan", id="fit_alpha_nan"),
    pytest.param(lambda d: d["fit"].__setitem__("epsilon", "nan"),
                 r"epsilon must be positive \(or inf\), got nan", id="fit_epsilon_nan"),
    pytest.param(lambda d: d["fit"].__setitem__("epsilon", "0"),
                 r"epsilon must be positive \(or inf\), got 0.0", id="fit_epsilon_zero"),
    pytest.param(lambda d: d["fit"].__setitem__("epsilon", "-inf"),
                 r"epsilon must be positive \(or inf\), got -inf", id="fit_epsilon_negative"),
    pytest.param(lambda d: d["fit"].__setitem__("seed", "x"),
                 "seed must be an integer or null, got 'x'", id="fit_seed_string"),
    pytest.param(lambda d: d["fit"].__setitem__("seed", 1.5),
                 "seed must be an integer or null, got 1.5", id="fit_seed_float"),
    pytest.param(lambda d: d["fit"].__setitem__("seed", True),
                 "seed must be an integer or null, got True", id="fit_seed_bool"),
    pytest.param(lambda d: d.__setitem__("groups", "AB"),
                 "groups must be a list of strings, got 'AB'", id="groups_string"),
    pytest.param(lambda d: d.__setitem__("groups", [1, 2]),
                 r"groups must be a list of strings, got \[1, 2\]", id="groups_integers"),
    pytest.param(lambda d: d["groups"].__setitem__(1, None),
                 r"groups must be a list of strings, got \['A', None\]", id="groups_null_label"),
    pytest.param(lambda d: d.update(groups=[], kernels=[], diagnostics=dict(
        d["diagnostics"], weights=[], pmfs=[], targets=[])),
                 "a model needs at least one group", id="groups_empty"),
])
def test_load_validates_kernels_and_structure(tmp_path, corrupt, message):
    """Every failure, whichever check or parse raises it, names the file.
    The diagnostics are checked too: G finite weights >= 0, pmfs and targets
    of G rows of k entries >= 0 that sum to 1, and a barycenter of k.  So is
    the fit metadata: the grid's k, alpha >= 0, epsilon > 0, and an integer
    or null seed, as fit writes them."""
    path, doc = saved_document(tmp_path)
    corrupt(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: .*{message}"):
        load(path)


def test_load_accepts_the_metadata_fit_writes(tmp_path):
    """A generator's fit records a null seed; alpha and epsilon may be inf."""
    path = tmp_path / "model.json"
    model = fit(estimate(two_group_samples(), (0, 1), 4, math.inf, np.random.default_rng(0)),
                math.inf)
    model.save(path)
    assert json.loads(path.read_text())["fit"] == {"alpha": "inf", "epsilon": "inf", "k": 4,
                                                   "seed": None}
    loaded = load(path)
    assert (loaded.alpha, loaded.epsilon) == (math.inf, math.inf)


def test_load_drops_a_stored_integer_seed(tmp_path):
    """Version-1 files that fits once wrote with an integer seed still load:
    they predict as the same file with a null seed does, and save back with
    a null seed."""
    path, doc = saved_document(tmp_path)
    assert doc["fit"]["seed"] is None
    doc["fit"]["seed"] = 7
    seeded = tmp_path / "seeded.json"
    seeded.write_text(json.dumps(doc, indent=1) + "\n")
    rows = [("A", 0.3), ("B", 0.6)] * 25
    assert np.array_equal(predict_rows(load(path), rows, np.random.default_rng(5)),
                          predict_rows(load(seeded), rows, np.random.default_rng(5)))
    resaved = tmp_path / "resaved.json"
    load(seeded).save(resaved)
    assert resaved.read_bytes() == path.read_bytes()


def test_load_rejects_truncated_and_non_json_files(tmp_path):
    path, _ = saved_document(tmp_path)
    prefix = rf"^{re.escape(str(path))}: "
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(ValueError, match=prefix):
        load(path)
    path.write_text('{"format": "fairpost-model", "vers')
    with pytest.raises(ValueError, match=prefix + "Unterminated string"):
        load(path)
    path.write_bytes(b'{"format": "\xff"}')
    with pytest.raises(ValueError, match=prefix + ".*can't decode byte 0xff"):
        load(path)
    path.write_text("[1, 2, 3]")
    with pytest.raises(ValueError, match=prefix + "not a fairpost-model"):
        load(path)


def test_fit_validates_hyperparameters():
    samples = two_group_samples()
    with pytest.raises(ValueError):
        fit(estimate(samples, (1, 0), 4, math.inf, 0), 0.1)
    with pytest.raises(ValueError):
        fit(estimate(samples, (0, 1), 0, math.inf, 0), 0.1)
    with pytest.raises(ValueError):
        fit(estimate(samples, (0, 1), 4, math.inf, 0), -0.1)
    with pytest.raises(ValueError):
        fit(estimate(samples, (0, 1), 4, 0.0, 0), 0.1)
    with pytest.raises(ValueError, match="alpha"):
        fit(estimate(samples, (0, 1), 4, math.inf, 0), math.nan)


@pytest.mark.parametrize("offset, scale", [(0.0, 1e5), (1.0, 3.0), (-2.5, 0.5)])
def test_fit_maps_the_raw_interval_onto_the_unit_grid(offset, scale):
    """Raw scores on [s, t] fit the unit-scale model except for the stored
    transform (s, t - s), and the model takes and returns raw units."""
    unit = two_group_samples()
    raw = GroupedSamples(groups=unit.groups, group_idx=unit.group_idx,
                         scores=offset + scale * unit.scores)
    reference = fit(estimate(unit, (0, 1), 36, 1.0, 0), 0.05)
    model = fit(estimate(raw, (offset, offset + scale), 36, 1.0, 0), 0.05)
    assert model.transform == AffineTransform(offset=offset, scale=offset + scale - offset)
    doc = model.to_document()
    assert doc == {**reference.to_document(), "transform": doc["transform"]}
    rng = np.random.default_rng(4)
    group_idx, ys = rng.integers(0, 2, 200), rng.uniform(-0.1, 1.1, 200)
    for mode in ("sample", "barycentric"):
        expected = reference.predict_batch(unit.groups, group_idx, ys,
                                           np.random.default_rng(5), mode=mode)
        got = model.predict_batch(unit.groups, group_idx, offset + scale * ys,
                                  np.random.default_rng(5), mode=mode)
        assert np.allclose(got, offset + scale * expected, rtol=1e-12, atol=0.0)
    assert model.out_of_range_count == reference.out_of_range_count > 0


def test_fit_rejects_unbounded_intervals():
    for interval in ((0, math.inf), (-math.inf, 0), (0, math.nan), (-1e308, 1e308)):
        with pytest.raises(ValueError, match="invalid interval"):
            fit(estimate(two_group_samples(), interval, 4, math.inf, 0), 0.1)


def test_barycentric_mode_is_row_mean():
    model = fit(estimate(two_group_samples(), (0, 1), 5, math.inf, 0), 0.1)
    rng = np.random.default_rng(0)
    y = 0.4
    j = fairpost.grid.discretize_many(model.grid, [y])[0]
    expected = float(model.kernels[0, j] @ model.grid.midpoints)
    assert model.predict("A", y, rng, mode="barycentric") == pytest.approx(expected)
    # no stream consumption in barycentric mode is not promised; only values


def test_cli_import_fit_and_apply_load_no_scipy(tmp_path):
    """scipy is a test dependency only: a fresh interpreter imports
    fairpost.cli, fits and applies without loading any scipy module."""
    data = tmp_path / "data.csv"
    data.write_text("group,score\n" + "".join(f"{'AB'[i % 2]},{i / 40!r}\n" for i in range(40)))
    model, out = tmp_path / "model.json", tmp_path / "out.csv"
    script = (
        "import sys\n"
        "import fairpost.cli\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        f"assert fairpost.cli.main(['fit', '--data', {str(data)!r}, '--k', '6', '--alpha', '0.05',"
        f" '--epsilon', '1', '--out', {str(model)!r}]) == 0\n"
        f"assert fairpost.cli.main(['apply', '--model', {str(model)!r}, '--data', {str(data)!r},"
        f" '--out', {str(out)!r}]) == 0\n"
        "loaded += [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "print(sorted(set(loaded)))\n")
    src = str(pathlib.Path(fairpost.pipeline.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


# ---------------------------------------------------------------- privacy


FIT_PATH_MODULES = [fairpost.pipeline, fairpost.barycenter_lp, fairpost.transport,
                    fairpost.metrics, fairpost.grid]
RAW_DATA_ATTRS = {"scores", "labels", "group_idx"}


def test_static_audit_only_estimation_touches_raw_values():
    """No fit-path module outside the private-estimation step may read raw
    sample columns."""
    for mod in FIT_PATH_MODULES:
        tree = ast.parse(pathlib.Path(mod.__file__).read_text())
        offenders = [node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and node.attr in RAW_DATA_ATTRS]
        assert not offenders, f"{mod.__name__} touches raw sample columns: {offenders}"


def test_fit_consumes_data_only_through_private_estimates(monkeypatch):
    """With the estimation step stubbed out, fit never needs real scores."""
    k = 4
    canned = (np.array([0.5, 0.5]),  # the weights and PMFs step 1 returns
              np.array([[0.25, 0.25, 0.25, 0.25], [0.1, 0.2, 0.3, 0.4]]))
    calls = {}

    def stub(samples, grid, epsilon, rng, transform):
        calls["args"] = (samples, epsilon)
        return canned

    monkeypatch.setattr(fairpost.pipeline.dp_estimation, "estimate_private_dists", stub)
    poisoned = GroupedSamples(groups=("A", "B"),
                              group_idx=np.zeros(10, dtype=np.intp),
                              scores=np.full(10, np.nan))
    model = fit(estimate(poisoned, (0, 1), k, 1.0, 0), 0.1)
    assert calls["args"] == (poisoned, 1.0)
    assert isinstance(model, FairPostprocessor)
    assert model.kernels.shape == (2, k, k)


@pytest.mark.parametrize("epsilon, rng, warns", [
    (1.0, 3, True), (0.5, np.int64(3), True), (math.inf, 3, False),
    (1.0, np.random.default_rng(3), False), (1.0, None, False),
], ids=["int", "numpy_int", "inf_epsilon", "generator", "none"])
def test_a_seeded_finite_epsilon_estimate_warns_once(caplog, epsilon, rng, warns):
    """An integer seed lets anyone who knows it redraw the Laplace noise, so
    step 1 warns; a generator (the sweep's streams), OS entropy and a fit
    without noise do not."""
    with caplog.at_level(logging.WARNING, logger="fairpost.pipeline"):
        estimate(two_group_samples(), (0, 1), 4, epsilon, rng)
    messages = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    expected = f"anyone who knows this fit's seed can undo its noise (epsilon={epsilon:g})"
    assert messages == ([expected] if warns else [])


def four_group_csv(path, sizes=(800, 600, 400, 200)) -> dict:
    """Four Beta-distributed groups of the given sizes, interleaved; returns
    each group's size by label."""
    rng = np.random.default_rng(11)
    labels = np.repeat(list("ABCD"), sizes)
    scores = np.concatenate([rng.beta(a, b, n) for (a, b), n in zip(BETA_POPULATIONS, sizes)])
    order = rng.permutation(len(labels))
    path.write_text("group,score\n" + "".join(f"{g},{y!r}\n" for g, y in
                                              zip(labels[order], scores[order].tolist())))
    return dict(zip("ABCD", sizes))


def recovered_group_sizes(doc: dict, n: int, seed: int) -> dict:
    """The attack a known seed allows on a model document (n is public):
    redraw step 1's Laplace noise from the seed and subtract each group's
    noise from its stored weight."""
    weights = np.array(doc["diagnostics"]["weights"], dtype=float)
    k, epsilon = doc["fit"]["k"], float(doc["fit"]["epsilon"])
    noise = sample_laplace_many(np.random.default_rng(seed), 2.0 / (n * epsilon),
                                len(weights) * k).reshape(len(weights), k)
    return dict(zip(doc["groups"], np.rint(n * (weights - noise.sum(axis=1))).astype(int)))


def test_an_unseeded_fit_is_fresh_each_time_and_no_guessed_seed_undoes_it(tmp_path):
    """fit --seed is opt-in.  Without it the noise comes from OS entropy: two
    fits of one file hold different pmfs, and none of the seeds 0-9 rebuilds
    the noise that recovers every group's exact size, as the seed of a
    seeded fit does.  No model file holds a seed."""
    data = tmp_path / "data.csv"
    sizes = four_group_csv(data)
    n = sum(sizes.values())
    docs = {}
    for name, seed in (("seeded", ["--seed", "3"]), ("a", []), ("b", [])):
        out = tmp_path / f"{name}.json"
        assert main(["fit", "--data", str(data), "--k", "36", "--alpha", "0.05",
                     "--epsilon", "1", *seed, "--out", str(out)]) == 0
        docs[name] = json.loads(out.read_text())
    assert [doc["fit"]["seed"] for doc in docs.values()] == [None, None, None]
    assert docs["a"]["diagnostics"]["pmfs"] != docs["b"]["diagnostics"]["pmfs"]
    assert recovered_group_sizes(docs["seeded"], n, 3) == sizes
    for seed in range(10):
        assert recovered_group_sizes(docs["a"], n, seed) != sizes
