import itertools
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fairpost import sweep
from fairpost.cli import _sweep_config, build_parser, main
from fairpost.data_io import DatasetSchema, GroupedSamples, split_train_test
from fairpost.grid import discretize_many, make_grid
from fairpost.metrics import mse, statistical_parity_gap
from fairpost.sweep import (SweepConfig, aggregate, lower_envelope, run_sweep,
                            write_outputs, write_results_csv)
from sample_rows import from_rows


def synthetic_samples(n=240, seed=0):
    rng = np.random.default_rng(seed)
    rows = [("A", float(x), float(x)) for x in rng.beta(2, 5, n // 2)]
    rows += [("B", float(x), float(x)) for x in rng.beta(5, 2, n - n // 2)]
    return from_rows(rows)


def write_synthetic_csv(tmp_path, n=240, seed=0, name="synth.csv"):
    s = synthetic_samples(n, seed)
    path = tmp_path / name
    with open(path, "w") as fh:
        fh.write("group,score,label\n")
        for i in range(s.n):
            fh.write(f"{s.groups[s.group_idx[i]]},{float(s.scores[i])!r},{float(s.labels[i])!r}\n")
    return path


def config_for(samples=None, **kw):
    defaults = dict(data_path=None, schema=DatasetSchema(), alphas=(0.1,), ks=(4,),
                    epsilons=(math.inf,), seeds=1, split_ratio=0.7, master_seed=0)
    defaults.update(kw)
    return SweepConfig(**defaults)


def test_single_cell_single_row():
    cfg = config_for()
    rows = run_sweep(cfg, samples=synthetic_samples())
    assert len(rows) == 1
    assert rows[0].status == "ok"
    assert 0.0 <= rows[0].delta_sp <= 1.0
    assert rows[0].mse_raw >= 0.0


def test_k1_cells_are_exactly_fair():
    cfg = config_for(ks=(1,), alphas=(0.3,), seeds=3, epsilons=(0.5,))
    rows = run_sweep(cfg, samples=synthetic_samples())
    assert all(r.delta_sp == 0.0 for r in rows)


def test_baseline_cell_matches_pure_discretization():
    """alpha = inf, eps = inf is the not-post-processed baseline: its MSE is
    the pure-discretization MSE and its gap the raw disparity."""
    samples = synthetic_samples()
    cfg = config_for(alphas=(math.inf,), ks=(6,), epsilons=(math.inf,), seeds=1)
    row = run_sweep(cfg, samples=samples)[0]

    from fairpost.sweep import _split_seed
    train, test = split_train_test(samples, 0.7, seed=_split_seed(0, 0))
    g = make_grid(0, 1, 6)
    preds = g.midpoints[discretize_many(g, test.scores)]
    assert row.mse_norm == pytest.approx(mse(preds, test.labels))
    assert row.delta_sp == pytest.approx(
        statistical_parity_gap(test.group_idx, preds, len(samples.groups), g))


def test_cell_failures_recorded_and_run_continues(monkeypatch):
    from fairpost import sweep
    real_estimate = sweep.estimate

    def estimate_failing_at_k2(train, interval, k, *args):
        if k == 2:
            raise ValueError("cannot fit")
        return real_estimate(train, interval, k, *args)
    monkeypatch.setattr(sweep, "estimate", estimate_failing_at_k2)
    samples = synthetic_samples(30)
    cfg = config_for(ks=(2, 3), alphas=(0.1,), seeds=1)
    rows = run_sweep(cfg, samples=samples)
    assert len(rows) == 2
    assert rows[0].status.startswith("error:")
    assert math.isnan(rows[0].mse_raw)
    assert rows[1].status == "ok"


def test_failing_estimate_fails_its_group_and_failing_fit_only_its_cell(monkeypatch):
    """An estimate that raises fails every alpha of its (k, epsilon, seed)
    group; a fit that raises fails its own cell, and the other alphas on the
    same estimate still run."""
    real_estimate, real_fit = sweep.estimate, sweep.fit
    fits = []

    def estimate_failing_at_k2_eps1(train, interval, k, epsilon, rng):
        if (k, epsilon) == (2, 1.0):
            raise ValueError("cannot estimate")
        return real_estimate(train, interval, k, epsilon, rng)

    def fit_failing_once(est, alpha):
        """Fails the first fit at alpha 0.5, k 3, epsilon inf: seed 0's."""
        key = (alpha, est.grid.k, est.epsilon)
        fits.append(key)
        if key == (0.5, 3, math.inf) and fits.count(key) == 1:
            raise ValueError("cannot fit")
        return real_fit(est, alpha)
    monkeypatch.setattr(sweep, "estimate", estimate_failing_at_k2_eps1)
    monkeypatch.setattr(sweep, "fit", fit_failing_once)
    cfg = config_for(alphas=(0.0, 0.5), ks=(2, 3), epsilons=(1.0, math.inf), seeds=2)
    rows = run_sweep(cfg, samples=synthetic_samples(80))
    failed = {(r.alpha, r.k, r.epsilon, r.seed): r.status for r in rows if r.status != "ok"}
    group = {(a, 2, 1.0, s): "error:ValueError: cannot estimate" for a in (0.0, 0.5)
             for s in (0, 1)}
    assert failed == {**group, (0.5, 3, math.inf, 0): "error:ValueError: cannot fit"}
    assert len(rows) == 16 and all(math.isnan(r.mse_raw) for r in rows if r.status != "ok")


def test_cell_is_a_fit_on_its_groups_shared_estimate(monkeypatch):
    """Cell i of group g is fit(estimate(train, ...), alpha): the estimate
    drawn on the stream (master seed, 3, g), scored on the stream (master
    seed, 2, i); the alphas of a group share one estimate and its pmfs."""
    from fairpost.pipeline import estimate, fit
    samples = synthetic_samples(200, seed=5)
    cfg = config_for(alphas=(0.2, 0.0), ks=(3, 5), epsilons=(1.0, math.inf), seeds=2,
                     master_seed=4)
    calls = []

    def recording_fit(est, alpha):
        calls.append((alpha, est, fit(est, alpha)))
        return calls[-1][2]
    monkeypatch.setattr(sweep, "fit", recording_fit)
    rows = run_sweep(cfg, samples=samples)

    def stream(*key):
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))
    groups = list(itertools.product(cfg.ks, cfg.epsilons, range(cfg.seeds)))
    for i, row in enumerate(rows):
        g = groups.index((row.k, row.epsilon, row.seed))
        assert i == cfg.alphas.index(row.alpha) * len(groups) + g
        train, test = split_train_test(samples, 0.7, seed=sweep._split_seed(4, row.seed))
        model = fit(estimate(train, (0.0, 1.0), row.k, row.epsilon, stream(4, 3, g)), row.alpha)
        expected = sweep.score(model, test, stream(4, 2, i))
        assert row.status == "ok" and row.lp_objective == model.objective
        assert (row.mse_raw, row.mse_norm, row.delta_sp) == (
            expected["mse_raw"], expected["mse_norm"], expected["delta_sp"])
    by_estimate = {}
    for alpha, est, model in calls:
        by_estimate.setdefault(id(est), []).append((alpha, model.pmfs))
    assert len(by_estimate) == len(groups)
    for fits in by_estimate.values():
        assert sorted(alpha for alpha, _ in fits) == sorted(cfg.alphas)
        assert all(np.array_equal(pmfs, fits[0][1]) for _, pmfs in fits)


def test_lp_objective_is_nonincreasing_in_alpha():
    """Within a (k, epsilon, seed) group every alpha fits the same estimate,
    and the feasible set grows with alpha, so the objective cannot rise."""
    cfg = config_for(alphas=(0.1, 0.0, math.inf, 0.02, 0.3), ks=(3, 8),
                     epsilons=(0.5, math.inf), seeds=3)
    rows = run_sweep(cfg, samples=synthetic_samples(300, seed=2))
    groups = {}
    for r in rows:
        assert r.status == "ok"
        groups.setdefault((r.k, r.epsilon, r.seed), []).append(r)
    assert len(groups) == 12
    for key, group in groups.items():
        objectives = [r.lp_objective for r in sorted(group, key=lambda r: r.alpha)]
        assert all(hi <= lo for lo, hi in zip(objectives, objectives[1:])), (key, objectives)
        assert objectives[-1] == 0.0


def test_timings_time_each_shared_estimate_once(tmp_path):
    """timings.csv holds a cell's own seconds and its group's estimate
    seconds, the latter repeated on each alpha row of the group."""
    cfg = config_for(alphas=(0.0, 0.1, math.inf), ks=(2, 4), epsilons=(1.0,), seeds=2)
    rows = run_sweep(cfg, samples=synthetic_samples(120))
    write_outputs(tmp_path, rows, 0)
    lines = (tmp_path / "timings.csv").read_text().splitlines()
    assert lines[1] == ("alpha,k,epsilon,seed,cell_seconds,estimate_seconds,fit_seconds,"
                        "score_seconds")
    assert len(lines) == 2 + 12
    by_group = {}
    for line in lines[2:]:
        alpha, k, eps, seed, cell, est, _, _ = line.split(",")
        assert float(cell) > 0.0 and float(est) > 0.0
        by_group.setdefault((k, eps, seed), set()).add(est)
    assert len(by_group) == 4 and all(len(v) == 1 for v in by_group.values())


def test_timings_split_each_cell_into_fit_and_score(tmp_path, monkeypatch):
    """fit_seconds and score_seconds are >= 0 and sum to no more than
    cell_seconds, on ok cells, on a cell whose scoring raised, and on the
    cells of an estimate that raised (all three 0 there)."""
    real_score, real_estimate = sweep.score, sweep.estimate

    def score_failing_at_alpha0(model, samples, rng):
        if model.alpha == 0.0:
            raise ValueError("cannot score")
        return real_score(model, samples, rng)

    def estimate_failing_at_k2(train, interval, k, epsilon, rng):
        if k == 2:
            raise ValueError("cannot estimate")
        return real_estimate(train, interval, k, epsilon, rng)
    monkeypatch.setattr(sweep, "score", score_failing_at_alpha0)
    monkeypatch.setattr(sweep, "estimate", estimate_failing_at_k2)
    cfg = config_for(alphas=(0.0, 0.1, math.inf), ks=(2, 4, 9), epsilons=(1.0,), seeds=2)
    write_outputs(tmp_path, run_sweep(cfg, samples=synthetic_samples(120)), 0)
    lines = (tmp_path / "timings.csv").read_text().splitlines()
    statuses = [line.rsplit(",", 1)[1]
                for line in (tmp_path / "results.csv").read_text().splitlines()[2:]]
    assert len(lines) == 2 + 18 and len(statuses) == 18
    for line, status in zip(lines[2:], statuses):
        alpha, k, _, _, cell, _, fit_s, score_s = line.split(",")
        cell, fit_s, score_s = float(cell), float(fit_s), float(score_s)
        assert fit_s >= 0.0 and score_s >= 0.0 and fit_s + score_s <= cell
        if k == "2":
            assert status == "error:ValueError: cannot estimate"
            assert cell == fit_s == score_s == 0.0
        elif alpha == "0.0":
            assert status == "error:ValueError: cannot score"
            assert fit_s > 0.0
        else:
            assert status == "ok" and fit_s > 0.0 and score_s > 0.0


def test_sweep_in_raw_units_matches_the_unit_scale_sweep():
    """Scores and labels on [1, 4] sweep like their [0, 1] originals: the same
    fits and parity gaps, the same mse_norm, and nine times the mse_raw."""
    unit = synthetic_samples(200, seed=3)
    raw = GroupedSamples(groups=unit.groups, group_idx=unit.group_idx,
                         scores=1.0 + 3.0 * unit.scores, labels=1.0 + 3.0 * unit.labels)
    grid = dict(alphas=(0.0, 0.1, math.inf), ks=(4, 9), epsilons=(1.0,), seeds=2)
    expected = run_sweep(config_for(**grid), samples=unit)
    got = run_sweep(config_for(schema=DatasetSchema(interval=(1.0, 4.0)), **grid), samples=raw)
    for e, g in zip(expected, got):
        assert g.status == e.status == "ok"
        assert (g.delta_sp, g.lp_objective) == (e.delta_sp, e.lp_objective)
        assert g.mse_norm == pytest.approx(e.mse_norm, rel=1e-12)
        assert g.mse_raw == pytest.approx(9.0 * e.mse_raw, rel=1e-12)
    assert any(g.delta_sp > 0 for g in got)


def test_label_less_samples_are_rejected_before_any_cell():
    samples = synthetic_samples(40)
    unlabeled = GroupedSamples(groups=samples.groups, group_idx=samples.group_idx,
                               scores=samples.scores)
    with pytest.raises(ValueError, match="labeled samples"):
        run_sweep(config_for(), samples=unlabeled)


def canonical_cells(cfg):
    """The canonical cell order: alpha-major, then k, epsilon and seed."""
    return list(itertools.product(cfg.alphas, cfg.ks, cfg.epsilons, range(cfg.seeds)))


def test_rows_come_back_in_canonical_order():
    cfg = config_for(alphas=(0.0, 0.5), ks=(2, 3), epsilons=(1.0, math.inf), seeds=2)
    rows = run_sweep(cfg, samples=synthetic_samples(60))
    expected = canonical_cells(cfg)
    assert [(r.alpha, r.k, r.epsilon, r.seed) for r in rows] == expected


def test_sweep_delta_sp_tracks_alpha():
    """Seed-averaged disparity must not grow when alpha shrinks (2-SE slack)."""
    cfg = config_for(alphas=(0.0, 0.1, 0.25, 0.5, math.inf), ks=(8,),
                     epsilons=(math.inf,), seeds=8)
    rows = run_sweep(cfg, samples=synthetic_samples(400, seed=4))
    aggs = aggregate(rows)
    by_alpha = sorted(aggs, key=lambda a: a.alpha)
    for lo, hi in zip(by_alpha[:-1], by_alpha[1:]):
        slack = 2 * (lo.delta_sp_se + hi.delta_sp_se)
        assert lo.delta_sp_mean <= hi.delta_sp_mean + slack


def test_smaller_k_gives_smaller_gap_without_postprocessing():
    cfg = config_for(alphas=(math.inf,), ks=(2, 32), epsilons=(math.inf,), seeds=6)
    rows = run_sweep(cfg, samples=synthetic_samples(500, seed=9))
    aggs = {a.k: a.delta_sp_mean for a in aggregate(rows)}
    assert aggs[2] <= aggs[32] + 1e-9


# ------------------------------------------------------------ lower envelope


def test_envelope_drops_dominated_point():
    pts = [(0.1, 0.5), (0.2, 0.4), (0.15, 0.6)]
    assert lower_envelope(pts) == [(0.1, 0.5), (0.2, 0.4)]


def test_envelope_single_point():
    assert lower_envelope([(0.3, 0.2)]) == [(0.3, 0.2)]


def test_envelope_deduplicates():
    assert lower_envelope([(0.1, 0.5), (0.1, 0.5)]) == [(0.1, 0.5)]


def brute_force_envelope(pts):
    pts = sorted(set(pts))
    keep = []
    for d, m in pts:
        dominated = any((d2 <= d and m2 <= m and (d2 < d or m2 < m))
                        for d2, m2 in pts)
        if not dominated:
            keep.append((d, m))
    return keep


@given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 2)), min_size=1, max_size=40))
def test_envelope_matches_brute_force(pts):
    assert lower_envelope(pts) == brute_force_envelope(pts)


@given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 2)), min_size=1, max_size=40))
def test_envelope_sorted_and_strictly_improving(pts):
    env = lower_envelope(pts)
    ds = [d for d, _ in env]
    ms = [m for _, m in env]
    assert ds == sorted(ds)
    assert all(a > b for a, b in zip(ms[:-1], ms[1:])) or len(ms) == 1


# --------------------------------------------------------------------- CLI


def test_cli_fit_apply_evaluate(tmp_path):
    data = write_synthetic_csv(tmp_path)
    model = tmp_path / "model.json"
    rc = main(["fit", "--data", str(data), "--k", "5", "--alpha", "0.1",
               "--epsilon", "inf", "--seed", "3", "--out", str(model)])
    assert rc == 0 and model.exists()

    preds = tmp_path / "preds.csv"
    rc = main(["apply", "--model", str(model), "--data", str(data),
               "--seed", "1", "--out", str(preds)])
    assert rc == 0
    lines = preds.read_text().splitlines()
    assert lines[0].startswith("#") and lines[1] == "group,score,prediction"
    assert len(lines) == 2 + 240

    report = tmp_path / "report.json"
    rc = main(["evaluate", "--model", str(model), "--data", str(data),
               "--seed", "1", "--out", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert set(doc) >= {"mse_raw", "mse_norm", "delta_sp", "n"}
    assert 0.0 <= doc["delta_sp"] <= 1.0


def test_cli_apply_and_evaluate_read_units_from_the_model(tmp_path):
    """A model fitted on [1, 4] predicts raw scores into [1, 4]; apply and
    evaluate give the same bytes with the fit's schema and without one."""
    rng = np.random.default_rng(12)
    ys = 1.0 + 3.0 * rng.beta(2, 3, 3000)
    labels = np.clip(ys + rng.normal(0.0, 0.3, 3000), 1.0, 4.0)
    data = tmp_path / "raw.csv"
    data.write_text("group,score,label\n" + "".join(
        f"{'AB'[i % 2]},{y!r},{z!r}\n" for i, (y, z) in enumerate(zip(ys.tolist(),
                                                                      labels.tolist()))))
    schema = tmp_path / "schema.json"
    schema.write_text('{"interval": [1, 4]}')
    model = tmp_path / "model.json"
    assert main(["fit", "--data", str(data), "--schema", str(schema), "--k", "8",
                 "--alpha", "0.05", "--epsilon", "inf", "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    assert doc["transform"] == {"offset": "1", "scale": "3"}
    assert (doc["grid"]["s"], doc["grid"]["t"]) == ("0", "1")
    outputs = {}
    for name, extra in (("with", ["--schema", str(schema)]), ("without", [])):
        for command in ("apply", "evaluate"):
            out = tmp_path / f"{command}-{name}.out"
            assert main([command, "--model", str(model), "--data", str(data), "--seed", "2",
                         "--out", str(out), *extra]) == 0
            outputs[command, name] = out.read_bytes()
    assert outputs["apply", "with"] == outputs["apply", "without"]
    assert outputs["evaluate", "with"] == outputs["evaluate", "without"]
    preds = [float(line.rsplit(",", 1)[1])
             for line in outputs["apply", "with"].decode().splitlines()[2:]]
    assert len(preds) == 3000 and all(1.0 <= p <= 4.0 for p in preds)
    report = json.loads(outputs["evaluate", "with"])
    assert report["out_of_range"] == 0
    assert report["mse_norm"] == pytest.approx(report["mse_raw"] / 9.0, rel=1e-12)


def test_cli_exit_codes(tmp_path):
    data = write_synthetic_csv(tmp_path)
    model = tmp_path / "model.json"
    # config error: bad hyperparameter
    assert main(["fit", "--data", str(data), "--k", "0", "--alpha", "0.1",
                 "--epsilon", "inf", "--out", str(model)]) == 2
    # data error: missing file
    assert main(["fit", "--data", str(tmp_path / "missing.csv"), "--k", "2",
                 "--alpha", "0.1", "--epsilon", "inf", "--out", str(model)]) == 3
    # data error: unknown group at apply time
    main(["fit", "--data", str(data), "--k", "2", "--alpha", "0.1",
          "--epsilon", "inf", "--out", str(model)])
    other = tmp_path / "other.csv"
    other.write_text("group,score,label\nZ,0.5,0.5\n")
    assert main(["apply", "--model", str(model), "--data", str(other),
                 "--seed", "0", "--out", str(tmp_path / "p.csv")]) == 3


def sweep_config_file(tmp_path, data, **overrides):
    doc = {
        "data": str(data),
        "alphas": [0.0, "inf"],
        "ks": [1, 3],
        "epsilons": ["inf"],
        "seeds": 2,
        "split_ratio": 0.7,
    }
    doc.update(overrides)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    return path


def test_cli_sweep_writes_deterministic_outputs(tmp_path):
    data = write_synthetic_csv(tmp_path, n=120)
    cfg = sweep_config_file(tmp_path, data)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    for out in (out1, out2):
        rc = main(["sweep", "--config", str(cfg), "--seed", "11",
                   "--out", str(out), "--allow-budget-reuse"])
        assert rc == 0
    for name in ("results.csv", "aggregates.csv", "envelope.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    header = (out1 / "results.csv").read_text().splitlines()[0]
    assert header.startswith("#") and "master_seed=11" in header


def test_pool_workers_write_the_bytes_of_one_worker(tmp_path):
    """Pool workers run the parent's samples, for an in-memory sweep and for
    a sweep of a file: --workers 2 writes what --workers 1 writes."""
    grid = dict(alphas=(0.0, math.inf), ks=(1, 3), epsilons=(1.0, math.inf), seeds=2)
    samples = synthetic_samples(120)
    cfg = sweep_config_file(tmp_path, write_synthetic_csv(tmp_path, n=120),
                            epsilons=[1.0, "inf"])
    for workers in (1, 2):
        rows = run_sweep(config_for(workers=workers, **grid), samples=samples)
        assert len(rows) == 16 and all(r.status == "ok" for r in rows)
        (tmp_path / f"memory{workers}").mkdir()
        write_outputs(tmp_path / f"memory{workers}", rows, 0)
        assert main(["sweep", "--config", str(cfg), "--workers", str(workers),
                     "--out", str(tmp_path / f"file{workers}"), "--allow-budget-reuse"]) == 0
    for run in ("memory", "file"):
        for name in ("results.csv", "aggregates.csv", "envelope.csv"):
            assert ((tmp_path / f"{run}1" / name).read_bytes()
                    == (tmp_path / f"{run}2" / name).read_bytes())


def test_more_seeds_than_workers_write_the_bytes_of_one_worker(tmp_path):
    """Five seeds on two workers: each worker runs several seeds, and the
    rows still come back in canonical order."""
    cfg = sweep_config_file(tmp_path, write_synthetic_csv(tmp_path, n=120),
                            alphas=[0.0, 0.2, "inf"], ks=[2, 4], epsilons=[1.0, "inf"], seeds=5)
    for workers in (1, 2):
        assert main(["sweep", "--config", str(cfg), "--workers", str(workers),
                     "--out", str(tmp_path / f"out{workers}"), "--allow-budget-reuse"]) == 0
    for name in ("results.csv", "aggregates.csv", "envelope.csv"):
        assert (tmp_path / "out1" / name).read_bytes() == (tmp_path / "out2" / name).read_bytes()
    assert len((tmp_path / "out1" / "results.csv").read_text().splitlines()) == 2 + 60


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, starts no
    process, and runs the initializer and every task in this process."""

    def __init__(self, sizes, max_workers, initializer, initargs):
        sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("seeds, workers, pools", [
    (3, 64, [3]), (3, 2, [2]), (1, 64, []), (3, 1, []),
], ids=["capped_by_tasks", "capped_by_workers", "one_task_runs_here", "one_worker_runs_here"])
def test_pool_holds_no_more_workers_than_tasks(monkeypatch, seeds, workers, pools):
    """Each seed is one task, and a fork pool starts all its workers up
    front: no more workers than seeds."""
    sizes = []
    monkeypatch.setattr(sweep.concurrent.futures, "ProcessPoolExecutor",
                        lambda **kw: RecordingPool(sizes, **kw))
    monkeypatch.setattr(sweep, "_WORKER_STATE", {})
    cfg = config_for(alphas=(0.0, math.inf), ks=(1, 3), seeds=seeds, workers=workers)
    rows = run_sweep(cfg, samples=synthetic_samples(120))
    assert len(rows) == 4 * seeds and all(r.status == "ok" for r in rows)
    assert sizes == pools


def test_fewer_than_one_worker_is_a_config_error(tmp_path, capsys):
    with pytest.raises(ValueError, match="need at least one worker, got 0"):
        config_for(workers=0)
    cfg = sweep_config_file(tmp_path, write_synthetic_csv(tmp_path))
    assert main(["sweep", "--config", str(cfg), "--workers", "0",
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: config {cfg}: need at least one worker, got 0\n"
    assert not (tmp_path / "o").exists()


def test_law_school_sweep_config_holds_the_paper_grid():
    """The checked-in Law School config loads as 3,000 cells on [1, 4]."""
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "law_school_sweep.json"
    cfg = _sweep_config(build_parser().parse_args(
        ["sweep", "--config", str(path), "--out", "unused"]))
    assert len(canonical_cells(cfg)) == 3000
    assert (cfg.data_path, cfg.schema.interval) == ("data/law_school.csv", (1.0, 4.0))


def test_cli_sweep_budget_guard(tmp_path, capsys):
    data = write_synthetic_csv(tmp_path, n=60)
    cfg = sweep_config_file(tmp_path, data, epsilons=[1.0], seeds=2)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    # the two alphas share each (k, epsilon, seed) estimate: 2 ks x 2 seeds
    assert "spends the privacy budget 4 times" in capsys.readouterr().err
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--allow-budget-reuse"]) == 0
    # a single private fit needs no acknowledgement
    cfg1 = sweep_config_file(tmp_path, data, epsilons=[1.0], seeds=1,
                             alphas=[0.1], ks=[2])
    assert main(["sweep", "--config", str(cfg1), "--out", str(tmp_path / "o1")]) == 0
    # nor do many alphas on a single private estimate
    cfg3 = sweep_config_file(tmp_path, data, epsilons=[1.0, "inf"], seeds=1,
                             alphas=[0.0, 0.1, "inf"], ks=[2])
    assert main(["sweep", "--config", str(cfg3), "--out", str(tmp_path / "o3")]) == 0


@pytest.mark.parametrize("field, values, repeated", [
    ("alphas", [0.1, 0.1], "0.1"),
    ("alphas", [0, "inf", "Infinity"], "inf"),
    ("ks", [3, 2, 3], "3"),
    ("epsilons", [1, "inf", 1.0], "1.0"),
], ids=["alphas", "alphas_inf_spellings", "ks", "epsilons"])
def test_repeated_sweep_values_are_a_config_error(tmp_path, capsys, field, values, repeated):
    """A repeated value would count each of its seeds twice in the
    aggregates (and share the noise of its estimates without saying so)."""
    cfg = sweep_config_file(tmp_path, write_synthetic_csv(tmp_path, n=60), **{field: values})
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--allow-budget-reuse"]) == 2
    assert capsys.readouterr().err == (
        f"config error: config {cfg}: {field} holds {repeated} more than once\n")
    assert not (tmp_path / "o").exists()


def test_cli_sweep_bad_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"alphas": [0.1]}))  # no data key
    assert main(["sweep", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2


def test_cli_solver_failure_exit_code(tmp_path, monkeypatch):
    import fairpost.cli
    from fairpost.errors import SolverFailure

    def boom(*args, **kw):
        raise SolverFailure("synthetic breakdown")

    monkeypatch.setattr(fairpost.cli.pipeline, "fit", boom)
    data = write_synthetic_csv(tmp_path, n=20)
    rc = main(["fit", "--data", str(data), "--k", "2", "--alpha", "0.1",
               "--epsilon", "inf", "--out", str(tmp_path / "m.json")])
    assert rc == 4


def test_results_csv_format(tmp_path):
    cfg = config_for(alphas=(0.1, math.inf), ks=(2,), epsilons=(math.inf,), seeds=1)
    rows = run_sweep(cfg, samples=synthetic_samples(40))
    path = tmp_path / "r.csv"
    write_results_csv(path, rows, master_seed=7)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# fairpost")
    assert lines[1].split(",")[:4] == ["alpha", "k", "epsilon", "seed"]
    assert lines[3].startswith("inf,")  # infinity sentinel spelled "inf"
