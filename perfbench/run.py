#!/usr/bin/env python3
"""End-to-end benchmark of fairpost, one workload per process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit-k100 --seed 0 --seconds 35 --trace 0

The benchmark generates its inputs from ``--seed``, sets them up, then
repeats the workload's operation in a closed loop (one caller, one process)
for about ``--seconds`` seconds, checking every output against reference
code in ``checks.py``.  It prints a summary with sample counts and, as the
last line of standard output, one JSON object: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run.  README.md in this directory defines every metric.

fairpost is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import checks
import synth
from spans import Target, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")

# set-up is repeated and its median reported, so that one slow import or
# page-cache miss does not decide the figure
SETUP_REPEATS = 3
# a run never stops before this many cycles of operations: the sweep's
# rerun check and the traced-versus-untraced comparison each need two
MIN_CYCLES = 2
# predict-online times every call but reads the clock for the stop rule,
# and checks its outputs, once per batch
PREDICT_BATCH = 1000
# the highest percentile of single predict calls that repeated across runs
TAIL_PCT = 95

TRAIN_ROWS = 20_000
APPLY_ROWS = 50_000
QUERY_ROWS = 100_000
SWEEP_ROWS = 22_000
MODEL_K = 36
FIT_K = 100
FIT_SEEDS = (0, 1, 2)
SWEEP_CONFIG = {"alphas": [0.0, 0.05, "inf"], "ks": [12, 36, 60],
                "epsilons": [1.0, "inf"], "seeds": 2, "split_ratio": 0.7}
# the sweep's cells as results.csv spells them
SWEEP_CELLS = {(a if a == "inf" else repr(a), str(k), e if e == "inf" else repr(e), str(s))
               for a in SWEEP_CONFIG["alphas"] for k in SWEEP_CONFIG["ks"]
               for e in SWEEP_CONFIG["epsilons"] for s in range(SWEEP_CONFIG["seeds"])}

END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}

SOLVE_KS = (12, 36, 60, 100)
CELL_ALPHAS = {"alpha0": 0.0, "alpha0.05": 0.05, "alphainf": math.inf}
CELL_KS = (12, 36, 60)
# metric name -> span whose self time it sums over one operation
SELF_TIME = {
    "cli.self_ms": "cli",
    "data_io.load_csv_ms": "data_io.load_csv",
    "data_io.split_train_test_ms": "data_io.split_train_test",
    "dp_estimation.estimate_private_dists_ms": "dp_estimation.estimate_private_dists",
    "barycenter_lp.build_lp_ms": "barycenter_lp.build_lp",
    "barycenter_lp.highs_ms": "barycenter_lp.highs",
    "barycenter_lp.repair_ms": "barycenter_lp.solve",
    "transport.extract_kernels_ms": "transport.extract_kernels",
    "pipeline.fit_self_ms": "pipeline.fit",
    "pipeline.save_ms": "pipeline.save",
    "pipeline.load_ms": "pipeline.load",
    "pipeline.predict_batch_ms": "pipeline.predict_batch",
    "metrics.statistical_parity_gap_ms": "metrics.statistical_parity_gap",
    "metrics.mse_ms": "metrics.mse",
    "sweep.run_sweep_self_ms": "sweep.run_sweep",
    "sweep.run_cell_self_ms": "sweep.run_cell",
    "sweep.aggregate_ms": "sweep.aggregate",
    "sweep.write_ms": "sweep.write",
}
# metric name -> tag total over one operation; these repeat exactly for
# the same input
COUNTS = {
    "barycenter_lp.nnz": "barycenter_lp.build_lp.nnz",
    "barycenter_lp.highs_iterations": "barycenter_lp.highs.iterations",
    "barycenter_lp.monotone_coupling_calls": "monotone_coupling",
    "pipeline.model_bytes": "pipeline.save.bytes",
    "pipeline.rows_predicted": "pipeline.predict_batch.rows",
    "sweep.cells": "sweep.run_sweep.cells",
    "sweep.cells_failed": "sweep.run_sweep.failed",
}


def per_layer_units() -> dict[str, str]:
    units = dict.fromkeys(SELF_TIME, "ms")
    units.update({f"barycenter_lp.solve_ms.k{k}": "ms" for k in SOLVE_KS})
    units.update({f"sweep.run_cell_ms.{a}": "ms" for a in CELL_ALPHAS})
    units.update({f"sweep.run_cell_ms.k{k}": "ms" for k in CELL_KS})
    units["pipeline.predict_batch_us_per_row"] = "us"
    units.update({f"barycenter_lp.n_vars.k{k}": "count" for k in SOLVE_KS})
    units.update({name: "count" for name in COUNTS})
    units["pipeline.model_bytes"] = "bytes"
    units.update({"trace.op_p50_ms": "ms", "trace.untraced_op_p50_ms": "ms",
                  "trace_overhead_pct": "%"})
    return units


def import_fairpost():
    """Import fairpost from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "fairpost", "__init__.py")):
        print(f"perfbench: no fairpost sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import fairpost.cli
    if os.path.dirname(os.path.dirname(os.path.abspath(fairpost.__file__))) != SRC:
        print(f"perfbench: fairpost came from {fairpost.__file__}", file=sys.stderr)
        sys.exit(2)
    return fairpost


def trace_targets() -> list[Target]:
    """The public functions that fit, apply and sweep reach, each replaced
    at the name its caller looks it up under.  Single predict calls are
    not wrapped: a span per row would distort apply-bulk and sweep-grid,
    and in predict-online the call already is the operation."""
    from fairpost import barycenter_lp, cli, dp_estimation, pipeline, sweep, transport
    model = pipeline.FairPostprocessor
    lp_tags = lambda args, lp: {"k": lp.k, "n_vars": lp.n_vars, "nnz": lp.a_eq.nnz + (
        0 if lp.a_ub is None else lp.a_ub.nnz)}
    solve_tags = lambda args, sol: {"k": args[0].k, "alpha": args[0].alpha}
    cell_tags = lambda args, row: {"k": row.k, "alpha": row.alpha}
    sweep_tags = lambda args, rows: {"cells": len(rows),
                                     "failed": sum(r.status != "ok" for r in rows)}
    return [
        Target(cli, "load_csv", "data_io.load_csv"),
        Target(pipeline, "fit", "pipeline.fit"),
        Target(pipeline, "load", "pipeline.load"),
        Target(model, "save", "pipeline.save",
               lambda args, _: {"bytes": os.path.getsize(args[1])}),
        Target(model, "predict_batch", "pipeline.predict_batch",
               lambda args, preds: {"rows": len(preds)}),
        Target(dp_estimation, "estimate_private_dists", "dp_estimation.estimate_private_dists"),
        Target(barycenter_lp, "build_lp", "barycenter_lp.build_lp", lp_tags),
        Target(barycenter_lp, "solve", "barycenter_lp.solve", solve_tags),
        Target(barycenter_lp, "linprog", "barycenter_lp.highs",
               lambda args, res: {"iterations": int(res.nit)}),
        Target(barycenter_lp, "monotone_coupling", None),
        Target(transport, "extract_kernels", "transport.extract_kernels"),
        Target(sweep, "load_csv", "data_io.load_csv"),
        Target(sweep, "split_train_test", "data_io.split_train_test"),
        Target(sweep, "fit", "pipeline.fit"),
        Target(sweep, "mse", "metrics.mse"),
        Target(sweep, "statistical_parity_gap", "metrics.statistical_parity_gap"),
        Target(sweep, "run_cell", "sweep.run_cell", cell_tags),
        Target(sweep, "run_sweep", "sweep.run_sweep", sweep_tags),
        Target(sweep, "aggregate", "sweep.aggregate"),
        Target(sweep, "write_results_csv", "sweep.write"),
        Target(sweep, "write_aggregates_csv", "sweep.write"),
        Target(sweep, "write_envelope_csv", "sweep.write"),
        Target(sweep, "write_timings_csv", "sweep.write"),
    ]


def run_cli(fp, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return fp.cli.main(argv)


class Workload:
    """Inputs, one operation and its output check.

    ``op(i)`` returns the latencies it measured in seconds, how many of
    them failed, and the failure messages.  ``cycle`` operations in a row
    cover every input variant once, and a run always ends on a whole
    cycle.  While ``tracer`` is set, commands run inside a ``cli`` span."""

    cycle = 1
    tracer: Tracer | None = None

    def __init__(self, fp, workdir, seed):
        self.fp, self.dir, self.seed = fp, workdir, seed

    def path(self, name) -> str:
        return os.path.join(self.dir, name)

    def write_rows(self, name, stream, n):
        rows = synth.make_rows(self.seed, stream, n)
        synth.write_csv(self.path(name), *rows)
        return rows

    def command(self, *argv):
        argv = [str(a) for a in argv]
        t0 = time.perf_counter()
        if self.tracer is None:
            rc = run_cli(self.fp, argv)
        else:
            rc = self.tracer.call("cli", run_cli, self.fp, argv)
        return time.perf_counter() - t0, rc

    def fit_model(self):
        """Set-up of apply-bulk and predict-online: fit and save a k=36
        model through the CLI, and read it back for the reference sampler."""
        self.write_rows("train.csv", synth.TRAIN, TRAIN_ROWS)
        _, rc = self.command("fit", "--data", self.path("train.csv"), "--k", MODEL_K,
                             "--alpha", 0.05, "--epsilon", 1, "--seed", 0,
                             "--out", self.path("model.json"))
        if rc != 0:
            raise RuntimeError(f"set-up fit exited with {rc}")
        self.model = checks.read_model(self.path("model.json"))
        # synth group index -> index in the model's group list
        self.group_map = np.array([self.model.groups.index(g) for g in synth.GROUPS])


class FitK100(Workload):
    name = "fit-k100"
    unit_of_work = "training rows"
    work_per_op = TRAIN_ROWS
    cycle = len(FIT_SEEDS)

    def setup(self):
        self.write_rows("train.csv", synth.TRAIN, TRAIN_ROWS)
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            stored = json.load(fh)["fit-k100"].get(str(self.seed), {})
        # without a stored objective for this seed, the run's first fit is the reference
        self.reference = {int(s): v for s, v in stored.items()}

    def op(self, i):
        fit_seed = FIT_SEEDS[i % self.cycle]
        out = self.path(f"model-{fit_seed}.json")
        wall, rc = self.command("fit", "--data", self.path("train.csv"), "--k", FIT_K,
                                "--alpha", 0.05, "--epsilon", 1, "--seed", fit_seed,
                                "--out", out)
        if rc != 0:
            return [wall], 1, [f"fit exited with {rc}"]
        model = checks.read_model(out)
        self.reference.setdefault(fit_seed, model.objective)
        errors = checks.check_fit(model, self.reference[fit_seed])
        return [wall], int(bool(errors)), errors


class ApplyBulk(Workload):
    name = "apply-bulk"
    unit_of_work = "rows"
    work_per_op = APPLY_ROWS

    def setup(self):
        self.fit_model()
        group_idx, self.scores, _ = self.write_rows("apply.csv", synth.APPLY, APPLY_ROWS)
        self.group_idx = self.group_map[group_idx]

    def op(self, i):
        out = self.path("predictions.csv")
        wall, rc = self.command("apply", "--model", self.path("model.json"),
                                "--data", self.path("apply.csv"), "--seed", i, "--out", out)
        if rc != 0:
            return [wall], 1, [f"apply exited with {rc}"]
        uniforms = np.random.default_rng(i).random(APPLY_ROWS)
        expected = checks.reference_predictions(self.model, self.group_idx, self.scores,
                                                uniforms)
        errors = checks.check_predictions(expected, checks.read_apply_csv(out))
        return [wall], int(bool(errors)), errors


class PredictOnline(Workload):
    name = "predict-online"
    unit_of_work = "calls"
    work_per_op = 1

    def setup(self):
        self.fit_model()
        self.predictor = self.fp.pipeline.load(self.path("model.json"))
        group_idx, scores, _ = synth.make_rows(self.seed, synth.QUERIES, QUERY_ROWS)
        self.queries = [(synth.GROUPS[g], y) for g, y in zip(group_idx.tolist(),
                                                             scores.tolist())]
        self.query_group_idx = self.group_map[group_idx]
        self.query_scores = scores
        self.rng = np.random.default_rng(self.seed)
        self.reference_rng = np.random.default_rng(self.seed)
        self.next_query = 0

    def op(self, i):
        start = self.next_query
        self.next_query = (start + PREDICT_BATCH) % QUERY_ROWS
        batch = self.queries[start:start + PREDICT_BATCH]
        predict, rng, clock = self.predictor.predict, self.rng, time.perf_counter_ns
        latencies, got = np.empty(len(batch)), np.empty(len(batch))
        for j, (group, score) in enumerate(batch):
            t0 = clock()
            got[j] = predict(group, score, rng)
            latencies[j] = clock() - t0
        idx = slice(start, start + len(batch))
        expected = checks.reference_predictions(
            self.model, self.query_group_idx[idx], self.query_scores[idx],
            self.reference_rng.random(len(batch)))
        # every call is an operation of its own here
        return (latencies / 1e9, int(np.count_nonzero(expected != got)),
                checks.check_predictions(expected, got))


class SweepGrid(Workload):
    name = "sweep-grid"
    unit_of_work = "cells"
    work_per_op = len(SWEEP_CELLS)

    def setup(self):
        self.write_rows("sweep.csv", synth.SWEEP, SWEEP_ROWS)
        with open(self.path("sweep.json"), "w", encoding="utf-8") as fh:
            json.dump(dict(SWEEP_CONFIG, data=self.path("sweep.csv")), fh)
        self.first_results = None

    def op(self, i):
        out = self.path("sweep-out")
        wall, rc = self.command("sweep", "--config", self.path("sweep.json"),
                                "--seed", self.seed, "--workers", 1, "--out", out,
                                "--allow-budget-reuse")
        if rc != 0:
            return [wall], 1, [f"sweep exited with {rc}"]
        with open(os.path.join(out, "results.csv"), "rb") as fh:
            results = fh.read()
        errors = checks.check_sweep(results, SWEEP_CELLS, self.first_results)
        if self.first_results is None:
            self.first_results = results
        return [wall], int(bool(errors)), errors


WORKLOADS = {w.name: w for w in (FitK100, ApplyBulk, PredictOnline, SweepGrid)}


def measure(wl: Workload, seconds: float, tracer: Tracer | None):
    """Closed loop over ``wl.op``; with a tracer, whole cycles alternate
    between untraced and traced.  Returns per-call latencies, traced
    latencies, the failure count and the number of calls attempted."""
    # one array per operation, so that memory does not grow by a Python
    # float per predict call
    latencies, traced_latencies = [], []
    failed = attempted = 0
    t_start = time.perf_counter()
    i = 0
    while True:
        traced = tracer is not None and (i // wl.cycle) % 2 == 1
        if traced:
            tracer.op = i
            tracer.install()
            wl.tracer = tracer
        try:
            lat, n_failed, errors = wl.op(i)
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            traceback.print_exc()
            lat, n_failed, errors = [], 1, []
        finally:
            if traced:
                tracer.uninstall()
                wl.tracer = None
        (traced_latencies if traced else latencies).append(np.asarray(lat, dtype=float))
        attempted += max(len(lat), 1)
        failed += n_failed
        for message in errors:
            print(f"{wl.name} op {i}: {message}", file=sys.stderr)
        i += 1
        elapsed = time.perf_counter() - t_start
        if i % wl.cycle == 0 and i >= MIN_CYCLES * wl.cycle and (
                elapsed + elapsed / i * wl.cycle > seconds):
            break
    return (np.concatenate(latencies or [[]]), np.concatenate(traced_latencies or [[]]),
            failed, attempted)


def setup(wl: Workload) -> float:
    """Median over repeats of a fresh CLI import plus the workload's set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        env = dict(os.environ, PYTHONPATH=SRC)
        subprocess.run([sys.executable, "-c", "import fairpost.cli"], env=env, cwd=ROOT,
                       check=True)
        wl.setup()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def median_or_zero(values) -> float:
    values = list(values)
    return float(np.median(values)) if values else 0.0


def layer_metrics(wl: Workload, tracer: Tracer, untraced, traced) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, and the counts that failed to repeat."""
    values = dict.fromkeys(per_layer_units(), 0.0)
    ops = sorted({s.op for s in tracer.spans})
    self_ms = tracer.self_ms_by_op()
    for metric, span in SELF_TIME.items():
        values[metric] = median_or_zero(self_ms[op][span] for op in ops)
    for k in SOLVE_KS:
        values[f"barycenter_lp.solve_ms.k{k}"] = median_or_zero(tracer.durations_ms(
            "barycenter_lp.solve",
            lambda t: t.get("k") == k and not math.isinf(t.get("alpha", math.inf))))
        values[f"barycenter_lp.n_vars.k{k}"] = max(
            [s.tags["n_vars"] for s in tracer.spans
             if s.name == "barycenter_lp.build_lp" and s.tags and s.tags["k"] == k], default=0)
    for name, alpha in CELL_ALPHAS.items():
        values[f"sweep.run_cell_ms.{name}"] = median_or_zero(
            tracer.durations_ms("sweep.run_cell", lambda t: t.get("alpha") == alpha))
    for k in CELL_KS:
        values[f"sweep.run_cell_ms.k{k}"] = median_or_zero(
            tracer.durations_ms("sweep.run_cell", lambda t: t.get("k") == k))
    values["pipeline.predict_batch_us_per_row"] = median_or_zero(
        (s.end - s.start) / 1e3 / s.tags["rows"] for s in tracer.spans
        if s.name == "pipeline.predict_batch" and s.tags and s.tags["rows"])

    # counts come from the first traced operation; every other traced
    # operation on the same input must give the same ones
    totals = {op: tracer.tag_totals(op) for op in ops}
    for metric, key in COUNTS.items():
        values[metric] = totals[ops[0]][key] if ops else 0
    mismatches = []
    first_by_key = {}
    for op in ops:
        counts = {m: totals[op][key] for m, key in COUNTS.items()}
        first = first_by_key.setdefault(op % wl.cycle, counts)
        if counts != first:
            mismatches.append(f"op {op}: counts {counts} differ from {first}")

    traced_p50, untraced_p50 = float(np.median(traced)), float(np.median(untraced))
    values["trace.op_p50_ms"] = traced_p50 * 1e3
    values["trace.untraced_op_p50_ms"] = untraced_p50 * 1e3
    values["trace_overhead_pct"] = 100.0 * (traced_p50 / untraced_p50 - 1.0)
    return values, mismatches


def print_summary(wl, metrics, units, samples, failed, attempted):
    print(f"workload {wl.name}: {attempted} {wl.unit_of_work if wl.work_per_op == 1 else 'ops'}"
          f" attempted, {failed} failed, error_rate {failed / attempted:.6g}")
    for name, value in metrics.items():
        n = samples.get(name)
        print(f"  {name:45s} {value:14.6g} {units[name]:6s}"
              + (f" n={n}" if n is not None else ""))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    fp = import_fairpost()
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = WORKLOADS[args.workload](fp, workdir, args.seed)
        setup_s = setup(wl)
        tracer = Tracer(trace_targets()) if args.trace else None
        untraced, traced, failed, attempted = measure(wl, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not (len(untraced) and (tracer is None or len(traced))):
        print(f"perfbench: every {args.workload} operation raised; nothing was measured",
              file=sys.stderr)
        return 1

    if tracer is None:
        p50 = float(np.median(untraced))
        metrics = {
            "setup_s": setup_s,
            "op_p50_ms": p50 * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        samples = {"setup_s": SETUP_REPEATS, "op_p50_ms": len(untraced)}
        print(f"throughput at the median operation: {wl.work_per_op / p50:.6g} "
              f"{wl.unit_of_work}/s")
        if isinstance(wl, PredictOnline):
            print(f"tail latency (p{TAIL_PCT}): {np.percentile(untraced, TAIL_PCT) * 1e3:.6g} ms, "
                  f"{len(untraced) * (100 - TAIL_PCT) // 100} of {len(untraced)} calls beyond")
    else:
        metrics, mismatches = layer_metrics(wl, tracer, untraced, traced)
        for message in mismatches:
            print(f"{wl.name}: {message}", file=sys.stderr)
        failed += len(mismatches)
        units = per_layer_units()
        samples = {}
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv"))
    print_summary(wl, metrics, units, samples, failed, attempted)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
