#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

Each check must pass on real fairpost output and fail on a deliberately
corrupted copy of it: a perturbed kernel row, one changed prediction, a
dropped sweep row.  Run from the repository root:

    python3 perfbench/selftest.py

Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys

import numpy as np

import checks
import run
import synth


def expect(label, errors, should_fail) -> bool:
    ok = bool(errors) == should_fail
    verdict = "fails" if errors else "passes"
    print(f"{'ok  ' if ok else 'BAD '} {label}: check {verdict}"
          + (f" ({errors[0]})" if errors else ""))
    return ok


def command(fp, *argv) -> None:
    rc = run.run_cli(fp, [str(a) for a in argv])
    if rc != 0:
        raise RuntimeError(f"fairpost {argv[0]} exited with {rc}")


def benchmark_json_matches() -> bool:
    """BENCHMARK.json names workloads of run.py and the metrics it reports."""
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    ok = (all(w["name"] in run.WORKLOADS for w in doc["workloads"])
          and {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
          and {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units())
    print(f"{'ok  ' if ok else 'BAD '} BENCHMARK.json lists the workloads and metrics of run.py")
    return ok


def main() -> int:
    fp = run.import_fairpost()
    workdir = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    path = lambda name: os.path.join(workdir, name)
    results = []
    try:
        synth.write_csv(path("train.csv"), *synth.make_rows(0, synth.TRAIN, 4000))
        command(fp, "fit", "--data", path("train.csv"), "--k", 12, "--alpha", 0.05,
                "--epsilon", 1, "--seed", 0, "--out", path("model.json"))
        model = checks.read_model(path("model.json"))
        results.append(expect("fit output", checks.check_fit(model, model.objective), False))

        a, j = 0, int(np.argmax(model.pmfs[0]))
        scaled = model.kernels.copy()
        scaled[a, j] *= 1.01
        results.append(expect("kernel row scaled by 1.01",
                              checks.check_fit(dataclasses.replace(model, kernels=scaled)), True))
        shifted = model.kernels.copy()
        l = int(np.argmax(shifted[a, j]))
        moved = shifted[a, j, l] / 2
        shifted[a, j, l] -= moved
        shifted[a, j, (l + 1) % model.k] += moved
        results.append(expect("kernel row with mass moved to the next bin",
                              checks.check_fit(dataclasses.replace(model, kernels=shifted)), True))
        results.append(expect("objective off the stored reference",
                              checks.check_fit(model, model.objective + 1e-6), True))

        group_idx, scores, labels = synth.make_rows(0, synth.APPLY, 5000)
        synth.write_csv(path("apply.csv"), group_idx, scores, labels)
        command(fp, "apply", "--model", path("model.json"), "--data", path("apply.csv"),
                "--seed", 7, "--out", path("preds.csv"))
        model_idx = np.array([model.groups.index(g) for g in synth.GROUPS])[group_idx]
        expected = checks.reference_predictions(model, model_idx, scores,
                                                np.random.default_rng(7).random(len(scores)))
        got = checks.read_apply_csv(path("preds.csv"))
        results.append(expect("apply output", checks.check_predictions(expected, got), False))
        changed = got.copy()
        changed[123] = model.midpoints[(np.searchsorted(model.midpoints, got[123]) + 1) % model.k]
        results.append(expect("apply output with one prediction changed",
                              checks.check_predictions(expected, changed), True))

        predictor = fp.pipeline.load(path("model.json"))
        rng = np.random.default_rng(3)
        online = np.array([predictor.predict(synth.GROUPS[g], y, rng)
                           for g, y in zip(group_idx[:1000].tolist(), scores[:1000].tolist())])
        expected = checks.reference_predictions(model, model_idx[:1000], scores[:1000],
                                                np.random.default_rng(3).random(1000))
        results.append(expect("online predictions", checks.check_predictions(expected, online),
                              False))
        online[500] = -1.0
        results.append(expect("online predictions with one changed",
                              checks.check_predictions(expected, online), True))

        synth.write_csv(path("sweep.csv"), *synth.make_rows(0, synth.SWEEP, 3000))
        config = {"data": path("sweep.csv"), "alphas": [0.0, "inf"], "ks": [12],
                  "epsilons": [1.0], "seeds": 2}
        with open(path("sweep.json"), "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        command(fp, "sweep", "--config", path("sweep.json"), "--seed", 0,
                "--out", path("sweep-out"), "--allow-budget-reuse")
        with open(path("sweep-out/results.csv"), "rb") as fh:
            sweep_results = fh.read()
        cells = {(a, "12", "1.0", s) for a in ("0.0", "inf") for s in ("0", "1")}
        results.append(expect("sweep results",
                              checks.check_sweep(sweep_results, cells, sweep_results), False))
        dropped = b"\n".join(sweep_results.split(b"\n")[:-2]) + b"\n"
        results.append(expect("sweep results with the last row dropped",
                              checks.check_sweep(dropped, cells, None), True))
        lines = sweep_results.split(b"\n")
        fields = lines[-2].split(b",")
        fields[4] += b"1"
        altered = b"\n".join(lines[:-2] + [b",".join(fields), b""])
        results.append(expect("sweep results with one value changed on a rerun",
                              checks.check_sweep(altered, cells, sweep_results), True))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    results.append(benchmark_json_matches())
    print(f"{sum(results)} of {len(results)} checks behave as expected")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
