#!/usr/bin/env python3
"""Record the fit-k100 objectives that the benchmark checks fits against.

For each workload seed in range(N) and each fit seed of fit-k100, fit the
workload's input once, check it, and store the objective in
reference.json.  Run from the repository root, on a commit whose fits are
known to be right:

    python3 perfbench/make_reference.py 40

A later change to the LP must reproduce these objectives within
checks.OBJECTIVE_TOL; seeds outside the table fall back to the first fit
of the same seed within the run.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import checks
import run
import synth


def main(argv) -> int:
    n_seeds = int(argv[0])
    fp = run.import_fairpost()
    table = {}
    for seed in range(n_seeds):
        workdir = os.path.join(run.WORK, f"reference-{os.getpid()}-{seed}")
        os.makedirs(workdir)
        try:
            wl = run.FitK100(fp, workdir, seed)
            wl.write_rows("train.csv", synth.TRAIN, run.TRAIN_ROWS)
            wl.reference = {}
            table[str(seed)] = {}
            for i, fit_seed in enumerate(run.FIT_SEEDS):
                _, failed, errors = wl.op(i)
                if failed:
                    raise RuntimeError(f"seed {seed}, fit seed {fit_seed}: {errors}")
                objective = checks.read_model(wl.path(f"model-{fit_seed}.json")).objective
                table[str(seed)][str(fit_seed)] = objective
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"seed {seed}: {table[str(seed)]}", file=sys.stderr)
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump({"fit-k100": table}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
