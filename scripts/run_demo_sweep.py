#!/usr/bin/env python3
"""End-to-end demo: synthetic data -> error/privacy/fairness trade-off CSVs.

Generates the four-group synthetic dataset of scripts/make_synthetic_data.py
(the rows of perfbench/synth.py), sweeps (alpha, k, epsilon) over a small
grid with several seeds, and writes results.csv / aggregates.csv /
envelope.csv under --out.  Runs in well under a minute.

Usage: python scripts/run_demo_sweep.py --out results/demo
"""

import argparse
import math
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import synth
from fairpost.data_io import DatasetSchema, GroupedSamples
from fairpost.sweep import SweepConfig, run_sweep, write_outputs

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--out", required=True)
parser.add_argument("--n", type=int, default=1500)
parser.add_argument("--seeds", type=int, default=10)
parser.add_argument("--master-seed", type=int, default=0)
args = parser.parse_args()

group_idx, scores, labels = synth.make_rows(args.master_seed, synth.TRAIN, args.n)
samples = GroupedSamples(groups=synth.GROUPS, group_idx=group_idx, scores=scores,
                         labels=labels)

cfg = SweepConfig(
    data_path=None,
    schema=DatasetSchema(),
    alphas=(0.0, 0.02, 0.05, 0.1, 0.2, math.inf),
    ks=(1, 4, 12, 24),
    epsilons=(0.5, 2.0, math.inf),
    seeds=args.seeds,
    master_seed=args.master_seed,
)

out = pathlib.Path(args.out)
out.mkdir(parents=True, exist_ok=True)
sweep_rows = run_sweep(cfg, samples=samples)
write_outputs(out, sweep_rows, cfg.master_seed)

failures = sum(1 for r in sweep_rows if r.status != "ok")
print(f"swept {len(sweep_rows)} cells ({failures} failed) -> {out}", file=sys.stderr)
