#!/usr/bin/env python3
"""Full Law School trade-off experiment: 50 seeds, sweeping alpha and k for
several privacy budgets, 70-30 split per seed, lower envelopes per epsilon.

Needs the canonical CSV from scripts/prepare_law_school.py.  With the
default grid (5 alphas x 4 ks x 3 epsilons x 50 seeds = 3000 cells at
k <= 64) this completes in a few minutes with --workers 4.

Usage:
  python scripts/run_law_school_sweep.py --data data/law_school.csv \
      --out results/law_school --workers 4
"""

import argparse
import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from fairpost.data_io import DatasetSchema
from fairpost.sweep import SweepConfig, run_sweep, write_outputs

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--data", required=True)
parser.add_argument("--out", required=True)
parser.add_argument("--seeds", type=int, default=50)
parser.add_argument("--workers", type=int, default=4)
parser.add_argument("--master-seed", type=int, default=0)
args = parser.parse_args()

# undergraduate GPA lives on [1, 4]; each fit maps it onto its grid on [0, 1]
schema = DatasetSchema(interval=(1.0, 4.0))

cfg = SweepConfig(
    data_path=args.data,
    schema=schema,
    alphas=(0.0, 0.01, 0.02, 0.05, math.inf),
    ks=(1, 12, 36, 60),
    epsilons=(0.1, 1.0, math.inf),
    seeds=args.seeds,
    master_seed=args.master_seed,
    workers=args.workers,
)

out = pathlib.Path(args.out)
out.mkdir(parents=True, exist_ok=True)
rows = run_sweep(cfg)
write_outputs(out, rows, cfg.master_seed)

failures = sum(1 for r in rows if r.status != "ok")
print(f"swept {len(rows)} cells ({failures} failed) -> {out}", file=sys.stderr)
