#!/usr/bin/env python3
"""Generate a synthetic canonical CSV (group, score, label) for demos.

Four groups A-D with Beta(2,5), Beta(5,2), Beta(2,2) and Beta(0.7,0.9)
scores in shares of 40/30/20/10 %; labels are the score plus N(0, 0.1)
noise, clipped to [0, 1].  The rows come from ``perfbench/synth.py``, the
generator the benchmark uses, so ``--seed`` and ``--n`` give the same rows
as the benchmark's training stream.

Usage: python scripts/make_synthetic_data.py --out data/synthetic.csv --n 2000
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

import synth

parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--out", required=True)
parser.add_argument("--n", type=int, default=2000)
parser.add_argument("--seed", type=int, default=0)
args = parser.parse_args()

path = pathlib.Path(args.out)
path.parent.mkdir(parents=True, exist_ok=True)
synth.write_csv(path, *synth.make_rows(args.seed, synth.TRAIN, args.n))
print(f"wrote {args.n} rows to {path}", file=sys.stderr)
