"""Output checks for the benchmark.

Each check reads only what the program wrote (model files, prediction and
results CSVs) and compares it with reference code written here; nothing in
this module imports fairpost.  A check returns a list of failure messages,
empty when the output is correct.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# kernel rows and pushforwards are exact up to float dust of a few ulps
STOCHASTIC_TOL = 1e-9
# HiGHS runs at 1e-10 feasibility; partial sums over k <= 100 bins stay below this
KS_TOL = 1e-8
# the objective is recomputed from the stored pmfs and targets
OBJECTIVE_TOL = 1e-9


@dataclass(frozen=True)
class Model:
    groups: tuple
    midpoints: np.ndarray
    kernels: np.ndarray      # (G, k, k)
    alpha: float
    offset: float
    scale: float
    weights: np.ndarray
    pmfs: np.ndarray
    targets: np.ndarray
    barycenter: np.ndarray
    objective: float

    @property
    def k(self) -> int:
        return len(self.midpoints)


def _floats(cells) -> np.ndarray:
    return np.array([float(c) for c in cells])


def read_model(path) -> Model:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    mids = _floats(doc["grid"]["midpoints"])
    k = len(mids)
    diag = doc["diagnostics"]
    return Model(
        groups=tuple(doc["groups"]),
        midpoints=mids,
        kernels=np.array([_floats(flat) for flat in doc["kernels"]]).reshape(-1, k, k),
        alpha=float(doc["fit"]["alpha"]),
        offset=float(doc["transform"]["offset"]),
        scale=float(doc["transform"]["scale"]),
        weights=_floats(diag["weights"]),
        pmfs=np.array([_floats(row) for row in diag["pmfs"]]),
        targets=np.array([_floats(row) for row in diag["targets"]]),
        barycenter=_floats(diag["barycenter"]),
        objective=float(diag["objective"]),
    )


def w2sq(p: np.ndarray, q: np.ndarray, v: np.ndarray) -> float:
    """Squared 2-Wasserstein cost between two pmfs on sorted support v.

    The monotone coupling moves mass between the quantile functions, which
    are constant between the union of both CDFs' breakpoints."""
    cp, cq = np.cumsum(p), np.cumsum(q)
    edges = np.union1d([0.0], np.union1d(cp, cq))
    widths = np.diff(edges)
    mids = edges[:-1] + widths / 2
    last = len(v) - 1
    i = np.minimum(np.searchsorted(cp, mids, side="right"), last)
    j = np.minimum(np.searchsorted(cq, mids, side="right"), last)
    return float(np.sum(widths * (v[i] - v[j]) ** 2))


def check_fit(m: Model, reference_objective: float | None = None) -> list[str]:
    """Kernels row-stochastic, pmfs pushed through kernels equal targets,
    targets inside the KS ball, objective equal to the weighted W2 cost of
    the stored targets, and (when given) equal to a stored reference."""
    errors = []
    if m.kernels.min() < 0:
        errors.append(f"negative kernel entry {m.kernels.min()}")
    row_err = np.abs(m.kernels.sum(axis=2) - 1.0).max()
    if row_err > STOCHASTIC_TOL:
        errors.append(f"kernel row sums off by {row_err}")
    pushed = np.einsum("aj,ajl->al", m.pmfs, m.kernels)
    push_err = np.abs(pushed - m.targets).max()
    if push_err > STOCHASTIC_TOL:
        errors.append(f"pmfs pushed through kernels miss targets by {push_err}")
    if not math.isinf(m.alpha):
        ks = np.abs(np.cumsum(m.targets - m.barycenter, axis=1)).max()
        if ks > m.alpha / 2 + KS_TOL:
            errors.append(f"KS(target, barycenter) {ks} exceeds alpha/2 = {m.alpha / 2}")
    cost = sum(w * w2sq(p, t, m.midpoints) for w, p, t in zip(m.weights, m.pmfs, m.targets))
    if abs(cost - m.objective) > OBJECTIVE_TOL:
        errors.append(f"objective {m.objective!r} but weighted W2 cost is {cost!r}")
    if reference_objective is not None and abs(m.objective - reference_objective) > OBJECTIVE_TOL:
        errors.append(f"objective {m.objective!r} differs from reference {reference_objective!r}")
    return errors


def discretize(midpoints: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Nearest midpoint; a tie goes to the lower bin, out-of-range clamps."""
    last = len(midpoints) - 1
    hi = np.clip(np.searchsorted(midpoints, y), 0, last)
    lo = np.maximum(hi - 1, 0)
    return np.where(y - midpoints[lo] <= midpoints[hi] - y, lo, hi)


def reference_predictions(m: Model, group_idx: np.ndarray, scores: np.ndarray,
                          uniforms: np.ndarray) -> np.ndarray:
    """Sample-mode predictions from the model file alone: one uniform per
    row picks a bin by inverse CDF of the kernel row, clamped to k - 1.

    ``group_idx`` indexes the model's group list, ``scores`` are on the
    internal scale, and the result is in raw units."""
    cdfs = np.cumsum(m.kernels, axis=2)
    rows = cdfs[group_idx, discretize(m.midpoints, scores)]
    # the count of CDF entries <= u is searchsorted(cdf, u, side="right")
    bins = np.minimum((rows <= uniforms[:, None]).sum(axis=1), m.k - 1)
    return m.offset + m.scale * m.midpoints[bins]


def check_predictions(expected: np.ndarray, got: np.ndarray) -> list[str]:
    if len(expected) != len(got):
        return [f"{len(got)} predictions for {len(expected)} rows"]
    bad = np.flatnonzero(expected != got)
    if len(bad):
        i = bad[0]
        return [f"{len(bad)} predictions differ from the reference sampler; "
                f"first at row {i}: {float(got[i])!r} != {float(expected[i])!r}"]
    return []


def read_apply_csv(path) -> np.ndarray:
    """Prediction column of an ``apply`` output file."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) < 2 or lines[1] != "group,score,prediction":
        raise ValueError(f"{path}: unexpected header {lines[:2]}")
    return np.array([float(line.rsplit(",", 1)[1]) for line in lines[2:]])


def check_sweep(results: bytes, expected_cells: set, first_results: bytes | None) -> list[str]:
    """One ok row per expected (alpha, k, epsilon, seed) cell, zero objective
    at alpha = inf, and byte-identical output across repetitions."""
    errors = []
    lines = results.decode("utf-8").splitlines()
    header = lines[1].split(",") if len(lines) > 1 else []
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    cells = {(r["alpha"], r["k"], r["epsilon"], r["seed"]) for r in rows}
    if len(rows) != len(expected_cells) or cells != expected_cells:
        errors.append(f"{len(rows)} result rows, expected one for each of "
                      f"{len(expected_cells)} cells")
    failed = [r for r in rows if r["status"] != "ok"]
    if failed:
        errors.append(f"{len(failed)} cells not ok, first: {failed[0]['status']}")
    nonzero = [r for r in rows if r["status"] == "ok" and r["alpha"] == "inf"
               and float(r["lp_objective"]) != 0.0]
    if nonzero:
        errors.append(f"{len(nonzero)} alpha=inf cells with nonzero objective")
    if first_results is not None and results != first_results:
        errors.append("results.csv differs from the first repetition")
    return errors
