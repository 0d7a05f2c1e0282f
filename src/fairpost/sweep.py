"""Hyperparameter sweep over (alpha, k, epsilon, seed) with deterministic
streams, seed-averaged aggregates, and Pareto lower envelopes.

Cells are enumerated in canonical order (alpha-major, then k, epsilon,
seed).  Each seed splits the data once, so every (alpha, k, epsilon) is
compared on the same split.  Each (k, epsilon, seed) group draws one
private estimate of its train split, on a stream derived from (master seed,
group index), and every alpha of the group fits on that estimate: steps 2
and 3 are post-processing of it, so the group spends the privacy budget
once.  Each cell scores its test split on its own stream, derived from
(master seed, cell index).  Results are written in canonical order
regardless of which worker finished first, so output files are
byte-identical across runs.  Wall times are deliberately kept out of the
results file (they cannot be deterministic) and go to a sidecar timings
file instead: ``estimate_seconds`` times the group's shared estimate,
``cell_seconds`` the cell's own fit, prediction and metrics, and
``fit_seconds`` and ``score_seconds`` split ``cell_seconds`` into the fit and
the prediction with its metrics.
"""

from __future__ import annotations

import concurrent.futures
import itertools
import math
import os
import time
from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from .barycenter_lp import _check_alpha
from .data_io import (DatasetSchema, GroupedSamples, csv_cell, load_csv, split_train_test,
                      write_csv)
from .dp_estimation import PrivateEstimate, check_epsilon
from .grid import make_grid
from .metrics import mse, statistical_parity_gap
from .pipeline import FairPostprocessor, estimate, fit


@dataclass(frozen=True)
class SweepConfig:
    data_path: str | None
    schema: DatasetSchema
    alphas: tuple[float, ...]
    ks: tuple[int, ...]
    epsilons: tuple[float, ...]
    seeds: int = 50
    split_ratio: float = 0.7
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if not (self.alphas and self.ks and self.epsilons):
            raise ValueError("alpha, k, and epsilon lists must be nonempty")
        if self.seeds < 1:
            raise ValueError(f"need at least one seed, got {self.seeds}")
        if self.workers < 1:
            raise ValueError(f"need at least one worker, got {self.workers}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.schema.label_col is None:
            raise ValueError("sweep requires labeled data for test MSE")
        # split_train_test's check, and the checks fit runs, made once for the whole grid
        if not 0.0 < self.split_ratio < 1.0:
            raise ValueError(f"split ratio must be in (0, 1), got {self.split_ratio}")
        for alpha in self.alphas:
            _check_alpha(alpha)
        for k in self.ks:
            make_grid(0.0, 1.0, k)
        for eps in self.epsilons:
            check_epsilon(eps)
        # a repeated value would count its seeds twice in the aggregates
        for name, values in (("alphas", self.alphas), ("ks", self.ks),
                             ("epsilons", self.epsilons)):
            if len(set(values)) != len(values):
                repeated = next(v for i, v in enumerate(values) if v in values[:i])
                raise ValueError(f"{name} holds {repeated!r} more than once")


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    k: int
    epsilon: float
    seed: int
    mse_raw: float
    mse_norm: float
    delta_sp: float
    lp_objective: float
    status: str              # "ok" or "error:<ExceptionType>"
    cell_seconds: float      # the cell's fit, prediction and metrics
    estimate_seconds: float  # the (k, epsilon, seed) group's shared estimate
    fit_seconds: float       # the part of cell_seconds spent fitting
    score_seconds: float     # the part spent predicting and scoring


def _split_seed(master_seed: int, seed: int) -> int:
    return int(np.random.SeedSequence((master_seed, 1, seed)).generate_state(1)[0])


def _rng(master_seed: int, purpose: int, index: int) -> np.random.Generator:
    """Purpose 2 is cell ``index``'s prediction stream, purpose 3 the Laplace
    stream of (k, epsilon, seed) group ``index``'s estimate."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((master_seed, purpose, index))))


def score(model: FairPostprocessor, samples: GroupedSamples, rng: np.random.Generator) -> dict:
    """Predict labeled ``samples`` with ``model`` and score the predictions:
    ``mse_raw`` against the labels as read, ``mse_norm`` on the model's unit
    interval, and ``delta_sp``, the parity gap on the model's grid."""
    preds = model.predict_batch(samples.groups, samples.group_idx, samples.scores, rng)
    unit = model.transform.to_internal(preds)
    return {
        "mse_raw": mse(preds, samples.labels),
        "mse_norm": mse(unit, model.transform.to_internal(samples.labels)),
        "delta_sp": statistical_parity_gap(samples.group_idx, unit, len(samples.groups),
                                           model.grid),
    }


def _failed_row(alpha: float, k: int, epsilon: float, seed: int, exc: Exception,
                estimate_seconds: float, stamps=(0.0,)) -> SweepRow:
    """A row for a cell that raised; ``stamps`` are the clock readings of
    :func:`run_cell`, the last one taken at the failure."""
    return SweepRow(alpha=alpha, k=k, epsilon=epsilon, seed=seed,
                    mse_raw=math.nan, mse_norm=math.nan, delta_sp=math.nan,
                    lp_objective=math.nan, status=f"error:{type(exc).__name__}: {exc}",
                    estimate_seconds=estimate_seconds, **_stage_seconds(stamps))


def _stage_seconds(stamps) -> dict:
    """``cell_seconds`` from the first clock reading to the last, split at
    the readings between them into ``fit_seconds`` and ``score_seconds``;
    a stage the cell did not reach took 0 s.  Readings within a factor of
    two of each other subtract exactly, so the parts sum to the whole."""
    stages = [b - a for a, b in zip(stamps, stamps[1:])] + [0.0, 0.0]
    return {"cell_seconds": stamps[-1] - stamps[0], "fit_seconds": stages[0],
            "score_seconds": stages[1]}


def run_cell(est: PrivateEstimate, test: GroupedSamples, cfg: SweepConfig, cell_index: int,
             alpha: float, seed: int, estimate_seconds: float) -> SweepRow:
    """Fit one cell on its group's shared estimate and score it on the test
    split with the cell's own stream."""
    stamps = [time.perf_counter()]
    try:
        model = fit(est, alpha)
        stamps.append(time.perf_counter())
        metrics = score(model, test, _rng(cfg.master_seed, 2, cell_index))
        stamps.append(time.perf_counter())
        return SweepRow(alpha=alpha, k=est.grid.k, epsilon=est.epsilon, seed=seed, **metrics,
                        lp_objective=model.objective, status="ok",
                        estimate_seconds=estimate_seconds, **_stage_seconds(stamps))
    except Exception as exc:  # noqa: BLE001 - per-cell failures must not kill the run
        stamps.append(time.perf_counter())
        return _failed_row(alpha, est.grid.k, est.epsilon, seed, exc, estimate_seconds,
                           stamps)


def run_seed(samples: GroupedSamples, cfg: SweepConfig, seed: int) -> dict[int, SweepRow]:
    """Every cell of one seed, by canonical cell index: one split, one
    private estimate per (k, epsilon), one fit per alpha on that estimate.
    A failing estimate fails each cell of its group."""
    train, test = split_train_test(samples, cfg.split_ratio,
                                   seed=_split_seed(cfg.master_seed, seed))
    n_groups = len(cfg.ks) * len(cfg.epsilons) * cfg.seeds
    out = {}
    for j, (k, eps) in enumerate(itertools.product(cfg.ks, cfg.epsilons)):
        g = j * cfg.seeds + seed  # the group's index in (k, epsilon, seed) order
        t0 = time.perf_counter()
        try:
            est = estimate(train, cfg.schema.interval, k, eps, _rng(cfg.master_seed, 3, g))
        except Exception as exc:  # noqa: BLE001 - it fails its group, not the run
            est = exc
        estimate_seconds = time.perf_counter() - t0
        for a, alpha in enumerate(cfg.alphas):
            i = a * n_groups + g  # the cell's index in canonical order
            if isinstance(est, Exception):
                out[i] = _failed_row(alpha, k, eps, seed, est, estimate_seconds)
            else:
                out[i] = run_cell(est, test, cfg, i, alpha, seed, estimate_seconds)
    return out


# what a pool worker's seeds run on: the parent's samples and config, set once per worker
_WORKER_STATE: dict = {}


def _worker_init(samples: GroupedSamples, cfg: SweepConfig):
    _WORKER_STATE.update(samples=samples, cfg=cfg)


def _worker_run(seed: int):
    return run_seed(_WORKER_STATE["samples"], _WORKER_STATE["cfg"], seed)


def run_sweep(cfg: SweepConfig, samples: GroupedSamples | None = None) -> list[SweepRow]:
    """Run every cell on ``samples``, or on the file at ``cfg.data_path`` when
    none are given; each seed is one task, and pool workers get the same
    samples from this process.  Per-cell failures are recorded in the row and
    the run continues.  Rows come back in canonical cell order."""
    if samples is None:
        if cfg.data_path is None:
            raise ValueError("config has no data path and no samples were passed")
        samples = load_csv(cfg.data_path, cfg.schema)
    elif samples.labels is None:
        raise ValueError("sweep requires labeled samples for test MSE")
    # a fork pool starts all its workers up front: start no more than there are seeds
    workers = min(cfg.workers, cfg.seeds)
    if workers == 1:
        per_seed = [run_seed(samples, cfg, seed) for seed in range(cfg.seeds)]
    else:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, initializer=_worker_init,
                initargs=(samples, cfg)) as pool:
            per_seed = list(pool.map(_worker_run, range(cfg.seeds)))
    rows = {i: row for part in per_seed for i, row in part.items()}
    return [rows[i] for i in range(len(rows))]


@dataclass(frozen=True)
class CellAggregate:
    alpha: float
    k: int
    epsilon: float
    n_ok: int
    mse_raw_mean: float
    mse_raw_se: float
    mse_norm_mean: float
    delta_sp_mean: float
    delta_sp_se: float


def aggregate(rows: list[SweepRow]) -> list[CellAggregate]:
    """Seed-averaged metrics per (alpha, k, epsilon) over successful rows."""
    cells: dict[tuple, list[SweepRow]] = {}
    for r in rows:
        ok = cells.setdefault((r.alpha, r.k, r.epsilon), [])
        if r.status == "ok":
            ok.append(r)
    out = []
    for key, ok in cells.items():
        if not ok:
            out.append(CellAggregate(*key, 0, math.nan, math.nan, math.nan,
                                     math.nan, math.nan))
            continue
        mr = np.array([r.mse_raw for r in ok])
        mn = np.array([r.mse_norm for r in ok])
        ds = np.array([r.delta_sp for r in ok])
        n = len(ok)
        se = (lambda x: float(np.std(x, ddof=1) / math.sqrt(n)) if n > 1 else 0.0)
        out.append(CellAggregate(
            alpha=key[0], k=key[1], epsilon=key[2], n_ok=n,
            mse_raw_mean=float(mr.mean()), mse_raw_se=se(mr),
            mse_norm_mean=float(mn.mean()),
            delta_sp_mean=float(ds.mean()), delta_sp_se=se(ds)))
    return out


def lower_envelope(points) -> list[tuple[float, float]]:
    """Pareto-undominated subset of (delta_sp, mse) pairs, sorted by
    delta_sp ascending with mse strictly decreasing.  Duplicates collapse
    to one point."""
    pts = sorted({(float(d), float(m)) for d, m in points})
    if not pts:
        raise ValueError("no points")
    out: list[tuple[float, float]] = []
    best = math.inf
    for d, m in pts:
        if m < best:
            out.append((d, m))
            best = m
    return out


# each file's columns are fields of its records: results.csv holds a row's
# fields up to its status, timings.csv the cell's coordinates and wall times
_ROW = [f.name for f in fields(SweepRow)]
_RESULTS, _TIMINGS = _ROW[:9], _ROW[:4] + _ROW[9:]
_AGGREGATES = [f.name for f in fields(CellAggregate)]


def _fmt(x) -> str:
    """A float as its ``repr``, NaN as an empty cell, a status's commas as ';'."""
    if isinstance(x, float):
        return "" if math.isnan(x) else repr(x)
    if isinstance(x, str):
        return csv_cell(x.replace(",", ";"))
    return str(x)


def _write(path, master_seed: int, names, records) -> None:
    write_csv(path, master_seed, names, (list(map(_fmt, rec)) for rec in records))


def write_results_csv(path, rows: list[SweepRow], master_seed: int) -> None:
    _write(path, master_seed, _RESULTS, map(attrgetter(*_RESULTS), rows))


def write_timings_csv(path, rows: list[SweepRow], master_seed: int) -> None:
    """Wall-times sidecar; not deterministic, hence not in the results file."""
    _write(path, master_seed, _TIMINGS, map(attrgetter(*_TIMINGS), rows))


def write_aggregates_csv(path, aggs: list[CellAggregate], master_seed: int) -> None:
    _write(path, master_seed, _AGGREGATES, map(attrgetter(*_AGGREGATES), aggs))


def write_envelope_csv(path, aggs: list[CellAggregate], master_seed: int) -> None:
    """Per-epsilon lower envelopes of the seed-averaged (delta_sp, mse_raw)
    points across the (alpha, k) sweep."""
    records = []
    for eps in sorted({a.epsilon for a in aggs}):
        pts = [(a.delta_sp_mean, a.mse_raw_mean) for a in aggs
               if a.epsilon == eps and a.n_ok > 0 and not math.isnan(a.delta_sp_mean)]
        if pts:
            records += [(eps, d, m) for d, m in lower_envelope(pts)]
    _write(path, master_seed, ("epsilon", "delta_sp", "mse_raw"), records)


def write_outputs(out_dir, rows: list[SweepRow], master_seed: int) -> None:
    """Aggregate ``rows`` and write the four CSV files into ``out_dir``."""
    aggs = aggregate(rows)
    write_results_csv(os.path.join(out_dir, "results.csv"), rows, master_seed)
    write_aggregates_csv(os.path.join(out_dir, "aggregates.csv"), aggs, master_seed)
    write_envelope_csv(os.path.join(out_dir, "envelope.csv"), aggs, master_seed)
    write_timings_csv(os.path.join(out_dir, "timings.csv"), rows, master_seed)
