"""Hyperparameter sweep over (alpha, k, epsilon, seed) with deterministic
cell streams, seed-averaged aggregates, and Pareto lower envelopes.

Cells are enumerated in canonical order (alpha-major, then k, epsilon,
seed).  Each cell owns an RNG stream derived from (master seed, cell
index); the train/test split for a given per-cell seed is shared across
all (alpha, k, epsilon) so settings are compared on identical splits.
Results are written in canonical order regardless of which worker finished
first, so output files are byte-identical across runs.  Wall times are
deliberately kept out of the results file (they cannot be deterministic)
and go to a sidecar timings file instead: ``cell_seconds`` times a whole
cell, that is the split, the fit, the prediction and the metrics.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .barycenter_lp import _check_alpha
from .data_io import DatasetSchema, GroupedSamples, load_csv, split_train_test
from .dp_estimation import PrivacyParams
from .grid import make_grid
from .metrics import mse, statistical_parity_gap
from .pipeline import FairPostprocessor, fit


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
            PrivacyParams(epsilon=eps, n=1)


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
    status: str          # "ok" or "error:<ExceptionType>"
    cell_seconds: float  # split, fit, predict and metrics together


def cell_specs(cfg: SweepConfig):
    """Canonical cell enumeration: (index, alpha, k, epsilon, seed)."""
    i = 0
    for alpha in cfg.alphas:
        for k in cfg.ks:
            for eps in cfg.epsilons:
                for seed in range(cfg.seeds):
                    yield i, alpha, k, eps, seed
                    i += 1


def _split_seed(master_seed: int, seed: int) -> int:
    return int(np.random.SeedSequence((master_seed, 1, seed)).generate_state(1)[0])


def _cell_rng(master_seed: int, cell_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((master_seed, 2, cell_index))))


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


def run_cell(samples: GroupedSamples, cfg: SweepConfig, cell_index: int,
             alpha: float, k: int, epsilon: float, seed: int) -> SweepRow:
    """Fit one cell on its train split and evaluate on its test split."""
    t0 = time.perf_counter()
    try:
        train, test = split_train_test(samples, cfg.split_ratio,
                                       seed=_split_seed(cfg.master_seed, seed))
        rng = _cell_rng(cfg.master_seed, cell_index)
        model = fit(train, cfg.schema.interval, k, alpha, epsilon, rng)
        out = SweepRow(alpha=alpha, k=k, epsilon=epsilon, seed=seed, **score(model, test, rng),
                       lp_objective=model.objective, status="ok",
                       cell_seconds=time.perf_counter() - t0)
    except Exception as exc:  # noqa: BLE001 - per-cell failures must not kill the run
        out = SweepRow(alpha=alpha, k=k, epsilon=epsilon, seed=seed,
                       mse_raw=math.nan, mse_norm=math.nan, delta_sp=math.nan,
                       lp_objective=math.nan,
                       status=f"error:{type(exc).__name__}: {exc}",
                       cell_seconds=time.perf_counter() - t0)
    return out


# what a pool worker's cells run on: the parent's samples and config, set once per worker
_WORKER_STATE: dict = {}
_CELLS_PER_TASK = 4


def _worker_init(samples: GroupedSamples, cfg: SweepConfig):
    _WORKER_STATE.update(samples=samples, cfg=cfg)


def _worker_run(spec):
    return run_cell(_WORKER_STATE["samples"], _WORKER_STATE["cfg"], *spec)


def run_sweep(cfg: SweepConfig, samples: GroupedSamples | None = None) -> list[SweepRow]:
    """Run every cell on ``samples``, or on the file at ``cfg.data_path`` when
    none are given; pool workers get the same samples from this process.
    Per-cell failures are recorded in the row and the run continues.  Rows
    come back in canonical cell order."""
    if samples is None:
        if cfg.data_path is None:
            raise ValueError("config has no data path and no samples were passed")
        samples = load_csv(cfg.data_path, cfg.schema)
    elif samples.labels is None:
        raise ValueError("sweep requires labeled samples for test MSE")
    # a sweep writes no score: its cells' splits and its workers skip the text
    samples = replace(samples, score_text=None)
    specs = list(cell_specs(cfg))
    # a fork pool starts all its workers up front: start no more than there are tasks
    workers = min(cfg.workers, math.ceil(len(specs) / _CELLS_PER_TASK))
    if workers == 1:
        return [run_cell(samples, cfg, *spec) for spec in specs]
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_worker_init,
            initargs=(samples, cfg)) as pool:
        return list(pool.map(_worker_run, specs, chunksize=_CELLS_PER_TASK))


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


def _fmt(x) -> str:
    if isinstance(x, float):
        return "" if math.isnan(x) else repr(x)
    return str(x)


def _write_csv(path, master_seed: int, header: str, records) -> None:
    """A metadata comment line, the header, then one line per record."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# fairpost {__version__} master_seed={master_seed}\n{header}\n")
        fh.writelines(",".join(map(_fmt, rec)) + "\n" for rec in records)


def write_results_csv(path, rows: list[SweepRow], master_seed: int) -> None:
    _write_csv(path, master_seed,
               "alpha,k,epsilon,seed,mse_raw,mse_norm,delta_sp,lp_objective,status",
               ((r.alpha, r.k, r.epsilon, r.seed, r.mse_raw, r.mse_norm, r.delta_sp,
                 r.lp_objective, r.status.replace(",", ";")) for r in rows))


def write_timings_csv(path, rows: list[SweepRow], master_seed: int) -> None:
    """Wall-times sidecar; not deterministic, hence not in the results file."""
    _write_csv(path, master_seed, "alpha,k,epsilon,seed,cell_seconds",
               ((r.alpha, r.k, r.epsilon, r.seed, r.cell_seconds) for r in rows))


def write_aggregates_csv(path, aggs: list[CellAggregate], master_seed: int) -> None:
    _write_csv(path, master_seed,
               "alpha,k,epsilon,n_ok,mse_raw_mean,mse_raw_se,mse_norm_mean,"
               "delta_sp_mean,delta_sp_se",
               ((a.alpha, a.k, a.epsilon, a.n_ok, a.mse_raw_mean, a.mse_raw_se,
                 a.mse_norm_mean, a.delta_sp_mean, a.delta_sp_se) for a in aggs))


def write_envelope_csv(path, aggs: list[CellAggregate], master_seed: int) -> None:
    """Per-epsilon lower envelopes of the seed-averaged (delta_sp, mse_raw)
    points across the (alpha, k) sweep."""
    records = []
    for eps in sorted({a.epsilon for a in aggs}):
        pts = [(a.delta_sp_mean, a.mse_raw_mean) for a in aggs
               if a.epsilon == eps and a.n_ok > 0 and not math.isnan(a.delta_sp_mean)]
        if pts:
            records += [(eps, d, m) for d, m in lower_envelope(pts)]
    _write_csv(path, master_seed, "epsilon,delta_sp,mse_raw", records)


def write_outputs(out_dir, rows: list[SweepRow], master_seed: int) -> None:
    """Aggregate ``rows`` and write the four CSV files into ``out_dir``."""
    aggs = aggregate(rows)
    write_results_csv(os.path.join(out_dir, "results.csv"), rows, master_seed)
    write_aggregates_csv(os.path.join(out_dir, "aggregates.csv"), aggs, master_seed)
    write_envelope_csv(os.path.join(out_dir, "envelope.csv"), aggs, master_seed)
    write_timings_csv(os.path.join(out_dir, "timings.csv"), rows, master_seed)
