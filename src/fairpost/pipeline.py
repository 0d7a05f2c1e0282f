"""End-to-end post-processing: fit kernels from grouped scores, predict.

A fitted model is a :class:`FairPostprocessor`: the grid on [0, 1], the
group-label universe, one transport kernel per group, the fitted
diagnostics, and the affine map of the raw interval onto the grid, through
which it takes raw scores and returns raw outputs.  The raw samples are
consumed exactly once, by :func:`estimate` (step 1); :func:`fit` (steps 2
and 3) depends on the data only through that private estimate.

Model file format (version 1): a JSON document with the grid, group
labels, kernels (row-major), diagnostics, the affine raw-units transform,
and fit metadata.  Every float is rendered as a 17-significant-digit
decimal string ("inf" for infinity), which round-trips IEEE doubles
bit-exactly and keeps the file valid JSON regardless of the writer.  A
file whose grid is not on [0, 1] holds the identity transform and
predicts in its grid's units.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import barycenter_lp, dp_estimation, transport
from .data_io import AffineTransform, GroupedSamples, format_floats
from .dp_estimation import PrivateEstimate
from .errors import UnknownGroupError
from .grid import Grid, discretize_many, make_grid

log = logging.getLogger(__name__)

MODEL_FORMAT = "fairpost-model"
MODEL_VERSION = 1


def _f2s(x: float) -> str:
    return format(float(x), ".17g")


def _ms_since(start: float) -> float:
    return (time.perf_counter() - start) * 1e3


class _Numerals(list):
    """A list of :func:`_f2s` strings.  They hold only digits, '.', 'e', '+',
    '-' and 'inf', so none needs JSON escaping."""


def _json_text(value, pad: int = 0) -> str:
    """``json.dumps(value, indent=1)`` for a model document: dicts with
    string keys, lists, strings, integers and None.  Each :class:`_Numerals`
    list is one join; the rest goes through ``json.dumps`` piece by piece."""
    if isinstance(value, (dict, list)) and not value:
        return json.dumps(value)
    inner = "\n" + " " * (pad + 1)
    close = "\n" + " " * pad
    if isinstance(value, _Numerals):
        return "[" + inner + '"' + ('",' + inner + '"').join(value) + '"' + close + "]"
    if isinstance(value, dict):
        items = (json.dumps(key) + ": " + _json_text(v, pad + 1) for key, v in value.items())
        return "{" + inner + ("," + inner).join(items) + close + "}"
    if isinstance(value, list):
        items = (_json_text(v, pad + 1) for v in value)
        return "[" + inner + ("," + inner).join(items) + close + "]"
    return json.dumps(value)


def _f2s_list(values) -> _Numerals:
    return _Numerals(format_floats(values, _f2s))


def _f2s_rows(a) -> list[_Numerals]:
    """:func:`_f2s` over each row of ``a`` flattened, formatting each
    distinct value of a row once (most kernel entries are exact zeros)."""
    return [_f2s_list(row) for row in np.asarray(a, dtype=float)]


@dataclass
class FairPostprocessor:
    """Fitted fair post-processing model.

    Scores and outputs are in raw units; ``transform`` maps them onto the
    grid.  Immutable in spirit after fit; the only mutable member is the
    out-of-range counter bumped when predict sees a score outside the
    fitted interval.
    """

    grid: Grid
    groups: tuple
    kernels: np.ndarray  # (n_groups, k, k), rows stochastic
    alpha: float
    epsilon: float
    weights: np.ndarray
    pmfs: np.ndarray
    targets: np.ndarray
    barycenter: np.ndarray
    objective: float
    transform: AffineTransform = AffineTransform()
    out_of_range_count: int = field(default=0, compare=False)

    @cached_property
    def _row_bands(self) -> transport.RowBands:
        return transport.row_bands(self.kernels)

    @cached_property
    def _row_means(self) -> np.ndarray:
        return transport.row_means(self.kernels, self.grid)

    def predict(self, a, y: float, rng: np.random.Generator,
                mode: str = "sample") -> float:
        """Post-processed output for one (group, raw score) pair, in raw
        units, through the same sampler as :meth:`predict_batch`.

        ``mode="sample"`` draws a bin from the kernel row (the default;
        this is what carries the parity guarantee).  ``mode="barycentric"``
        returns the row's mean output instead: deterministic, but the
        output distribution is no longer the fitted target, so the parity
        guarantee is void."""
        if a not in self.groups:
            raise UnknownGroupError(f"group {a!r} was not present at fit time")
        codes = self._codes(np.array([self.groups.index(a)]), np.array([float(y)]), rng, mode)
        return float(self.output_table(mode)[codes[0]])

    def predict_batch(self, groups, group_idx, scores, rng: np.random.Generator,
                      mode: str = "sample") -> np.ndarray:
        """Raw outputs for columnar rows in order: row i has group
        ``groups[group_idx[i]]`` and raw score ``scores[i]``, as in
        :class:`GroupedSamples`.  Sample mode draws one uniform per row, so
        outputs and stream state equal a loop of :meth:`predict`.  Unknown
        groups are reported with their row index before any draw."""
        codes = self.output_codes(groups, group_idx, scores, rng, mode)
        return self.output_table(mode)[codes]

    def output_table(self, mode: str = "sample") -> np.ndarray:
        """The raw outputs that :meth:`output_codes` index: the k grid
        midpoints, or in barycentric mode the G x k kernel row means, row by row."""
        if mode == "barycentric":
            return self.transform.to_raw(self._row_means).ravel()
        return self.transform.to_raw(self.grid.midpoints)

    def output_codes(self, groups, group_idx, scores, rng: np.random.Generator,
                     mode: str = "sample", first_row: int = 0) -> np.ndarray:
        """Each row's index into :meth:`output_table`, for rows laid out as
        :meth:`predict_batch` takes them.  An unknown group is named by its
        row's index plus ``first_row``, so that rows predicted in blocks are
        numbered as one batch; split so, sample mode draws the stream of
        one batch."""
        idx = self._model_rows(groups, np.asarray(group_idx, dtype=np.intp), first_row)
        return self._codes(idx, np.asarray(scores, dtype=float), rng, mode)

    def _model_rows(self, groups, group_idx: np.ndarray, first_row: int) -> np.ndarray:
        """Model group index of each row; each distinct label is looked up once,
        and an unknown one named by its row's index plus ``first_row``."""
        bad = (group_idx < 0) | (group_idx >= len(groups))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"row {i}: {'negative ' if group_idx[i] < 0 else ''}group index "
                             f"{group_idx[i]} out of range for {len(groups)} group labels")
        lut = np.array([self.groups.index(g) if g in self.groups else -1 for g in groups], np.intp)
        idx = lut[group_idx]
        if (idx < 0).any():
            i = int(np.argmax(idx < 0))
            raise UnknownGroupError(f"row {first_row + i}: group {groups[group_idx[i]]!r} "
                                    "was not present at fit time")
        return idx

    def _codes(self, idx: np.ndarray, ys: np.ndarray, rng: np.random.Generator,
               mode: str) -> np.ndarray:
        """The sampler: the :meth:`output_table` index of each row of model
        group ``idx`` and raw score ``ys``, the drawn bin in sample mode
        (one uniform per row) and the kernel row ``idx * k + bin`` in
        barycentric mode."""
        if mode not in ("sample", "barycentric"):
            raise ValueError(f"unknown mode {mode!r}")
        zs = self.transform.to_internal(ys)
        j = discretize_many(self.grid, zs)
        outside = (zs < self.grid.s) | (zs > self.grid.t)
        if n_outside := int(np.count_nonzero(outside)):
            if self.out_of_range_count == 0:
                log.warning("score %g outside fitted interval [%g, %g]; clamping",
                            ys[outside][0], *self.transform.to_raw([self.grid.s, self.grid.t]))
            self.out_of_range_count += n_outside
        if mode == "barycentric":
            return idx * self.grid.k + j
        return transport.sample_bins(self._row_bands, idx, j, rng.random(len(ys)))

    def to_document(self) -> dict:
        return {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "grid": {"s": _f2s(self.grid.s), "t": _f2s(self.grid.t), "k": self.grid.k,
                     "midpoints": _f2s_list(self.grid.midpoints)},
            "groups": list(self.groups),
            "kernels": _f2s_rows(self.kernels),
            "fit": {"alpha": _f2s(self.alpha), "epsilon": _f2s(self.epsilon),
                    "k": self.grid.k, "seed": None},
            "transform": {"offset": _f2s(self.transform.offset),
                          "scale": _f2s(self.transform.scale)},
            "diagnostics": {
                "weights": _f2s_list(self.weights),
                "pmfs": _f2s_rows(self.pmfs),
                "targets": _f2s_rows(self.targets),
                "barycenter": _f2s_list(self.barycenter),
                "objective": _f2s(self.objective),
            },
        }

    def save(self, path) -> None:
        """Write :meth:`to_document` as ``json.dump(doc, fh, indent=1)``
        plus a newline would, byte for byte."""
        start = time.perf_counter()
        text = _json_text(self.to_document()) + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        # ensure_ascii output: one byte per character
        log.debug("save: %d bytes in %.3f ms", len(text), _ms_since(start))


def estimate(samples: GroupedSamples, interval: tuple[float, float], k: int,
             epsilon: float, rng) -> PrivateEstimate:
    """Step 1, the only step that reads rows: the private per-group
    distributions of grouped raw scores at budget ``epsilon``.

    The raw ``interval`` [s, t] is mapped onto the k-bin grid on [0, 1] by
    ``AffineTransform(s, t - s)``.  ``rng`` is None (fresh OS entropy), a
    ``numpy.random.Generator`` or an integer seed, which logs a warning at
    finite epsilon: anyone who knows the seed can redraw the noise.  The
    Laplace mechanism is the only randomness a fit consumes.
    """
    start = time.perf_counter()
    s, t = float(interval[0]), float(interval[1])
    transform = AffineTransform(offset=s, scale=t - s)
    if isinstance(rng, (int, np.integer)) and 0 < epsilon < np.inf:
        log.warning("anyone who knows this fit's seed can undo its noise (epsilon=%g)", epsilon)
    rng = np.random.default_rng(rng)  # a Generator comes back as it is
    grid = make_grid(0.0, 1.0, k)
    weights, pmfs = dp_estimation.estimate_private_dists(samples, grid, epsilon, rng, transform)
    log.debug("step 1 (private estimate, k=%d, epsilon=%g): %.3f ms", k, epsilon, _ms_since(start))
    return PrivateEstimate(grid=grid, transform=transform, groups=tuple(samples.groups),
                           weights=weights, pmfs=pmfs, epsilon=float(epsilon))


def fit(est: PrivateEstimate, alpha: float) -> FairPostprocessor:
    """Steps 2 and 3 on a private estimate: the barycenter within KS radius
    alpha/2 and the transport kernels onto its targets.  No randomness and
    no rows."""
    start = time.perf_counter()
    lp = barycenter_lp.build_lp(est, alpha)
    sol = barycenter_lp.solve(lp)
    log.debug("step 2 (barycenter, alpha=%g): %.3f ms", alpha, _ms_since(start))
    start = time.perf_counter()
    kernels = transport.extract_kernels(sol, est.pmfs)
    log.debug("step 3 (kernels): %.3f ms", _ms_since(start))
    return FairPostprocessor(
        grid=est.grid, groups=est.groups, kernels=kernels,
        alpha=float(alpha), epsilon=est.epsilon,
        weights=est.weights, pmfs=est.pmfs, targets=sol.targets,
        barycenter=sol.barycenter, objective=sol.objective, transform=est.transform,
    )


def _floats(cells) -> np.ndarray:
    """Stored floats, or rows of them, through ``float``, which refuses a null."""
    return np.array([_floats(c) if isinstance(c, list) else float(c) for c in cells])


def _stochastic(cells, n: int, width: int, k: int, what: str) -> np.ndarray:
    """``cells`` as n rows of ``width`` floats, cut into rows of k entries
    that are nonnegative and sum to 1 within 1e-9; shape (n * width / k, k)."""
    if len(cells) != n or any(len(row) != width for row in cells):
        raise ValueError(f"{what} must hold {n} groups x {width} entries")
    rows = _floats(cells).reshape(-1, k)
    if not (rows >= 0.0).all():
        raise ValueError(f"{what} entries must be nonnegative")
    if not (np.abs(rows.sum(axis=1) - 1.0) <= 1e-9).all():
        raise ValueError(f"{what} rows must sum to 1 within 1e-9")
    return rows


def load(path) -> FairPostprocessor:
    """Load a model saved by :meth:`FairPostprocessor.save`.

    Raises OSError for an unreadable file and ValueError naming ``path`` for
    anything but a well-formed model of this version: a grid or transform
    whose interval breaks :func:`~fairpost.grid.check_interval`, group
    labels other than a nonempty list of distinct strings, kernels that are not
    G x k x k for the G groups, nonnegative, with rows summing to 1 within
    1e-9 (the sampler relies on row CDFs that are 0 before a row's first
    nonzero entry, nondecreasing, and end near 1), diagnostics other than G
    finite weights >= 0, G x k pmfs and targets held to the kernels' row
    rule, and a barycenter of k entries, or fit metadata that :func:`fit`
    cannot write: a k other than the grid's, an alpha that is NaN or
    negative, an epsilon that is NaN or <= 0, or a seed that is neither an
    integer nor null."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
            raise ValueError(f"not a {MODEL_FORMAT} file")
        if doc.get("version") != MODEL_VERSION:
            raise ValueError(f"unsupported model version {doc.get('version')}")
        g = doc["grid"]
        grid = make_grid(float(g["s"]), float(g["t"]), int(g["k"]))
        if not np.array_equal(_floats(g["midpoints"]), grid.midpoints):
            raise ValueError("stored midpoints disagree with the grid parameters")
        k, groups = grid.k, doc["groups"]
        if not (isinstance(groups, list) and all(isinstance(g, str) for g in groups)):
            raise ValueError(f"groups must be a list of strings, got {groups!r}")
        groups = tuple(groups)
        if not groups:
            raise ValueError("a model needs at least one group")
        if len(set(groups)) != len(groups):
            raise ValueError(f"repeated group labels in {list(groups)}")
        n = len(groups)
        matrices = _stochastic(doc["kernels"], n, k * k, k, "kernel").reshape(-1, k, k)
        d, tr, fit_meta = doc["diagnostics"], doc["transform"], doc["fit"]
        weights, barycenter = _floats(d["weights"]), _floats(d["barycenter"])
        if weights.shape != (n,) or not (np.isfinite(weights) & (weights >= 0)).all():
            raise ValueError(f"weights must be {n} finite entries >= 0")
        if barycenter.shape != (k,):
            raise ValueError(f"barycenter must hold {k} entries")
        alpha, epsilon = float(fit_meta["alpha"]), float(fit_meta["epsilon"])
        if type(fit_meta["k"]) is not int or fit_meta["k"] != k:
            raise ValueError(f"fit k {fit_meta['k']!r} disagrees with the grid's k = {k}")
        barycenter_lp._check_alpha(alpha)
        dp_estimation.check_epsilon(epsilon)
        if (seed := fit_meta["seed"]) is not None and type(seed) is not int:
            raise ValueError(f"seed must be an integer or null, got {seed!r}")
        return FairPostprocessor(
            grid=grid, groups=groups, kernels=matrices,
            alpha=alpha, epsilon=epsilon, weights=weights,
            pmfs=_stochastic(d["pmfs"], n, k, k, "pmfs"),
            targets=_stochastic(d["targets"], n, k, k, "targets"), barycenter=barycenter,
            objective=float(d["objective"]),
            transform=AffineTransform(offset=float(tr["offset"]), scale=float(tr["scale"])),
        )
    except ValueError as exc:  # JSON and Unicode decode errors are ValueErrors too
        raise ValueError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, IndexError, AttributeError) as exc:
        raise ValueError(f"{path}: malformed model file ({type(exc).__name__}: {exc})") from exc
