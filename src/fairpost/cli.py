"""Command-line surface: fit, apply, evaluate, sweep.

Exit codes: 0 success, 2 config error (an unwritable output included), 3 data
error (an unreadable or malformed model file included), 4 solver error.

The privacy budget is spent once per private estimate (step 1 of a fit).
A sweep re-estimates once per (k, epsilon, seed) on the same file by design
(that is what an experiment grid is; its alphas share each estimate), so it
refuses to draw more than one finite-epsilon estimate per file unless
``--allow-budget-reuse`` is passed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import math
import os
import sys

import numpy as np

from . import __version__, pipeline, sweep
from .data_io import (DatasetSchema, csv_cell, csv_preamble, format_floats, index_labels,
                      load_csv, read_blocks)
from .errors import ConfigError, DataError, SolverFailure, UnknownGroupError


def _parse_hyper(value) -> float:
    """A number; ``float`` also takes inf, +inf and infinity in any case and padding."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"expected a number or 'inf', got {value!r}") from None


def _seed(text: str) -> int:
    """A ``--seed``: an integer as ``int`` reads it, and >= 0, as numpy's seeding takes."""
    with contextlib.suppress(ValueError):
        if (seed := int(text)) >= 0:
            return seed
    raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")


def _integer(value) -> int:
    """A JSON integer; a float or a boolean is refused, as ``fit --k`` refuses it."""
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


# the keys a schema and a sweep config may hold ("normalization" is legacy, ignored)
_KEYS = {"schema": {"group", "score", "label", "interval", "delimiter", "normalization"},
         "config": {"data", "schema", "alphas", "ks", "epsilons", "seeds", "split_ratio",
                    "master_seed"}}


def _refuse_unknown_keys(doc, what: str, where: str) -> None:
    if isinstance(doc, dict) and (unknown := sorted(doc.keys() - _KEYS[what])):
        raise ConfigError(f"{where}: unknown {what} key(s) {', '.join(map(repr, unknown))}")


def _schema_from_doc(doc, where: str) -> DatasetSchema:
    _refuse_unknown_keys(doc, "schema", where)
    try:
        return DatasetSchema(
            group_col=doc.get("group", "group"),
            score_col=doc.get("score", "score"),
            label_col=doc.get("label", "label"),
            interval=tuple(doc.get("interval", (0.0, 1.0))),
            delimiter=doc.get("delimiter", ","),
        )
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _read_json(path: str, what: str):
    """The JSON document in ``path``; failing to read or parse it is a
    config error about the ``what`` file."""
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is skipped
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def _load_schema(path: str | None) -> DatasetSchema:
    if path is None:
        return DatasetSchema()
    return _schema_from_doc(_read_json(path, "schema"), f"schema {path}")


def _load_model(path: str) -> pipeline.FairPostprocessor:
    try:
        return pipeline.load(path)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot load model: {exc}") from exc


@contextlib.contextmanager
def _writing(path: str):
    """An output that cannot be written is a config error (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


@contextlib.contextmanager
def _replacing(path: str):
    """A text file to write ``path`` through: a temporary file beside it,
    moved onto ``path`` once the block exits cleanly and removed if it does
    not, so that a failed command leaves an existing ``path`` as it was.  A
    path that exists but is not a regular file (a pipe, /dev/stdout) is
    written in place."""
    in_place = os.path.exists(path) and not os.path.isfile(path)
    tmp = path if in_place else f"{path}.{os.getpid()}.tmp"
    try:
        with _writing(path):
            with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
                yield fh
            if not in_place:
                os.replace(tmp, path)
    except BaseException:
        if not in_place:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise


def _scores_schema(schema: DatasetSchema) -> DatasetSchema:
    """``schema`` as ``fit`` and ``apply`` read rows: the label column is
    read only when it is also the score."""
    return dataclasses.replace(
        schema, label_col=schema.label_col if schema.score_col is None else None)


def _cmd_fit(args) -> int:
    schema = _load_schema(args.schema)
    samples = load_csv(args.data, _scores_schema(schema))
    alpha = _parse_hyper(args.alpha)
    epsilon = _parse_hyper(args.epsilon)
    try:
        model = pipeline.fit(
            pipeline.estimate(samples, schema.interval, args.k, epsilon, args.seed), alpha)
    except (ValueError, MemoryError) as exc:  # a bin count too large to allocate
        raise ConfigError(str(exc)) from exc
    with _writing(args.out):
        model.save(args.out)
    print(f"wrote model to {args.out} (objective {model.objective:.6g})")
    return 0


def _cmd_apply(args) -> int:
    """Read, predict and write one block at a time, with one stream of
    draws; after an unknown group the rest of the file is only read, so that
    a data error anywhere comes first."""
    model = _load_model(args.model)
    blocks = read_blocks(args.data, _scores_schema(_load_schema(args.schema)))
    rng = np.random.default_rng(args.seed)
    # each of the (at most G * k) outputs is formatted once, and each label quoted once
    outputs = np.array([f",{text}\n" for text in format_floats(model.output_table(args.mode))],
                       dtype=object)
    index, n, unknown = {}, 0, None
    with _replacing(args.out) as fh:
        fh.write(csv_preamble(args.seed, ("group", "score", "prediction")))
        for block in blocks:
            group_idx = index_labels(index, block.labels)
            quoted = np.array([csv_cell(g) + "," for g in index], dtype=object)
            if unknown is None:
                try:
                    codes = model.output_codes(tuple(index), group_idx, block.numbers[0], rng,
                                               args.mode, first_row=n)
                except UnknownGroupError as exc:
                    unknown = exc
                else:
                    text = [""] * (3 * len(codes))
                    text[0::3] = quoted[group_idx].tolist()
                    text[1::3] = block.score_text
                    text[2::3] = outputs[codes].tolist()
                    fh.write("".join(text))
            n += len(group_idx)
        if unknown is not None:
            raise unknown
    print(f"wrote {n} predictions to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    model = _load_model(args.model)
    samples = load_csv(args.data, _load_schema(args.schema))
    if samples.labels is None:
        raise DataError("evaluate requires labeled data")
    report = {"n": samples.n, **sweep.score(model, samples, np.random.default_rng(args.seed)),
              "out_of_range": model.out_of_range_count}
    payload = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if args.out:
        with _writing(args.out), open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    print(payload, end="")
    return 0


def _sweep_config(args) -> sweep.SweepConfig:
    doc = _read_json(args.config, "config")
    _refuse_unknown_keys(doc, "config", f"config {args.config}")
    try:
        if not isinstance(doc["data"], str):
            raise ValueError(f"data must be a path string, got {doc['data']!r}")
        return sweep.SweepConfig(
            data_path=doc["data"],
            schema=_schema_from_doc(doc.get("schema", {}), f"config {args.config}"),
            alphas=tuple(map(_parse_hyper, doc["alphas"])),
            ks=tuple(map(_integer, doc["ks"])),
            epsilons=tuple(map(_parse_hyper, doc["epsilons"])),
            seeds=_integer(doc.get("seeds", 50)),
            split_ratio=float(doc.get("split_ratio", 0.7)),
            master_seed=args.seed if args.seed is not None else _integer(doc.get("master_seed", 0)),
            workers=args.workers,
        )
    except (KeyError, TypeError, ValueError, MemoryError) as exc:
        raise ConfigError(f"config {args.config}: {exc}") from exc


def _cmd_sweep(args) -> int:
    cfg = _sweep_config(args)
    # one private estimate per (k, finite epsilon, seed); the alphas share it
    spends = len(cfg.ks) * cfg.seeds * sum(not math.isinf(eps) for eps in cfg.epsilons)
    if spends > 1 and not args.allow_budget_reuse:
        raise ConfigError(
            f"this sweep spends the privacy budget {spends} times on "
            f"{cfg.data_path}; pass --allow-budget-reuse to acknowledge")
    with _writing(args.out):
        os.makedirs(args.out, exist_ok=True)
    rows = sweep.run_sweep(cfg)
    with _writing(args.out):
        sweep.write_outputs(args.out, rows, cfg.master_seed)
    failures = sum(1 for r in rows if r.status != "ok")
    print(f"swept {len(rows)} cells ({failures} failed) -> {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse's refusals print one line, as every other failure does."""

    def error(self, message):
        self.exit(2, f"config error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="fairpost",
                                description="Private post-processing for fair regression")
    p.add_argument("--version", action="version", version=f"fairpost {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("fit", help="fit a post-processing model")
    f.add_argument("--data", required=True)
    f.add_argument("--schema", default=None, help="schema JSON (default: canonical columns)")
    f.add_argument("--k", type=int, required=True, help="number of bins")
    f.add_argument("--alpha", required=True, help="parity tolerance (number or 'inf')")
    f.add_argument("--epsilon", required=True, help="privacy budget (number or 'inf')")
    f.add_argument("--seed", type=_seed, help="seed the noise; anyone who knows it can undo it")
    f.add_argument("--out", required=True, help="model JSON output path")
    f.set_defaults(func=_cmd_fit)

    a = sub.add_parser("apply", help="post-process scores with a fitted model")
    a.add_argument("--model", required=True)
    a.add_argument("--data", required=True)
    a.add_argument("--schema", default=None)
    a.add_argument("--seed", type=_seed, default=0)
    a.add_argument("--mode", choices=("sample", "barycentric"), default="sample",
                   help="barycentric is deterministic but voids the parity guarantee")
    a.add_argument("--out", required=True)
    a.set_defaults(func=_cmd_apply)

    e = sub.add_parser("evaluate", help="report MSE and parity gap on labeled data")
    e.add_argument("--model", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--schema", default=None)
    e.add_argument("--seed", type=_seed, default=0)
    e.add_argument("--out", default=None)
    e.set_defaults(func=_cmd_evaluate)

    s = sub.add_parser("sweep", help="run a hyperparameter sweep from a config JSON")
    s.add_argument("--config", required=True)
    s.add_argument("--seed", type=_seed, default=None, help="master seed (overrides config)")
    s.add_argument("--workers", type=int, default=1)
    s.add_argument("--out", required=True, help="output directory")
    s.add_argument("--allow-budget-reuse", action="store_true",
                   help="acknowledge spending the privacy budget once per "
                        "(k, epsilon, seed)")
    s.set_defaults(func=_cmd_sweep)
    return p


def main(argv=None) -> int:
    # the library's warnings reach stderr as "warning: ..." lines while a command runs
    warnings = logging.StreamHandler()
    warnings.setFormatter(logging.Formatter("warning: %(message)s"))
    logger = logging.getLogger("fairpost")
    logger.addHandler(warnings)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, UnknownGroupError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except SolverFailure as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 4
    finally:
        logger.removeHandler(warnings)


if __name__ == "__main__":
    sys.exit(main())
