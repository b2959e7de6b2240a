"""Batch command-line front end: a thin shell over :mod:`wavets.pipeline`.

``synth`` builds a synthetic dataset; ``fit-codebook``, ``tokenize``,
``detokenize``, ``train``, ``forecast`` and ``eval`` run the protocol one
step at a time through files; ``ablate`` runs it in memory over a
configuration grid. This module only parses arguments, reads and writes
files and prints summaries. It has no file format of its own: every
JSON-lines file goes through :func:`~wavets.data_io.read_jsonl` and
:func:`~wavets.data_io.write_jsonl`.

Configuration precedence is flags > config file (YAML or JSON) > the
defaults of :class:`~wavets.pipeline.RunConfig`, whose fields also name the
flags and config keys; ``--help`` shows each flag's default. An output's
``__meta__`` header holds just the configuration fingerprint and, for one
made with a codebook, the codebook's hash. That header is the only record
of how an artifact was made, so commands refuse one whose header lacks or
mismatches what they expect. A token file holds ``{item_id, kind, tokens,
mu, sigma}`` records, ``kind`` being ``context`` or ``horizon``. Each failed
series or record gets its own ``error:`` line while the rest are still
processed, also when none is left to fit or train on, and the command then
exits with status 1. A warning (say, a score left undefined, which only
:func:`~wavets.pipeline.evaluate_dataset` reports) is printed as one
``warning:`` line each time it is raised; :func:`main` is the one place
that decides how warnings print, and no library code silences them.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .codebook import Codebook, codebook_hash, fit_codebook, load_codebook, save_codebook
from .data_io import load_dataset, read_jsonl, save_dataset, scalar_types, write_jsonl
from .data_synth import make_dataset
from .dwt import decompose  # noqa: F401  kept bound here: bench/tests patch every binding of it
from .exceptions import FingerprintMismatchError, SchemaError, WavetsError
from .metrics import aggregate_relative, average_rank
from .pipeline import (
    RunConfig,
    detokenize_windows,
    evaluate_dataset,
    forecast_dataset,
    make_windows,
    pool_coefficients,
    read_token_records,
    run_cell,
    tokenize_windows,
    train_model,
)
from .seq_model import load_model, save_model

_CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))


def build_config(args) -> RunConfig:
    """Merge defaults, config file and command-line flags."""
    merged = {}
    config_path = getattr(args, "config", None)
    if config_path:
        import yaml  # only a config file needs it, and it is slow to import

        loaded = yaml.safe_load(Path(config_path).read_text()) or {}
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {config_path} must hold a mapping")
        unknown = set(loaded) - set(_CONFIG_KEYS) - {"grid"}
        if unknown:
            raise ValueError(f"unknown config keys in {config_path}: {sorted(unknown, key=str)}")
        merged.update({k: v for k, v in loaded.items() if k != "grid"})
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return RunConfig(**merged)


def _add_config_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="YAML/JSON config file")
    for f in fields(RunConfig):
        parser.add_argument("--" + f.name.replace("_", "-"), dest=f.name, type=type(f.default),
                            help=" ".join(filter(None, (f.metadata["help"],
                                                        f"(default: {f.default})"))))


def _header(config: RunConfig, codebook: Codebook | None) -> dict:
    """The ``__meta__`` header of an artifact made under ``config`` and ``codebook``."""
    made_with = {"codebook": codebook_hash(codebook)} if codebook is not None else {}
    return {**made_with, "fingerprint": config.fingerprint()}


def _check_meta(meta: dict, source, config: RunConfig, codebook: Codebook | None = None):
    """Refuse an artifact whose header lacks or mismatches the codebook or configuration."""
    for key, want in _header(config, codebook).items():
        if key not in meta:
            raise SchemaError(f"{source} has no {key} in its __meta__ header")
        if meta[key] != want:
            raise FingerprintMismatchError(f"{source} was produced under {key} {meta[key]}, "
                                           f"current {key} is {want}")


def _report(failures, noun: str = "series") -> int:
    """Print one ``error:`` line per failure; return the exit status."""
    for item_id, *kind, exc in failures:
        print(f"error: {' '.join([noun, repr(item_id), *map(str, kind)])}: {exc}",
              file=sys.stderr)
    return 1 if failures else 0


def cmd_synth(args) -> int:
    config = build_config(args)
    dataset = make_dataset(
        n_series=args.n_series,
        context_length=config.context_length,
        horizon=config.horizon,
        seed=config.seed,
    )
    dataset.meta = _header(config, None)
    save_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} series to {args.out} (fingerprint {config.fingerprint()})")
    return 0


def cmd_fit_codebook(args) -> int:
    config = build_config(args)
    sample, skipped = pool_coefficients(make_windows(load_dataset(args.data), config), config)
    status = _report(skipped)
    codebook = fit_codebook(sample, config.vocab_budget)
    save_codebook(codebook, args.out)
    clamped = np.sum((sample < codebook.edges[0]) | (sample >= codebook.edges[-1]))
    print(
        f"fit {codebook.n_bins} bins (vocabulary {codebook.vocab_size}) "
        f"width {codebook.bin_width:.6g} clamp rate {clamped / sample.size:.4%} "
        f"hash {codebook_hash(codebook)} fingerprint {config.fingerprint()}"
    )
    return status


def cmd_tokenize(args) -> int:
    config = build_config(args)
    dataset = load_dataset(args.data)
    codebook = load_codebook(args.codebook)
    pairs, failures = tokenize_windows(make_windows(dataset, config), config, codebook)
    streams = [(item_id, kind, stream) for item_id, ctx_stream, hor_stream in pairs
               for kind, stream in (("context", ctx_stream), ("horizon", hor_stream))]
    write_jsonl(args.out, _header(config, codebook),
                ({"item_id": item_id, "kind": kind, "tokens": stream.tokens,
                  "mu": stream.scale.mu, "sigma": stream.scale.sigma}
                 for item_id, kind, stream in streams))
    n_tokens = sum(len(stream.tokens) for _, _, stream in streams)
    n_pad = sum(int(np.sum(stream.tokens == codebook.PAD_ID)) for _, _, stream in streams)
    pad_rate = n_pad / n_tokens if n_tokens else 0.0
    print(f"tokenized {args.data}: PAD rate {pad_rate:.4%}, fingerprint {config.fingerprint()}")
    return _report(failures)


def cmd_detokenize(args) -> int:
    config = build_config(args)
    codebook = load_codebook(args.codebook)
    meta, lines = read_jsonl(args.tokens)
    _check_meta(meta, args.tokens, config, codebook)
    windows, failures = detokenize_windows([record for _, record in lines], config, codebook)
    write_jsonl(args.out, _header(config, codebook),
                ({"item_id": item_id, "kind": kind, "values": values}
                 for item_id, kind, values in windows))
    if args.reference:
        truths = {(item_id, kind): truth
                  for item_id, *pair in make_windows(load_dataset(args.reference), config)
                  for kind, truth in zip(("context", "horizon"), pair)}
        errors = []
        for item_id, kind, values in windows:
            truth = truths.get((item_id, kind), np.array([np.nan]))  # none: nothing observed
            observed = np.isfinite(truth)
            if observed.any():
                errors.append(float(np.sqrt(np.mean((values[observed] - truth[observed]) ** 2))))
        if errors:
            print(f"reconstruction RMSE over {len(errors)} windows: mean {np.mean(errors):.6g} "
                  f"max {np.max(errors):.6g}")
    print(f"wrote {args.out}")
    return _report(failures, "record")


def cmd_train(args) -> int:
    config = build_config(args)
    codebook = load_codebook(args.codebook)
    meta, lines = read_jsonl(args.tokens)
    _check_meta(meta, args.tokens, config, codebook)
    records = [record for _, record in lines]
    kinds, failed = read_token_records(records, config, codebook)
    streams = {(records[i]["item_id"], kind): row
               for kind, (rows, stack) in kinds.items() for i, row in zip(rows, stack.rows())}
    corpus = [(ctx, streams[item_id, "horizon"]) for (item_id, kind), ctx in streams.items()
              if kind == "context" and (item_id, "horizon") in streams]
    listed = {(r.get("item_id"), r.get("kind")) for r in records}
    other = {"context": "horizon", "horizon": "context"}
    unpaired = [(item_id, kind, f"no {other[kind]} record for this series")
                for item_id, kind in streams if (item_id, other[kind]) not in listed]
    del lines, records, listed  # the decoded records outweigh the counting
    status = _report([*failed.values(), *unpaired], "record")
    model = train_model(corpus, config, codebook)
    save_model(model, args.out, meta=_header(config, codebook))
    print(f"trained order-{config.order} model on {len(corpus)} pairs -> {args.out}")
    return status


def cmd_forecast(args) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    config = build_config(args)
    codebook = load_codebook(args.codebook)
    model = load_model(args.model)
    _check_meta(model.meta, args.model, config, codebook)
    contexts = [(item_id, context) for item_id, context, _ in
                make_windows(load_dataset(args.data), config)]
    forecast = functools.partial(forecast_dataset, model, codebook, config)
    if args.workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # slow to import, rarely needed

        size = -(-len(contexts) // args.workers) or 1  # contiguous chunks, one per worker
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            chunks = list(pool.map(forecast, [contexts[i:i + size]
                                              for i in range(0, len(contexts), size)]))
    else:
        chunks = [forecast(contexts)]
    forecasts = [pair for done, _ in chunks for pair in done]
    failed = [pair for _, errors in chunks for pair in errors]
    write_jsonl(args.out, _header(config, codebook),
                ({"item_id": item_id, "samples": paths} for item_id, paths in forecasts))
    print(f"forecast {len(forecasts)} series -> {args.out}")
    return _report(failed)


def cmd_eval(args) -> int:
    config = build_config(args)
    if len(args.data) != len(args.forecasts):
        raise ValueError("need one --forecasts per --data")
    names = [Path(data_path).name for data_path in args.data]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"--data file names must differ, repeated: {', '.join(repeated)}")
    fingerprint = config.fingerprint()
    per_dataset, unscored = {}, []
    for name, data_path, forecast_path in zip(names, args.data, args.forecasts):
        dataset = load_dataset(data_path)
        meta, lines = read_jsonl(forecast_path)
        _check_meta(meta, forecast_path, config)
        samples, first = {}, {}  # first: item_id -> its line
        for line, record in lines:
            try:
                item_id = record.get("item_id")
                if not isinstance(item_id, str) or "samples" not in record:
                    raise ValueError("need a string item_id and samples")
                if first.setdefault(item_id, line) != line:
                    raise ValueError(f"duplicate item_id {item_id!r}; first occurrence at line "
                                     f"{first[item_id]}")
                samples[item_id] = np.asarray(record["samples"], dtype=np.float64)
                stray = scalar_types(record["samples"], samples[item_id].ndim) - {float, int}
                if stray:
                    raise ValueError("samples must be numbers, got "
                                     f"{', '.join(sorted(t.__name__ for t in stray))}")
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{forecast_path}:{line}: {exc}") from None
        scores, failed = evaluate_dataset(name, dataset, samples, config)
        unscored += failed
        if scores is None:
            _report(unscored)
            raise WavetsError(f"dataset {name}: no series to score")
        per_dataset[name] = scores

    rows = [(name, *key, value) for name, scores in sorted(per_dataset.items())
            for key, value in sorted(scores.items())]
    for metric in ("wql", "mase", "vrse"):
        model_scores = [per_dataset[n][("model", metric)] for n in sorted(per_dataset)]
        naive_scores = [per_dataset[n][("seasonal_naive", metric)] for n in sorted(per_dataset)]
        rel = aggregate_relative(model_scores, naive_scores)
        naive_rel = aggregate_relative(naive_scores, naive_scores)
        ranks = average_rank([model_scores, naive_scores])
        rows.append(("ALL", "model", f"relative_{metric}", rel))
        rows.append(("ALL", "seasonal_naive", f"relative_{metric}", naive_rel))
        rows.append(("ALL", "model", f"avg_rank_{metric}", float(ranks[0])))
        rows.append(("ALL", "seasonal_naive", f"avg_rank_{metric}", float(ranks[1])))

    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "model", "metric", "value"])
        writer.writerow(["#fingerprint", fingerprint, "", ""])
        for row in rows:
            writer.writerow([row[0], row[1], row[2], repr(row[3])])
    print(f"wrote {args.out}")
    return _report(unscored)


def cmd_ablate(args) -> int:
    import yaml

    config = build_config(args)
    grid_spec = yaml.safe_load(Path(args.grid).read_text())
    grid = grid_spec.get("grid") if isinstance(grid_spec, dict) else None
    if not isinstance(grid, dict):
        raise ValueError("grid file must contain a 'grid' mapping")
    unknown = set(grid) - set(_CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unsupported grid keys {sorted(unknown, key=str)}; "
                         f"allowed {_CONFIG_KEYS}")
    keys = sorted(grid)
    for key, values in sorted(grid.items()):
        if not isinstance(values, list) or not values or len(set(map(repr, values))) < len(values):
            raise ValueError(f"grid key {key!r} must be a non-empty list of distinct values, "
                             f"got {values!r}")
    cells = [dict(zip(keys, cell)) for cell in itertools.product(*(grid[k] for k in keys))]
    cell_configs = [replace(config, **overrides) for overrides in cells]  # refuses a bad value
    dataset = load_dataset(args.data)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    n_failed = 0
    for overrides, cell_config in zip(cells, cell_configs):
        fingerprint = cell_config.fingerprint()
        cell_path = out_dir / f"cell-{fingerprint}.json"
        payload = {"fingerprint": fingerprint, "overrides": overrides}
        try:
            scores = run_cell(cell_config, dataset)
            payload["scores"] = {f"{m}/{k}": v for (m, k), v in scores.items()}
            results.append(payload)
            print(f"cell {fingerprint} ({overrides}): ok")
        except Exception as exc:
            payload["error"] = str(exc)
            n_failed += 1
            print(f"cell {fingerprint} ({overrides}): FAILED: {exc}", file=sys.stderr)
        cell_path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")

    table_path = out_dir / "sweep.csv"
    with open(table_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fingerprint", *keys, "model_wql", "model_mase", "model_vrse",
                         "naive_wql", "naive_mase", "naive_vrse"])
        for payload in sorted(results, key=lambda p: p["fingerprint"]):
            scores = payload["scores"]
            writer.writerow([
                payload["fingerprint"],
                *[payload["overrides"][k] for k in keys],
                *[repr(scores[f"model/{m}"]) for m in ("wql", "mase", "vrse")],
                *[repr(scores[f"seasonal_naive/{m}"]) for m in ("wql", "mase", "vrse")],
            ])
    print(f"wrote {table_path} ({len(cells)} cells, {n_failed} failed)")
    return 1 if n_failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavets",
        description="Wavelet tokenization, forecasting and evaluation for time series",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config_flags = argparse.ArgumentParser(add_help=False)  # built once, shared by every command
    _add_config_flags(config_flags)

    def command(name, func, help_text, *required):
        p = sub.add_parser(name, help=help_text, parents=[config_flags])
        for flag in required:
            p.add_argument(flag, required=True)
        p.set_defaults(func=func)
        return p

    p = command("synth", cmd_synth, "generate a synthetic dataset", "--out")
    p.add_argument("--n-series", type=int, default=100)
    command("fit-codebook", cmd_fit_codebook, "fit the quantization codebook", "--data", "--out")
    command("tokenize", cmd_tokenize, "tokenize dataset windows", "--data", "--codebook", "--out")
    p = command("detokenize", cmd_detokenize, "invert token records",
                "--tokens", "--codebook", "--out")
    p.add_argument("--reference", help="original dataset for RMSE reporting")
    command("train", cmd_train, "train the reference sequence model",
            "--tokens", "--codebook", "--out")
    p = command("forecast", cmd_forecast, "sample forecast paths",
                "--data", "--codebook", "--model", "--out")
    p.add_argument("--workers", type=int, default=1)
    p = command("eval", cmd_eval, "score forecasts against held-out horizons", "--out")
    p.add_argument("--data", action="append", required=True)
    p.add_argument("--forecasts", action="append", required=True)
    p = command("ablate", cmd_ablate, "sweep a configuration grid", "--data", "--out-dir")
    p.add_argument("--grid", required=True, help="YAML file with a 'grid' mapping")
    return parser


def _print_warning(message, *_):
    """Show a warning as one ``warning:`` line, without its source location."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.simplefilter("always", UserWarning)  # each cell or dataset reports its own
        warnings.showwarning = _print_warning
        try:
            return args.func(args)
        except (WavetsError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
