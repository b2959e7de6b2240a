"""The train -> forecast -> score protocol behind every command.

Each series holds out its last ``horizon`` points; its context is the at
most ``context_length`` points before them, left-padded with missing
values. The codebook is fit to the pooled, context-scaled and thresholded
wavelet coefficients of the training windows (contexts and horizons), and
the Markov model is trained on their token pairs. Forecasts start from the
tokenized context and are scored on the held-out horizon by WQL, MASE and
VRSE, next to the seasonal-naive baseline, whose seasons stay aligned in
time across missing context values. A command tokenizes, or inverts, each
window kind (contexts, horizons) of all its series as one stack on the last
axis; :func:`forecast_dataset` samples the token ids of all paths together
and inverts them in one call. Series ``item_id`` samples from
``default_rng(series_seed(seed, item_id))``, whose seed is the first word
of ``SeedSequence([seed, int(sha256(item_id)[:8], 16)]).generate_state(1)``,
so its paths do not depend on the rest of the batch or on the worker that
runs it. One rule fails a series: where a stacked call raises, its halves
run again, down to single series, so a series fails in a batch exactly
when it fails alone, with that error, and the rest are unchanged (say, a
context or window with no observed value, coefficients that overflow, or a
sampling distribution without mass); each stage returns ``(item_id,
error)`` per failed series next to its results. An ablation cell
(:func:`run_cell`) trains on a dataset's ``split_last_h`` train view,
scores the horizons held out from it and fails on any series.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .codebook import Codebook, check_token_ids, check_vocab_budget, fit_codebook
from .data_io import Dataset, season_length, split_last_h
from .exceptions import WavetsError
from .metrics import (
    QUANTILE_LEVELS,
    mase,
    sample_quantiles,
    seasonal_naive,
    vrse,
    wql,
)
from .seq_model import MarkovModel, check_model_settings, sample_forecast, train_markov
from .thresholding import ThresholdSpec
from .tokenizer import (ScaleStats, TokenizerConfig, TokenStream, coefficients, compute_scale,
                        detokenize, pad_to_length, tokenize)

_RECORD_FIELDS = ("item_id", "kind", "tokens", "mu", "sigma")
_WINDOW_FIELDS = {"context": "context_length", "horizon": "horizon"}  # RunConfig length field


def _option(default, help_text=None):
    """A configuration field with its command-line help text."""
    return field(default=default, metadata={"help": help_text})


@dataclass(frozen=True)
class RunConfig:
    """Validated pipeline configuration; hashable to a stable
    fingerprint. Its fields are the only list of settings: the command-line
    flags and config-file keys are derived from them. Each field takes its
    range rule from the code that uses it: the tokenizer fields their
    defaults too, from :class:`TokenizerConfig` and :class:`ThresholdSpec`;
    ``vocab_budget`` from :func:`fit_codebook`; ``order`` from the Markov
    model, whose vocabulary is at most ``vocab_budget``."""

    family: str = _option(TokenizerConfig.family, "wavelet family name")
    level: int = _option(TokenizerConfig.level, "decomposition level")
    threshold_method: str = _option(ThresholdSpec.method,
                                    "none | cdf | visu_soft | visu_hard | fdrc")
    vocab_budget: int = _option(1024, "total vocabulary size budget")
    context_length: int = _option(512)
    horizon: int = _option(64)
    order: int = _option(3, "Markov model order")
    n_samples: int = _option(20, "sample paths per series")
    seed: int = _option(0)
    boundary_mode: str = _option(TokenizerConfig.boundary_mode, "symmetric | periodization")

    def __post_init__(self):
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{f.name} must be of type {kind.__name__}, got {value!r}")
        tok_config = self.tokenizer_config()  # validates the threshold method
        for length in (self.context_length, self.horizon):  # family, level and boundary mode
            tok_config.layout(length)
        check_vocab_budget(self.vocab_budget)
        check_model_settings(self.vocab_budget, self.order)
        if self.n_samples < 1:
            raise ValueError(f"need at least one sample path, got {self.n_samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def tokenizer_config(self) -> TokenizerConfig:
        return TokenizerConfig(family=self.family, level=self.level,
                               threshold=ThresholdSpec(method=self.threshold_method),
                               boundary_mode=self.boundary_mode)

    def fingerprint(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def make_windows(dataset: Dataset, config: RunConfig):
    """(item_id, fixed-length context, horizon) triples for every usable
    series; short contexts are left-padded with missing values."""
    _, pairs = split_last_h(dataset, config.horizon, config.context_length)
    return [
        (p.item_id, pad_to_length(p.context, config.context_length), p.horizon) for p in pairs
    ]


def _by_row(call, ids):
    """Run a stacked ``call(rows)``, which returns one result per position in
    ``rows``, on every row of ``ids``. Only where a call raises are its
    halves run again, down to single rows, so a row fails exactly when its
    own one-row call fails, with that call's error. Returns ``[(id,
    result)]`` and ``[(id, error)]``, each in input order."""
    results, errors, pending = {}, {}, [list(range(len(ids)))] if ids else []
    while pending:
        rows = pending.pop()
        try:
            results.update(zip(rows, call(rows)))
        except Exception as exc:  # retried by halves; a single row fails alone
            if len(rows) == 1:
                errors[rows[0]] = exc
            else:
                pending += [rows[len(rows) // 2:], rows[:len(rows) // 2]]
    return ([(ids[i], results[i]) for i in sorted(results)],
            [(ids[i], errors[i]) for i in sorted(errors)])


def _scaled_stacks(windows, rows):
    """The contexts' :func:`compute_scale`, as arrays from one call on their
    stack, and one stack per window position, of the ``rows`` of
    ``(item_id, context, *windows)`` tuples."""
    stacks = [np.array(kind) for kind in zip(*(windows[i][1:] for i in rows))]
    return compute_scale(stacks[0]), stacks


def pool_coefficients(windows, config: RunConfig):
    """Pool the coefficients the codebook is fit to.

    Returns the coefficients :func:`tokenize` quantizes, of the context
    and the horizon of every series :func:`tokenize_windows` keeps: the
    approximation and detail coefficients, scaled by the series' context
    statistics, without those it emits as PAD (no observed sample in their
    filter support), empty if every series fails. Also returns ``(item_id,
    error)`` for each series set aside, in input order; a series fails here
    exactly when it fails :func:`tokenize_windows`, with the same error.
    """
    tok_config = config.tokenizer_config()

    def bands(rows):  # each row's context bands, then its horizon's
        scale, stacks = _scaled_stacks(windows, rows)
        pyramids = [coefficients(stack, scale, tok_config) for stack in stacks]
        return list(zip(*(band for p in pyramids for band in (p.approx, *p.details))))

    if not windows:
        raise WavetsError("no usable training windows")
    pooled, failed = _by_row(bands, [item_id for item_id, *_ in windows])
    sample = np.concatenate([np.empty(0), *(band for _, row in pooled for band in row)])
    return sample[~np.isnan(sample)], failed


def tokenize_windows(windows, config: RunConfig, codebook: Codebook):
    """``(item_id, context stream, horizon stream)`` per series, plus
    ``(item_id, error)`` for each series that could not be tokenized, in
    input order."""
    tok_config = config.tokenizer_config()

    def streams(rows):
        scale, (contexts, horizons) = _scaled_stacks(windows, rows)
        return list(zip(tokenize(contexts, scale, tok_config, codebook).rows(),
                        tokenize(horizons, scale, tok_config, codebook).rows()))

    pairs, failed = _by_row(streams, [item_id for item_id, *_ in windows])
    return [(item_id, *pair) for item_id, pair in pairs], failed


def read_token_records(records, config: RunConfig, codebook: Codebook):
    """Stack the valid token records ``{item_id, kind, tokens, mu, sigma}``
    of each kind as ``{kind: (indices, stream)}``; map each invalid one's
    index to ``(item_id, kind, error)``. A record is invalid when a field is
    missing, its kind is unknown, its tokens are not ``sum(layout)``
    integer ids for its window's layout, an id is outside the vocabulary,
    its ``mu`` or ``sigma`` is no JSON number (an int or a float, not a
    bool), its scale is not one :func:`compute_scale` gives (a finite
    ``mu`` and a finite, positive ``sigma``), or an earlier record has its
    ``item_id`` and kind (records are numbered from 1 in input order)."""
    tok_config = config.tokenizer_config()
    layouts = {kind: tok_config.layout(getattr(config, length))
               for kind, length in _WINDOW_FIELDS.items()}
    rows, failed, first = {}, {}, {}
    for i, record in enumerate(records):
        item_id, kind = record.get("item_id"), record.get("kind")
        try:
            missing = [key for key in _RECORD_FIELDS if key not in record]
            if missing:
                raise ValueError(f"missing field(s) {', '.join(missing)}")
            if not isinstance(item_id, str) or kind not in _WINDOW_FIELDS:
                raise ValueError(f"need a string item_id and a kind in {list(_WINDOW_FIELDS)}")
            if first.setdefault((item_id, kind), i) != i:
                raise ValueError(f"a second {kind} record of this series; the first is "
                                 f"record {first[item_id, kind] + 1}")
            layout = layouts[kind]
            tokens = np.asarray(record["tokens"])
            if tokens.ndim != 1 or tokens.dtype.kind not in "iu" or len(tokens) != sum(layout):
                raise ValueError(f"tokens must be {sum(layout)} integer ids for the layout "
                                 f"{layout}, got {tokens.dtype} of shape {tokens.shape}")
            check_token_ids(tokens, codebook)
            for key in ("mu", "sigma"):
                if isinstance(record[key], bool) or not isinstance(record[key], (int, float)):
                    raise ValueError(f"{key} must be a number, got {type(record[key]).__name__}")
            mu, sigma = float(record["mu"]), float(record["sigma"])
            if not (math.isfinite(mu) and math.isfinite(sigma) and sigma > 0):
                raise ValueError(f"need a finite mu and a positive, finite sigma, got mu {mu} "
                                 f"and sigma {sigma}")
            rows.setdefault(kind, []).append((i, tokens, mu, sigma))
        except (TypeError, ValueError) as exc:
            failed[i] = (item_id, kind, exc)
    return {kind: (indices, TokenStream(np.stack(tokens), ScaleStats(np.array(mu), np.array(sigma))))
            for kind, (indices, tokens, mu, sigma) in ((k, zip(*v)) for k, v in rows.items())}, failed


def detokenize_windows(records, config: RunConfig, codebook: Codebook):
    """``(item_id, kind, values)`` per valid token record and ``(item_id,
    kind, error)`` per invalid one, in input order. Each kind is inverted in
    one call."""
    kinds, failed = read_token_records(records, config, codebook)
    values = {}
    for kind, (rows, stream) in kinds.items():
        length = getattr(config, _WINDOW_FIELDS[kind])
        done, errors = _by_row(lambda sub: detokenize(stream.take(sub), length,
                                                      config.tokenizer_config(), codebook), rows)
        values.update(done)
        failed.update((i, (records[i]["item_id"], kind, exc)) for i, exc in errors)
    return ([(records[i]["item_id"], records[i]["kind"], values[i]) for i in sorted(values)],
            [failed[i] for i in sorted(failed)])


def train_model(corpus, config: RunConfig, codebook: Codebook) -> MarkovModel:
    """The reference Markov model over (context, horizon) stream pairs."""
    return train_markov(corpus, order=config.order, vocab_size=codebook.vocab_size)


def series_seed(seed: int, item_id: str) -> int:
    """The sampling seed of one series under the run seed."""
    item_key = int(hashlib.sha256(item_id.encode()).hexdigest()[:8], 16)
    return int(np.random.SeedSequence([seed, item_key]).generate_state(1)[0])


def forecast_dataset(model, codebook: Codebook, config: RunConfig, contexts):
    """``(item_id, (n_samples, horizon) paths)`` per ``(item_id, context)``
    pair and ``(item_id, error)`` per series that fails, in input order.
    The model draws the token ids of all paths in one call, and one
    :func:`detokenize` call inverts them, each under its series' context
    scale. A series fails exactly when it fails forecast alone, with that
    error, and leaves the paths of the rest unchanged; so the results of
    contiguous chunks of the pairs, forecast one call each (say, in a
    process pool), concatenate to the results of one call."""
    tok_config = config.tokenizer_config()

    def sample(rows):
        scale, (stack,) = _scaled_stacks(contexts, rows)
        n_tokens = sum(tok_config.layout(config.horizon))
        ids = sample_forecast(model, tokenize(stack, scale, tok_config, codebook), n_tokens,
                              codebook, [series_seed(config.seed, contexts[i][0]) for i in rows],
                              config.n_samples)
        per_path = ScaleStats(*(np.repeat(s, config.n_samples) for s in (scale.mu, scale.sigma)))
        paths = detokenize(TokenStream(ids.reshape(-1, n_tokens), per_path), config.horizon,
                           tok_config, codebook)
        return paths.reshape(*ids.shape[:2], config.horizon)

    return _by_row(sample, [item_id for item_id, _ in contexts])


def evaluate_dataset(name: str, dataset: Dataset, samples: dict, config: RunConfig):
    """Per-dataset WQL/MASE/VRSE for the model and the seasonal-naive
    baseline over the series with ``(n_samples, horizon)`` finite forecast
    paths and an observed context value, and ``(item_id, error)`` for every
    other series. Missing steps of a held-out horizon are left out of every
    score; the forecasts still cover the whole horizon. The series are
    scored as one ``(N, S, H)`` stack: one quantile call, one seasonal-naive
    and MASE call per naive season (the dataset's, or less for a context
    with few observed values) and one VRSE call. The dataset's season is its
    frequency tag's :func:`~wavets.data_io.season_length`; a tag without one
    gets season 1 and one warning naming the dataset. The metrics return NaN for
    an undefined score, and this is the one place that reports it: a series
    whose MASE or VRSE is undefined is left out of that mean and one warning
    per metric names every such series; an undefined WQL (no observed
    held-out value is nonzero) gets one warning naming the dataset. A mean
    with no defined score is NaN. A seasonal-naive score of 0 leaves the
    dataset's relative score undefined
    (:func:`~wavets.metrics.aggregate_relative` leaves it out), and gets one
    warning per metric naming the dataset. The scores are None when every
    series fails, and a dataset with no series at all is refused."""
    expected = (config.n_samples, config.horizon)
    windows, failed = [], []
    for item_id, context, horizon in make_windows(dataset, config):
        shape = np.shape(samples.get(item_id))
        if shape != expected or not np.isfinite(samples[item_id]).all():
            got = ("no forecast" if item_id not in samples
                   else f"a forecast of shape {shape}" if shape != expected
                   else "a forecast with non-finite values")
            failed.append((item_id, WavetsError(f"dataset {name}: {got}, expected {expected} "
                                                "finite paths")))
        elif not np.isfinite(context).any():
            failed.append((item_id, WavetsError(f"dataset {name}: no observed context value, "
                                                "so no seasonal-naive baseline")))
        else:
            windows.append((item_id, context, horizon))
    if not windows:
        if failed:
            return None, failed
        raise WavetsError(f"dataset {name}: no series to score")
    item_ids, contexts, truths = zip(*windows)
    contexts, truths = np.stack(contexts), np.stack(truths)
    model_q = sample_quantiles(np.stack([samples[item_id] for item_id in item_ids]))
    median = model_q[QUANTILE_LEVELS.index(0.5)]
    season = season_length(dataset.freq)
    if season is None:
        warnings.warn(f"dataset {name}: frequency tag {dataset.freq!r} has no season, using 1")
    # missing context values stay in place, so the seasons keep their phase
    seasons = np.clip(np.isfinite(contexts).sum(axis=1) - 1, 1, season or 1)
    naive_point = np.empty_like(truths)
    model_mase, naive_mase = np.empty(len(truths)), np.empty(len(truths))
    for season in np.unique(seasons).tolist():
        rows = seasons == season
        naive_point[rows] = seasonal_naive(contexts[rows], season, truths.shape[1])
        model_mase[rows] = mase(truths[rows], median[rows], contexts[rows], season)
        naive_mase[rows] = mase(truths[rows], naive_point[rows], contexts[rows], season)
    scores = {("model", "wql"): wql(truths, model_q),  # every naive quantile is its point
              ("seasonal_naive", "wql"): wql(truths, np.broadcast_to(naive_point, model_q.shape))}
    if np.isnan(list(scores.values())).any():
        warnings.warn(f"dataset {name}: WQL is undefined, no observed held-out value is nonzero")
    for metric, columns in (("mase", (model_mase, naive_mase)),
                            ("vrse", (vrse(truths, median), vrse(truths, naive_point)))):
        undefined = [item_ids[i] for i in np.flatnonzero(np.isnan(columns).any(axis=0))]
        if undefined:
            warnings.warn(f"dataset {name}: {metric.upper()} is undefined for {len(undefined)} of "
                          f"{len(truths)} series, left out of its mean: {', '.join(undefined)}")
        for model, column in zip(("model", "seasonal_naive"), columns):
            defined = not np.isnan(column).all()  # nanmean warns on an empty mean
            scores[model, metric] = float(np.nanmean(column)) if defined else float("nan")
    for metric in ("wql", "mase", "vrse"):
        if scores["seasonal_naive", metric] == 0:
            warnings.warn(f"dataset {name}: relative {metric.upper()} is undefined, the "
                          f"seasonal-naive {metric.upper()} is 0")
    return scores, failed


def _complete(results, failed):
    """A stage's results, or an error naming its first failed series."""
    if failed:
        item_id, exc = failed[0]
        raise WavetsError(f"series {item_id!r}: {exc}")
    return results


def run_cell(config: RunConfig, dataset: Dataset):
    """Fit, train, forecast and score one ablation cell in memory; any
    per-series failure fails the cell."""
    train_windows = make_windows(split_last_h(dataset, config.horizon)[0], config)
    sample = _complete(*pool_coefficients(train_windows, config))
    codebook = fit_codebook(sample, config.vocab_budget)
    pairs = _complete(*tokenize_windows(train_windows, config, codebook))
    model = train_model([(ctx, hor) for _, ctx, hor in pairs], config, codebook)
    contexts = [(item_id, context) for item_id, context, _ in make_windows(dataset, config)]
    forecasts = _complete(*forecast_dataset(model, codebook, config, contexts))
    return _complete(*evaluate_dataset("cell", dataset, dict(forecasts), config))
