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
axis, and :func:`forecast_dataset` advances all sample paths together. Series
``item_id`` samples with the seed ``SeedSequence([seed, int(sha256(item_id)[:8], 16)])``,
so its paths do not depend on the rest of the batch or on the worker that
runs it. One rule fails a series: where a stacked call raises, its halves
run again, down to single series, so a series fails in a batch exactly
when it fails alone, with that error, and the rest are unchanged (say, a
context or window with no observed value, coefficients that overflow, or
a sampling distribution without mass). An ablation cell (:func:`run_cell`)
trains on a dataset's ``split_last_h`` train view, scores the horizons held
out from it and fails on any series.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .codebook import Codebook, check_token_ids, fit_codebook
from .data_io import Dataset, split_last_h
from .dwt import coefficient_layout
from .exceptions import WavetsError
from .families import get_family
from .metrics import (
    QUANTILE_LEVELS,
    mase,
    sample_quantiles,
    seasonal_naive,
    seasonality_for_freq,
    vrse,
    wql,
)
from .seq_model import MarkovModel, sample_forecast, train_markov
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
    fingerprint. Its fields and defaults are the only list of settings:
    the command-line flags and config-file keys are derived from them."""

    family: str = _option("bior2.2", "wavelet family name")
    level: int = _option(1, "decomposition level")
    threshold_method: str = _option("none", "none | cdf | visu_soft | visu_hard | fdrc")
    threshold_b: float = _option(0.5, "cutoff base for cdf thresholding")
    threshold_q: float = _option(0.05, "error level for fdrc thresholding")
    sigma_estimator: str = _option("mad_finest", "mad_finest | std_finest")
    vocab_budget: int = _option(1024, "total vocabulary size budget")
    bound_lo: float = _option(-30.0, "lower quantization bound")
    bound_hi: float = _option(30.0, "upper quantization bound")
    context_length: int = _option(512)
    horizon: int = _option(64)
    order: int = _option(3, "Markov model order")
    alpha: float = _option(0.1, "Markov smoothing constant")
    n_samples: int = _option(20, "sample paths per series")
    temperature: float = _option(1.0)
    seed: int = _option(0)
    boundary_mode: str = _option("symmetric", "symmetric | periodization")
    mix_tsmixup: float = _option(0.9, "probability of tsmixup (vs GP) in synthetic corpora")

    def __post_init__(self):
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
                raise ValueError(f"{f.name} must be of type {kind.__name__}, got {value!r}")
        get_family(self.family)  # raises for unknown names
        self.tokenizer_config()  # validates the threshold method and parameters
        if self.level < 1:
            raise ValueError(f"decomposition level must be positive, got {self.level}")
        if self.vocab_budget < 5:
            raise ValueError(f"vocabulary budget must be at least 5, got {self.vocab_budget}")
        if not self.bound_lo < 0.0 < self.bound_hi:
            raise ValueError(f"bounds must straddle 0, got ({self.bound_lo}, {self.bound_hi})")
        if self.context_length < 2 or self.horizon < 2:
            raise ValueError("context length and horizon must be at least 2")
        if self.order < 1:
            raise ValueError(f"model order must be at least 1, got {self.order}")
        if self.alpha <= 0:
            raise ValueError(f"smoothing must be positive, got {self.alpha}")
        if self.n_samples < 1:
            raise ValueError(f"need at least one sample path, got {self.n_samples}")
        if not 0.0 <= self.mix_tsmixup <= 1.0:
            raise ValueError(f"mixup probability must be in [0, 1], got {self.mix_tsmixup}")

    def tokenizer_config(self) -> TokenizerConfig:
        threshold = ThresholdSpec(method=self.threshold_method, b=self.threshold_b,
                                  q=self.threshold_q, sigma_estimator=self.sigma_estimator)
        return TokenizerConfig(family=self.family, level=self.level, threshold=threshold,
                               boundary_mode=self.boundary_mode)

    def bounds(self) -> tuple[float, float]:
        return (self.bound_lo, self.bound_hi)

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


def _by_row(call, n: int):
    """Run a stacked ``call(rows)``, which returns one result per index in
    ``rows``, on all ``n`` rows. Only where a call raises are its halves run
    again, down to single rows, so a row fails exactly when its own one-row
    call fails, with that call's error. Returns ``(results, errors)``, both
    keyed by row index."""
    results, errors, pending = {}, {}, [list(range(n))] if n else []
    while pending:
        rows = pending.pop()
        try:
            results.update(zip(rows, call(rows)))
        except Exception as exc:  # retried by halves; a single row fails alone
            if len(rows) == 1:
                errors[rows[0]] = exc
            else:
                pending += [rows[len(rows) // 2:], rows[:len(rows) // 2]]
    return results, errors


def _scaled_stacks(windows, rows):
    """Each context's :func:`compute_scale`, as arrays, and one stack per window
    position, of the ``rows`` of ``(item_id, context, *windows)`` tuples."""
    stacks = [np.array(kind) for kind in zip(*(windows[i][1:] for i in rows))]
    stats = [compute_scale(context) for context in stacks[0]]
    return ScaleStats(np.array([s.mu for s in stats]), np.array([s.sigma for s in stats])), stacks


def pool_coefficients(windows, config: RunConfig):
    """Pool the coefficients the codebook is fit to.

    Returns the approximation and detail bands of every window with an
    observed value, each scaled by its series' context statistics, plus
    ``(item_id, error)`` for each series set aside (a horizon with no
    observed value is left out alone).
    """
    tok_config = config.tokenizer_config()

    def bands(rows):  # each row's context bands, then its horizon's if observed
        scale, (contexts, horizons) = _scaled_stacks(windows, rows)
        observed = np.isfinite(horizons).any(axis=1)
        context = coefficients(contexts, scale, tok_config)
        horizon = coefficients(horizons[observed], ScaleStats(scale.mu[observed],
                                                              scale.sigma[observed]), tok_config)
        horizon_rows = zip(horizon.approx, *horizon.details)
        return [[*row, *(next(horizon_rows) if obs else ())]
                for row, obs in zip(zip(context.approx, *context.details), observed)]

    pooled, failed = _by_row(bands, len(windows))
    if not pooled:
        raise WavetsError("no usable training windows")
    return (np.concatenate([band for i in sorted(pooled) for band in pooled[i]]),
            [(windows[i][0], failed[i]) for i in sorted(failed)])


def tokenize_windows(windows, config: RunConfig, codebook: Codebook):
    """``(item_id, context stream, horizon stream)`` per series, plus
    ``(item_id, error)`` for each series that could not be tokenized, in
    input order."""
    tok_config = config.tokenizer_config()

    def streams(rows):
        scale, (contexts, horizons) = _scaled_stacks(windows, rows)
        return list(zip(tokenize(contexts, scale, tok_config, codebook).rows(),
                        tokenize(horizons, scale, tok_config, codebook, append_eos=True).rows()))

    pairs, failed = _by_row(streams, len(windows))
    return ([(windows[i][0], *pairs[i]) for i in sorted(pairs)],
            [(windows[i][0], failed[i]) for i in sorted(failed)])


def read_token_records(records, config: RunConfig, codebook: Codebook):
    """Stack the valid token records ``{item_id, kind, tokens, mu, sigma}``
    of each kind as ``{kind: (indices, stream)}``; map each invalid one's
    index to ``(item_id, kind, error)``. A record is invalid when a field is
    missing, its kind is unknown, its token count is not its window's
    layout (plus a horizon's EOS), an id is outside the vocabulary, or an
    EOS sits anywhere but the last position of a horizon."""
    family = get_family(config.family)
    rows, failed = {}, {}
    for i, record in enumerate(records):
        item_id, kind = record.get("item_id"), record.get("kind")
        try:
            missing = [key for key in _RECORD_FIELDS if key not in record]
            if missing:
                raise ValueError(f"missing field(s) {', '.join(missing)}")
            if not isinstance(item_id, str) or kind not in _WINDOW_FIELDS:
                raise ValueError(f"need a string item_id and a kind in {list(_WINDOW_FIELDS)}")
            layout = coefficient_layout(getattr(config, _WINDOW_FIELDS[kind]), family,
                                        config.level, config.boundary_mode)
            eos = [sum(layout)] if kind == "horizon" else []
            tokens = np.asarray(record["tokens"])
            if (tokens.ndim != 1 or tokens.dtype.kind not in "iu"
                    or len(tokens) != sum(layout) + len(eos)):
                raise ValueError(f"tokens must be {sum(layout) + len(eos)} integer ids for the "
                                 f"layout {layout}{' and EOS' if eos else ''}, got {tokens.dtype} of shape "
                                 f"{tokens.shape}")
            check_token_ids(tokens, codebook)
            at = np.flatnonzero(tokens == codebook.eos_id).tolist()
            if at != eos:
                raise ValueError(f"EOS token at position(s) {at}, expected {eos}")
            rows.setdefault(kind, []).append((i, tokens, float(record["mu"]), float(record["sigma"])))
        except (TypeError, ValueError) as exc:
            failed[i] = (item_id, kind, exc)
    return {kind: (indices, TokenStream(np.stack(tokens), ScaleStats(np.array(mu), np.array(sigma)),
                                        has_eos=kind == "horizon"))
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
                                                      config.tokenizer_config(), codebook),
                               len(rows))
        values.update((rows[j], window) for j, window in done.items())
        failed.update((rows[j], (records[rows[j]]["item_id"], kind, exc))
                      for j, exc in errors.items())
    return ([(records[i]["item_id"], records[i]["kind"], values[i]) for i in sorted(values)],
            [failed[i] for i in sorted(failed)])


def train_model(corpus, config: RunConfig, codebook: Codebook) -> MarkovModel:
    """The reference Markov model over (context, horizon) stream pairs."""
    return train_markov(
        corpus, order=config.order, alpha=config.alpha,
        vocab_size=codebook.vocab_size, pad_id=codebook.pad_id,
    )


def series_seed(seed: int, item_id: str) -> int:
    """The sampling seed of one series under the run seed."""
    item_key = int(hashlib.sha256(item_id.encode()).hexdigest()[:8], 16)
    return int(np.random.SeedSequence([seed, item_key]).generate_state(1)[0])


def forecast_dataset(model, codebook: Codebook, config: RunConfig, contexts):
    """Sample paths for every ``(item_id, context)`` pair in one batch.

    Returns ``(item_id, paths, None)`` per series in input order, or
    ``(item_id, None, message)`` for a series that fails: a series fails
    exactly when it fails forecast alone, with that message, and leaves
    the paths of the rest unchanged.
    """
    tok_config = config.tokenizer_config()

    def sample(rows):
        scale, (stack,) = _scaled_stacks(contexts, rows)
        return sample_forecast(model, tokenize(stack, scale, tok_config, codebook).rows(),
                               config.horizon, tok_config, codebook,
                               [series_seed(config.seed, contexts[i][0]) for i in rows],
                               config.n_samples, config.temperature)

    paths, failed = _by_row(sample, len(contexts))
    return [(item_id, paths.get(i), str(failed[i]) if i in failed else None)
            for i, (item_id, _) in enumerate(contexts)]


def _groups(keys) -> list[list[int]]:
    """Row indices per distinct key, in order of first appearance."""
    groups: dict = {}
    for row, key in enumerate(keys):
        groups.setdefault(key, []).append(row)
    return list(groups.values())


def evaluate_dataset(name: str, dataset: Dataset, samples: dict, config: RunConfig):
    """Per-dataset WQL/MASE/VRSE for the model and the seasonal-naive
    baseline. Missing steps of a held-out horizon are left out of every
    score; the forecasts still cover the whole horizon. The series are
    scored as one stack: one quantile call per sample count, one
    seasonal-naive and MASE call per naive season (the dataset's, or less
    for a context with few observed values) and one VRSE call. A series
    whose MASE or VRSE is undefined (NaN) is left out of that mean, and one
    warning per dataset names every such series."""
    windows = make_windows(dataset, config)
    if not windows:
        raise WavetsError(f"dataset {name}: no series to score")
    for item_id, _, horizon in windows:
        if item_id not in samples:
            raise WavetsError(f"dataset {name}: no forecast for series {item_id!r}")
        if np.ndim(samples[item_id]) != 2 or samples[item_id].shape[1] != len(horizon):
            raise WavetsError(f"dataset {name}: forecast horizon mismatch for {item_id!r}")
    item_ids, contexts, truths = zip(*windows)
    contexts, truths = np.stack(contexts), np.stack(truths)
    # missing context values stay in place, so the seasons keep their phase
    seasons = np.minimum(seasonality_for_freq(dataset.freq), np.isfinite(contexts).sum(axis=1) - 1)
    seasons = np.maximum(seasons, 1).tolist()
    model_q = np.empty((len(QUANTILE_LEVELS), *truths.shape))
    for rows in _groups(len(samples[item_id]) for item_id in item_ids):
        model_q[:, rows] = sample_quantiles(np.stack([samples[item_ids[i]] for i in rows]))
    median = model_q[QUANTILE_LEVELS.index(0.5)]
    naive_point, naive_q = np.empty_like(truths), np.empty_like(model_q)
    model_mase, naive_mase = np.empty(len(truths)), np.empty(len(truths))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for rows in _groups(seasons):
            season = seasons[rows[0]]
            naive_point[rows], naive_q[:, rows] = seasonal_naive(contexts[rows], season,
                                                                 truths.shape[1])
            model_mase[rows] = mase(truths[rows], median[rows], contexts[rows], season)
            naive_mase[rows] = mase(truths[rows], naive_point[rows], contexts[rows], season)
        model_vrse, naive_vrse = vrse(truths, median), vrse(truths, naive_point)
    undefined = [item_ids[i] for i in np.flatnonzero(
        np.isnan([model_mase, naive_mase, model_vrse, naive_vrse]).any(axis=0))]
    if undefined:
        warnings.warn(f"dataset {name}: MASE or VRSE is undefined for {len(undefined)} of "
                      f"{len(truths)} series, left out of those means: {', '.join(undefined)}")
    return {
        ("model", "wql"): wql(truths, model_q),
        ("model", "mase"): float(np.nanmean(model_mase)),
        ("model", "vrse"): float(np.nanmean(model_vrse)),
        ("seasonal_naive", "wql"): wql(truths, naive_q),
        ("seasonal_naive", "mase"): float(np.nanmean(naive_mase)),
        ("seasonal_naive", "vrse"): float(np.nanmean(naive_vrse)),
    }


def run_cell(config: RunConfig, dataset: Dataset):
    """Fit, train, forecast and score one ablation cell in memory; any
    per-series failure fails the cell."""
    train_windows = make_windows(split_last_h(dataset, config.horizon)[0], config)
    sample, skipped = pool_coefficients(train_windows, config)
    codebook = fit_codebook(sample, config.vocab_budget, config.bounds())
    pairs, failures = tokenize_windows(train_windows, config, codebook)
    if skipped or failures:
        item_id, exc = (skipped + failures)[0]
        raise WavetsError(f"series {item_id!r}: {exc}")
    model = train_model([(ctx, hor) for _, ctx, hor in pairs], config, codebook)
    contexts = [(item_id, context) for item_id, context, _ in make_windows(dataset, config)]
    samples = {}
    for item_id, paths, error in forecast_dataset(model, codebook, config, contexts):
        if error:
            raise WavetsError(f"series {item_id!r}: {error}")
        samples[item_id] = paths
    return evaluate_dataset("cell", dataset, samples, config)
