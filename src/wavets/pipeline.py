"""The train -> forecast -> score protocol behind every command.

Each series holds out its last ``horizon`` points; its context is the at
most ``context_length`` points before them, left-padded with missing
values. The codebook is fit to the pooled, context-scaled and thresholded
wavelet coefficients of the training windows (contexts and horizons), and
the Markov model is trained on their token pairs. Forecasts start from the
tokenized context and are scored on the held-out horizon by WQL, MASE and
VRSE, next to the seasonal-naive baseline, whose seasons stay aligned in
time across missing context values. A command tokenizes each window
kind (contexts, horizons) of all its series as one stack on the last axis,
and :func:`forecast_dataset` advances all sample paths together. Series
``item_id`` samples with the seed ``SeedSequence([seed, int(sha256(item_id)[:8], 16)])``,
so its paths do not depend on the rest of the batch or on the worker that
runs it. A series that cannot be used fails alone, not the run: a context
or window with no observed value, a non-finite scaled value, or a path
that meets a sampling distribution without mass fails only its own
series. An ablation cell (:func:`run_cell`) trains on a dataset's
``split_last_h`` train view, scores the horizons held out from it and
fails on any series.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .codebook import Codebook, fit_codebook
from .data_io import Dataset, split_last_h
from .dwt import decompose
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
from .thresholding import ThresholdSpec, apply_threshold
from .tokenizer import ScaleStats, TokenizerConfig, compute_scale, fill_missing, pad_to_length, tokenize


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
        self.threshold_spec()  # validates method and parameters
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

    def threshold_spec(self) -> ThresholdSpec:
        return ThresholdSpec(
            method=self.threshold_method,
            b=self.threshold_b,
            q=self.threshold_q,
            sigma_estimator=self.sigma_estimator,
        )

    def tokenizer_config(self) -> TokenizerConfig:
        return TokenizerConfig(
            family=self.family,
            level=self.level,
            threshold=self.threshold_spec(),
            boundary_mode=self.boundary_mode,
        )

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


def _scale_windows(windows):
    """Stack the windows of ``(item_id, context, ...)`` tuples by position,
    as ``(rows, windows, scale)``: series indices, windows and context
    ``ScaleStats`` as arrays. Also returns, by index, the error of each
    series set aside because its context or a window has no observed
    value, or a scaled value is not finite."""
    kinds, failed = {}, {}
    for i, (_, *series) in enumerate(windows):
        try:
            scale = compute_scale(series[0])
            if not all(np.isfinite((fill_missing(w) - scale.mu) / scale.sigma).all()
                       for w in series):
                raise ValueError("input signal contains non-finite values")
        except ValueError as exc:
            failed[i] = exc
            continue
        for k, window in enumerate(series):
            kinds.setdefault(k, []).append((i, window, scale.mu, scale.sigma))
    return [(rows, np.array(stack), ScaleStats(np.array(mu), np.array(sigma)))
            for rows, stack, mu, sigma in (zip(*kind) for kind in kinds.values())], failed


def pool_coefficients(windows, config: RunConfig):
    """Pool the coefficients the codebook is fit to.

    Returns the approximation and detail bands of every window with an
    observed value, each scaled by its series' context statistics, plus
    ``(item_id, error)`` for each series set aside (a horizon with no
    observed value is left out alone).
    """
    family = get_family(config.family)
    kinds, failed = _scale_windows([(item_id, context, *[h for h in (horizon,) if np.isfinite(h).any()])
                                    for item_id, context, horizon in windows])
    pool = []
    for _, stack, scale in kinds:
        z = (fill_missing(stack) - scale.mu[:, None]) / scale.sigma[:, None]
        pyramid = apply_threshold(decompose(z, family, config.level, config.boundary_mode),
                                  config.threshold_spec())
        pool += [band.ravel() for band in (pyramid.approx, *pyramid.details)]
    if not pool:
        raise WavetsError("no usable training windows")
    return np.concatenate(pool), [(windows[i][0], exc) for i, exc in failed.items()]


def tokenize_windows(windows, config: RunConfig, codebook: Codebook):
    """``(item_id, context stream, horizon stream)`` per series, plus
    ``(item_id, error)`` for each series that could not be tokenized, in
    input order. An error that concerns the whole batch fails every
    series with it."""
    tok_config = config.tokenizer_config()
    kinds, failed = _scale_windows(windows)
    rows = kinds[0][0] if kinds else ()
    try:
        streams = [tokenize(stack, scale, tok_config, codebook, append_eos=k == 1).rows()
                   for k, (_, stack, scale) in enumerate(kinds)]
    except Exception as exc:  # fails every series of the batch
        failed.update(dict.fromkeys(rows, exc))
        rows, streams = (), []
    pairs = [(windows[i][0], *pair) for i, *pair in zip(rows, *streams)]
    return pairs, [(windows[i][0], failed[i]) for i in sorted(failed)]


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
    ``(item_id, None, message)`` for a series that fails, so that one bad
    series never stops the rest. An error that concerns the whole batch,
    such as a vocabulary mismatch, fails every series with its message.
    """
    tok_config = config.tokenizer_config()
    kinds, failed = _scale_windows(contexts)
    results = [(item_id, None, str(failed[i]) if i in failed else None)
               for i, (item_id, _) in enumerate(contexts)]
    for rows, stack, scale in kinds:  # the one kind: contexts
        try:
            paths, errors = sample_forecast(
                model, tokenize(stack, scale, tok_config, codebook).rows(), config.horizon,
                tok_config, codebook, seeds=[series_seed(config.seed, contexts[i][0]) for i in rows],
                n_samples=config.n_samples, temperature=config.temperature,
            )
        except Exception as exc:  # fails every series of the batch
            paths, errors = [None] * len(rows), [str(exc)] * len(rows)
        for i, series_paths, error in zip(rows, paths, errors):
            results[i] = (results[i][0], None if error else series_paths, error)
    return results


def evaluate_dataset(name: str, dataset: Dataset, samples: dict, config: RunConfig):
    """Per-dataset WQL/MASE/VRSE for the model and the seasonal-naive
    baseline. Missing steps of a held-out horizon are left out of every
    score; the forecasts still cover the whole horizon. A series whose
    MASE or VRSE is undefined (NaN) is left out of that mean, and one
    warning per dataset names every such series."""
    season = seasonality_for_freq(dataset.freq)
    rows, undefined = [], []
    for item_id, context, horizon in make_windows(dataset, config):
        if item_id not in samples:
            raise WavetsError(f"dataset {name}: no forecast for series {item_id!r}")
        paths = samples[item_id]
        if paths.shape[1] != len(horizon):
            raise WavetsError(f"dataset {name}: forecast horizon mismatch for {item_id!r}")
        quantiles = sample_quantiles(paths)
        median = quantiles[QUANTILE_LEVELS.index(0.5)]
        # missing context values stay in place, so the seasons keep their phase
        naive_season = min(season, int(np.isfinite(context).sum()) - 1) or 1
        naive_point, naive_quantiles = seasonal_naive(context, naive_season, len(horizon))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            scores = (mase(horizon, median, context, naive_season),
                      mase(horizon, naive_point, context, naive_season),
                      vrse(horizon, median), vrse(horizon, naive_point))
        if np.isnan(scores).any():
            undefined.append(item_id)
        rows.append((horizon, quantiles, naive_quantiles, *scores))
    if undefined:
        warnings.warn(f"dataset {name}: MASE or VRSE is undefined for {len(undefined)} of "
                      f"{len(rows)} series, left out of those means: {', '.join(undefined)}")
    truths, model_q, naive_q, model_mase, naive_mase, model_vrse, naive_vrse = zip(*rows)
    truth_stack = np.stack(truths)
    return {
        ("model", "wql"): wql(truth_stack, np.stack(model_q, axis=1)),
        ("model", "mase"): float(np.nanmean(model_mase)),
        ("model", "vrse"): float(np.nanmean(model_vrse)),
        ("seasonal_naive", "wql"): wql(truth_stack, np.stack(naive_q, axis=1)),
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
