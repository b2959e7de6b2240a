"""Forecast evaluation: WQL, MASE, VRSE, relative scores and ranks.

Missing truth values (NaN) are left out: WQL, MASE and VRSE score a
forecast on the observed steps of its truth only, as if the series were
restricted to them. Degenerate denominators (all-zero or all-missing
truth, perfectly seasonal context, zero-energy spectra) are flagged: the
function warns and returns NaN rather than raising, so batch evaluation
can proceed.
"""

from __future__ import annotations

import warnings

import numpy as np

QUANTILE_LEVELS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

#: Conventional season length per sampling-frequency tag.
DEFAULT_SEASONALITY = {
    "15min": 96,
    "30min": 48,
    "min": 1440,
    "h": 24,
    "hourly": 24,
    "d": 7,
    "daily": 7,
    "w": 1,
    "weekly": 1,
    "m": 12,
    "monthly": 12,
    "q": 4,
    "quarterly": 4,
    "y": 1,
    "a": 1,
    "yearly": 1,
}


def seasonality_for_freq(freq: str, default: int = 1) -> int:
    """Season length for a frequency tag; unknown tags warn and use
    ``default``."""
    key = str(freq).lower()
    if key in DEFAULT_SEASONALITY:
        return DEFAULT_SEASONALITY[key]
    warnings.warn(f"unknown frequency tag {freq!r}; using seasonality {default}")
    return default


def quantile_loss(q: np.ndarray, x: np.ndarray, alpha: float) -> np.ndarray:
    """Pinball loss: ``alpha (x - q)`` when the truth exceeds the quantile
    forecast, ``(1 - alpha)(q - x)`` otherwise."""
    q = np.asarray(q, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= q, alpha * (x - q), (1.0 - alpha) * (q - x))


def wql(
    truth: np.ndarray,
    quantile_forecasts: np.ndarray,
    levels: tuple[float, ...] = QUANTILE_LEVELS,
) -> float:
    """Weighted quantile loss averaged over the quantile levels.

    ``quantile_forecasts`` stacks one forecast array per level along the
    first axis; the remaining axes must match ``truth``, which may cover a
    single series or a whole dataset (all non-level axes are summed, and
    the loss is normalized by the summed magnitude of the truth). Missing
    truth values drop out of both sums.
    """
    truth = np.asarray(truth, dtype=np.float64)
    qf = np.asarray(quantile_forecasts, dtype=np.float64)
    if qf.shape != (len(levels), *truth.shape):
        raise ValueError(
            f"expected quantile forecasts of shape {(len(levels), *truth.shape)}, got {qf.shape}"
        )
    observed = ~np.isnan(truth)
    truth, qf = truth[observed], qf[:, observed]
    denom = np.sum(np.abs(truth))
    if denom == 0.0:
        warnings.warn("all-zero or missing truth: weighted quantile loss is undefined")
        return float("nan")
    per_level = [2.0 * np.sum(quantile_loss(qf[i], truth, a)) / denom for i, a in enumerate(levels)]
    return float(np.mean(per_level))


def mase(
    truth: np.ndarray,
    point_forecast: np.ndarray,
    context: np.ndarray,
    seasonality: int,
) -> float:
    """Mean absolute error scaled by the in-sample seasonal-naive error.

    ``(P / H) * sum|err| / sum_t |x_t - x_{t+S}|``, where ``H`` counts the
    observed truth steps and the error sum runs over them, and the scale
    sums over the ``P`` pairs ``(t, t + S)`` of the context whose values
    are both observed (``P = C - S`` without missing values).
    """
    truth = np.asarray(truth, dtype=np.float64)
    forecast = np.asarray(point_forecast, dtype=np.float64)
    context = np.asarray(context, dtype=np.float64)
    if truth.shape != forecast.shape:
        raise ValueError(f"truth {truth.shape} and forecast {forecast.shape} differ in shape")
    c, s = len(context), int(seasonality)
    if c <= s:
        raise ValueError(f"context length {c} must exceed seasonality {s}")
    observed = ~np.isnan(truth)
    truth, forecast, h = truth[observed], forecast[observed], int(observed.sum())
    if h == 0:
        warnings.warn("missing truth: scaled error is undefined")
        return float("nan")
    pairs = np.abs(context[: c - s] - context[s:])
    pairs = pairs[np.isfinite(pairs)]
    if pairs.size == 0:
        warnings.warn("no observed seasonal pair in the context: scaled error is undefined")
        return float("nan")
    denom = np.sum(pairs)
    if denom == 0.0:
        warnings.warn("perfectly seasonal context: scaled error is undefined")
        return float("nan")
    return float(pairs.size / h * np.sum(np.abs(forecast - truth)) / denom)


def amplitude_spectrum(x: np.ndarray) -> np.ndarray:
    """One-sided Fourier amplitude spectrum, zero-frequency term
    included."""
    return np.abs(np.fft.rfft(np.asarray(x, dtype=np.float64)))


def vrse(truth: np.ndarray, point_forecast: np.ndarray) -> float:
    """Relative squared discrepancy of the amplitude spectra.

    Compares the overall frequency content (the "shape") of the forecast
    with the truth, ignoring time alignment. Steps with missing truth are
    dropped from both series before the spectra are taken.
    """
    truth = np.asarray(truth, dtype=np.float64)
    forecast = np.asarray(point_forecast, dtype=np.float64)
    if truth.shape != forecast.shape:
        raise ValueError(f"truth {truth.shape} and forecast {forecast.shape} differ in shape")
    if truth.size < 2:
        raise ValueError("need at least two samples to compare spectra")
    observed = ~np.isnan(truth)
    truth, forecast = truth[observed], forecast[observed]
    if truth.size < 2:
        warnings.warn("fewer than two observed steps: relative spectral error is undefined")
        return float("nan")
    a_true = amplitude_spectrum(truth)
    a_fc = amplitude_spectrum(forecast)
    denom = np.sum(a_true**2)
    if denom == 0.0:
        warnings.warn("zero-energy truth: relative spectral error is undefined")
        return float("nan")
    return float(np.sum((a_fc - a_true) ** 2) / denom)


def sample_quantiles(
    samples: np.ndarray,
    levels: tuple[float, ...] = QUANTILE_LEVELS,
) -> np.ndarray:
    """Empirical per-step quantiles of sample paths, shape ``(len(levels), H)``.

    Uses the inclusive linear-interpolation definition (numpy's default);
    quantile conventions differ between libraries, so this one is fixed
    here and used everywhere in the package.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise ValueError(f"expected (n_samples, horizon) paths, got shape {samples.shape}")
    return np.quantile(samples, levels, axis=0, method="linear")


def seasonal_naive(
    context: np.ndarray,
    seasonality: int,
    horizon: int,
    levels: tuple[float, ...] = QUANTILE_LEVELS,
) -> tuple[np.ndarray, np.ndarray]:
    """Repeat the last season of the context; deterministic, so every
    quantile equals the point forecast. Returns ``(point, quantile_stack)``.

    A missing phase of the last season takes the same phase one season
    earlier, and so on back; a phase never observed takes the last
    observed value.
    """
    context = np.asarray(context, dtype=np.float64)
    s = int(seasonality)
    if len(context) < s:
        raise ValueError(f"context length {len(context)} is shorter than one season ({s})")
    season = context[-s:].copy()
    end = len(context) - s  # the earlier seasons end here, on phase s - 1
    while end > 0 and not np.isfinite(season).all():
        earlier, tail = context[max(end - s, 0):end], season[s - min(end, s):]
        np.copyto(tail, earlier, where=~np.isfinite(tail))
        end -= s
    missing = ~np.isfinite(season)
    if missing.any():
        observed = context[np.isfinite(context)]
        if not observed.size:
            raise ValueError("context has no observed values")
        season[missing] = observed[-1]
    reps = int(np.ceil(horizon / s))
    point = np.tile(season, reps)[:horizon]
    return point, np.tile(point, (len(levels), 1))


def aggregate_relative(scores, baseline_scores) -> float:
    """Geometric mean of per-dataset score ratios against a baseline.

    Non-positive ratios cannot enter a geometric mean; they are dropped
    with a warning.
    """
    scores = np.asarray(scores, dtype=np.float64)
    baseline = np.asarray(baseline_scores, dtype=np.float64)
    if scores.shape != baseline.shape:
        raise ValueError("scores and baseline must cover the same datasets")
    if np.any(baseline <= 0):
        raise ValueError("baseline scores must be positive")
    ratios = scores / baseline
    keep = ratios > 0
    if not keep.all():
        warnings.warn(f"excluding {int((~keep).sum())} non-positive score ratio(s)")
    ratios = ratios[keep]
    if ratios.size == 0:
        return float("nan")
    return float(np.exp(np.mean(np.log(ratios))))


def average_rank(score_table: np.ndarray) -> np.ndarray:
    """Mean rank of each model across datasets (1 = best; ties share the
    mean rank).

    ``score_table`` has one row per model and one column per dataset;
    lower scores are better. Missing entries are rejected.
    """
    table = np.asarray(score_table, dtype=np.float64)
    if table.ndim != 2:
        raise ValueError(f"expected a (models, datasets) table, got shape {table.shape}")
    if not np.all(np.isfinite(table)):
        raise ValueError("score table contains missing or non-finite entries")
    # per dataset: 1 + (models scoring lower) + half of (other models tied)
    lower = (table[None] < table[:, None]).sum(axis=1)
    tied = (table[None] == table[:, None]).sum(axis=1) - 1
    return (1.0 + lower + 0.5 * tied).mean(axis=1)
