"""Forecast evaluation: WQL, MASE, VRSE, relative scores and ranks.

Quantiles are taken and scored at the nine fixed levels
:data:`QUANTILE_LEVELS` (0.1, 0.2, ..., 0.9); no function takes others.

Missing truth values (NaN) are left out: WQL, MASE and VRSE score a
forecast on the observed steps of its truth only, as if the series were
restricted to them. :func:`sample_quantiles`, :func:`seasonal_naive`,
:func:`mase` and :func:`vrse` work along the last axis: a stack of rows
gives one result per row, and each row's result is bit-identical to a
one-row call, because every row is reduced as the 1-D array of its
observed values (rows are grouped by their count of observed values).
:func:`wql` scores a whole stack as one number.

A score that is undefined is NaN, without a warning; the caller decides
what to report (:func:`wavets.pipeline.evaluate_dataset` names the
series). The causes:

* WQL: no observed truth value is nonzero.
* MASE: a row with no observed truth, no seasonal pair of the context
  with both values observed, or a perfectly seasonal context.
* VRSE: a row with fewer than two observed truth steps, or whose
  observed truth has a zero-energy spectrum.
"""

from __future__ import annotations

import numpy as np

QUANTILE_LEVELS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def quantile_loss(q: np.ndarray, x: np.ndarray, alpha: float) -> np.ndarray:
    """Pinball loss: ``alpha (x - q)`` when the truth exceeds the quantile
    forecast, ``(1 - alpha)(q - x)`` otherwise."""
    q = np.asarray(q, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= q, alpha * (x - q), (1.0 - alpha) * (q - x))


def _rows(values) -> np.ndarray:
    """``values`` as float64 rows: a 2-D view with the last axis kept."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 0:
        raise ValueError("expected values along a last axis, got a scalar")
    return values.reshape(-1, values.shape[-1])


def observed_groups(keep: np.ndarray, *arrays: np.ndarray):
    """Yield ``(rows, n, kept)`` per count ``n`` of kept entries in a row of
    the 2-D mask ``keep``: ``rows`` selects the rows with that count and
    ``kept`` holds, per array, their kept entries as an ``(len, n)`` stack."""
    counts = keep.sum(axis=1)
    for n in np.unique(counts).tolist():
        rows = counts == n
        yield rows, n, [a[rows][keep[rows]].reshape(int(rows.sum()), n) for a in arrays]


def wql(truth: np.ndarray, quantile_forecasts: np.ndarray) -> float:
    """Weighted quantile loss averaged over the quantile levels.

    ``quantile_forecasts`` stacks one forecast array per level of
    :data:`QUANTILE_LEVELS` along the first axis; the remaining axes must
    match ``truth``, which may cover a single series or a whole dataset
    (all non-level axes are summed, and the loss is normalized by the
    summed magnitude of the truth). Missing truth values drop out of both
    sums.
    """
    truth = np.asarray(truth, dtype=np.float64)
    qf = np.asarray(quantile_forecasts, dtype=np.float64)
    if qf.shape != (len(QUANTILE_LEVELS), *truth.shape):
        raise ValueError(f"expected quantile forecasts of shape "
                         f"{(len(QUANTILE_LEVELS), *truth.shape)}, got {qf.shape}")
    observed = ~np.isnan(truth)
    truth, qf = truth[observed], qf[:, observed]
    denom = np.sum(np.abs(truth))
    if denom == 0.0:
        return float("nan")
    per_level = [2.0 * np.sum(quantile_loss(qf[i], truth, a)) / denom
                 for i, a in enumerate(QUANTILE_LEVELS)]
    return float(np.mean(per_level))


def mase(
    truth: np.ndarray,
    point_forecast: np.ndarray,
    context: np.ndarray,
    seasonality: int,
):
    """Mean absolute error scaled by the in-sample seasonal-naive error,
    per row of the last axis: an array of shape ``truth.shape[:-1]``.

    ``(P / H) * sum|err| / sum_t |x_t - x_{t+S}|``, where ``H`` counts the
    observed truth steps and the error sum runs over them, and the scale
    sums over the ``P`` pairs ``(t, t + S)`` of the context whose values
    are both observed (``P = C - S`` without missing values). Each truth
    row has its own context row.
    """
    shape = np.shape(truth)[:-1]
    truth, forecast, context = _rows(truth), _rows(point_forecast), _rows(context)
    if truth.shape != forecast.shape:
        raise ValueError(f"truth {truth.shape} and forecast {forecast.shape} differ in shape")
    if len(context) != len(truth):
        raise ValueError(f"{len(context)} context row(s) for {len(truth)} truth row(s)")
    c, s = context.shape[1], int(seasonality)
    if c <= s:
        raise ValueError(f"context length {c} must exceed seasonality {s}")
    observed = ~np.isnan(truth)
    errors, h = np.zeros(len(truth)), observed.sum(axis=1)
    for rows, _, (error,) in observed_groups(observed, np.abs(forecast - truth)):
        errors[rows] = error.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        pairs = np.abs(context[:, : c - s] - context[:, s:])
        finite = np.isfinite(pairs)
        scale, p = np.zeros(len(truth)), finite.sum(axis=1)
        for rows, _, (pair,) in observed_groups(finite, pairs):
            scale[rows] = pair.sum(axis=1)
        scores = p / h * errors / scale
    scores[(h == 0) | (p == 0) | (scale == 0.0)] = np.nan
    return scores.reshape(shape)


def amplitude_spectrum(x: np.ndarray) -> np.ndarray:
    """One-sided Fourier amplitude spectrum along the last axis,
    zero-frequency term included."""
    return np.abs(np.fft.rfft(np.asarray(x, dtype=np.float64)))


def vrse(truth: np.ndarray, point_forecast: np.ndarray):
    """Relative squared discrepancy of the amplitude spectra, per row of
    the last axis: an array of shape ``truth.shape[:-1]``.

    Compares the overall frequency content (the "shape") of the forecast
    with the truth, ignoring time alignment. Steps with missing truth are
    dropped from both series before the spectra are taken.
    """
    shape = np.shape(truth)[:-1]
    truth, forecast = _rows(truth), _rows(point_forecast)
    if truth.shape != forecast.shape:
        raise ValueError(f"truth {truth.shape} and forecast {forecast.shape} differ in shape")
    if truth.shape[1] < 2:
        raise ValueError("need at least two samples to compare spectra")
    observed = ~np.isnan(truth)
    scores, energy = np.full((2, len(truth)), np.nan)
    for rows, n, (kept_truth, kept_forecast) in observed_groups(observed, truth, forecast):
        if n < 2:
            continue
        a_true = amplitude_spectrum(kept_truth)
        a_fc = amplitude_spectrum(kept_forecast)
        energy[rows] = np.sum(a_true**2, axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            scores[rows] = np.sum((a_fc - a_true) ** 2, axis=1) / energy[rows]
    scores[energy == 0.0] = np.nan  # rows with fewer than two observed steps stay NaN
    return scores.reshape(shape)


def sample_quantiles(samples: np.ndarray) -> np.ndarray:
    """Empirical per-step quantiles of sample paths at
    :data:`QUANTILE_LEVELS`: ``(..., n_samples, H)`` paths give
    ``(len(QUANTILE_LEVELS), ..., H)`` quantiles.

    Uses the inclusive linear-interpolation definition (numpy's default);
    quantile conventions differ between libraries, so this one is fixed
    here and used everywhere in the package. One ``np.sort`` orders the
    samples, and numpy's own linear rule interpolates between the order
    statistics at ``(n_samples - 1) * level``: ``a + (b - a) t``, or
    ``b - (b - a)(1 - t)`` where ``t >= 0.5``; a path with NaN at a step
    gives NaN at every level. The result equals ``np.quantile(samples,
    QUANTILE_LEVELS, axis=-2, method="linear")`` bit for bit, except where
    a step holds both 0.0 and -0.0: their order is arbitrary under a sort
    and a partition alike, so the sign of a zero quantile may differ.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim < 2:
        raise ValueError(f"expected (..., n_samples, horizon) paths, got shape {samples.shape}")
    n = samples.shape[-2]
    ordered = np.moveaxis(np.sort(samples, axis=-2), -2, 0)  # NaN sorts last
    position = (n - 1) * np.array(QUANTILE_LEVELS)
    below = np.floor(position)
    above = below + 1
    below[position >= n - 1] = above[position >= n - 1] = -1  # one sample: the last
    t = (position - below).reshape(-1, *(1,) * (samples.ndim - 1))
    a, b = ordered[below.astype(np.intp)], ordered[above.astype(np.intp)]
    diff = b - a
    quantiles = diff * t
    quantiles += a  # in place: a + diff * t, with one temporary fewer
    diff *= 1 - t
    np.subtract(b, diff, out=quantiles, where=t >= 0.5)
    np.copyto(quantiles, ordered[-1], where=np.isnan(ordered[-1]))
    return quantiles


def seasonal_naive(context: np.ndarray, seasonality: int, horizon: int) -> np.ndarray:
    """Repeat the last season of each context row: the ``(..., horizon)``
    point forecast. It is deterministic, so every quantile equals it.

    A missing phase of the last season takes the same phase one season
    earlier, and so on back; a phase never observed takes the last
    observed value of its row.
    """
    context = np.asarray(context, dtype=np.float64)
    c, s = context.shape[-1], int(seasonality)
    if c < s:
        raise ValueError(f"context length {c} is shorter than one season ({s})")
    season = context[..., c - s:].copy()
    end = c - s  # the earlier seasons end here, on phase s - 1
    while end > 0 and not np.isfinite(season).all():
        earlier, tail = context[..., max(end - s, 0):end], season[..., s - min(end, s):]
        np.copyto(tail, earlier, where=~np.isfinite(tail))
        end -= s
    missing = ~np.isfinite(season)
    if missing.any():
        observed = np.isfinite(context)
        if not observed.any(axis=-1).all():
            raise ValueError(f"{int((~observed.any(axis=-1)).sum())} context row(s) have no "
                             "observed values")
        last = c - 1 - np.argmax(observed[..., ::-1], axis=-1)
        np.copyto(season, np.take_along_axis(context, last[..., None], axis=-1), where=missing)
    return season[..., np.arange(horizon) % s]


def aggregate_relative(scores, baseline_scores) -> float:
    """Geometric mean of per-dataset score ratios against a baseline.

    Non-positive and NaN ratios, and ratios to a baseline that is not
    positive, cannot enter a geometric mean; they are dropped, and a mean
    of no ratio is NaN.
    """
    scores = np.asarray(scores, dtype=np.float64)
    baseline = np.asarray(baseline_scores, dtype=np.float64)
    if scores.shape != baseline.shape:
        raise ValueError("scores and baseline must cover the same datasets")
    defined = baseline > 0
    ratios = scores[defined] / baseline[defined]
    ratios = ratios[ratios > 0]
    if ratios.size == 0:
        return float("nan")
    return float(np.exp(np.mean(np.log(ratios))))


def average_rank(score_table: np.ndarray) -> np.ndarray:
    """Mean rank of each model across datasets (1 = best; ties share the
    mean rank).

    ``score_table`` has one row per model and one column per dataset;
    lower scores are better. A dataset where some model's score is not
    finite is left out, as :func:`aggregate_relative` leaves out undefined
    ratios; with no dataset left, every mean rank is NaN.
    """
    table = np.asarray(score_table, dtype=np.float64)
    if table.ndim != 2:
        raise ValueError(f"expected a (models, datasets) table, got shape {table.shape}")
    table = table[:, np.isfinite(table).all(axis=0)]
    if table.shape[1] == 0:
        return np.full(len(table), np.nan)
    # per dataset: 1 + (models scoring lower) + half of (other models tied)
    lower = (table[None] < table[:, None]).sum(axis=1)
    tied = (table[None] == table[:, None]).sum(axis=1) - 1
    return (1.0 + lower + 0.5 * tied).mean(axis=1)
