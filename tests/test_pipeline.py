"""The shared protocol: pooling, the seed rule, per-series isolation in
the forecast batch, seasonal-naive scoring and what an ablation cell
trains on."""

from datetime import datetime

import numpy as np
import pytest

import wavets.pipeline as pipeline
from wavets.codebook import fit_codebook
from wavets.data_io import Dataset, TimeSeries, split_last_h
from wavets.data_synth import make_dataset
from wavets.exceptions import WavetsError
from wavets.metrics import (
    QUANTILE_LEVELS, mase, sample_quantiles, seasonal_naive, seasonality_for_freq, vrse, wql,
)
from wavets.pipeline import (
    RunConfig,
    evaluate_dataset,
    forecast_dataset,
    make_windows,
    pool_coefficients,
    run_cell,
    series_seed,
    tokenize_windows,
    train_model,
)
from wavets.seq_model import MarkovModel
from wavets.tokenizer import compute_scale, pad_to_length

CONFIG = RunConfig(context_length=64, horizon=16, n_samples=3, order=2)


def small_dataset(n=5, seed=0):
    return make_dataset(n, context_length=64, horizon=16, seed=seed)


def with_empty_context(dataset, item_id):
    for series in dataset.series:
        if series.item_id == item_id:
            series.values[:-CONFIG.horizon] = np.nan
    return dataset


def test_seed_rule_is_pinned():
    assert series_seed(0, "synth-00000") == 3029871508
    assert series_seed(7, "synth-00000") == 2743144175


def test_pool_skips_unscalable_series():
    clean = make_windows(small_dataset(), CONFIG)
    broken = make_windows(with_empty_context(small_dataset(), "synth-00001"), CONFIG)
    sample, skipped = pool_coefficients(broken, CONFIG)
    expected, none_skipped = pool_coefficients([w for w in clean if w[0] != "synth-00001"], CONFIG)
    assert [item_id for item_id, _ in skipped] == ["synth-00001"]
    assert none_skipped == []
    np.testing.assert_array_equal(sample, expected)


def test_pool_of_nothing_is_an_error():
    with pytest.raises(WavetsError, match="no usable training windows"):
        pool_coefficients([], CONFIG)


def test_forecast_dataset_returns_the_error():
    windows = make_windows(with_empty_context(small_dataset(), "synth-00001"), CONFIG)
    sample, _ = pool_coefficients(windows, CONFIG)
    codebook = fit_codebook(sample, CONFIG.vocab_budget, CONFIG.bounds())
    item_id, context, _ = windows[1]
    assert forecast_dataset(None, codebook, CONFIG, [(item_id, context)]) == [
        ("synth-00001", None, "cannot scale a window with no observed values")]


def trained_inputs(dataset):
    """The codebook, model and ``(item_id, context)`` pairs of a dataset."""
    windows = make_windows(dataset, CONFIG)
    sample, _ = pool_coefficients(windows, CONFIG)
    codebook = fit_codebook(sample, CONFIG.vocab_budget, CONFIG.bounds())
    pairs, _ = tokenize_windows(windows, CONFIG, codebook)
    model = train_model([(ctx, hor) for _, ctx, hor in pairs], CONFIG, codebook)
    return codebook, model, [(item_id, context) for item_id, context, _ in windows]


def test_forecast_dataset_fails_only_the_series_without_mass():
    codebook, model, contexts = trained_inputs(small_dataset(6, seed=2))
    tail = tokenize_windows(make_windows(small_dataset(6, seed=2), CONFIG), CONFIG,
                            codebook)[0][3][1].tokens[-model.order:]

    class Starved:
        """The trained model, with no mass after synth-00003's context."""
        vocab_size, order = model.vocab_size, model.order

        def history_states(self, histories):
            starved = (histories[:, -self.order:] == tail).all(axis=1)
            return np.where(starved, -2, model.history_states(histories))

        def next_token_distributions(self, histories):
            probs = model.next_token_distributions(histories)
            probs[(histories[:, -self.order:] == tail).all(axis=1)] = 0.0
            return probs

    results = forecast_dataset(Starved(), codebook, CONFIG, contexts)
    assert [(item_id, error) for item_id, _, error in results] == [
        (item_id, "sampling distribution has no mass" if item_id == "synth-00003" else None)
        for item_id, _ in contexts]
    others = forecast_dataset(model, codebook, CONFIG,
                              [pair for pair in contexts if pair[0] != "synth-00003"])
    assert [(i, p.tobytes()) for i, p, _ in results if p is not None] == [
        (i, p.tobytes()) for i, p, _ in others]


def test_forecast_dataset_fails_every_series_on_a_batch_error():
    dataset = with_empty_context(small_dataset(), "synth-00001")
    codebook, _, contexts = trained_inputs(dataset)
    model = MarkovModel(codebook.vocab_size + 1, CONFIG.order, CONFIG.alpha)
    mismatch = (f"model vocabulary ({codebook.vocab_size + 1}) does not match "
                f"codebook vocabulary ({codebook.vocab_size})")
    assert forecast_dataset(model, codebook, CONFIG, contexts) == [
        (item_id, None, "cannot scale a window with no observed values"
         if item_id == "synth-00001" else mismatch) for item_id, _ in contexts]


def test_run_cell_trains_only_on_the_train_view(monkeypatch):
    dataset = small_dataset()
    corpora = []
    original = pipeline.train_markov

    def spy(corpus, **kwargs):
        corpora.append(list(corpus))
        return original(corpora[-1], **kwargs)

    monkeypatch.setattr(pipeline, "train_markov", spy)
    scores = run_cell(CONFIG, dataset)
    assert np.isfinite(scores[("model", "wql")])
    (corpus,) = corpora
    train_view, _ = split_last_h(dataset, CONFIG.horizon)
    h = CONFIG.horizon
    for (ctx, hor), series in zip(corpus, train_view.series):
        # the training pair is the train view's last window: it ends before the scored horizon
        context = pad_to_length(series.values[:-h], CONFIG.context_length)
        assert ctx.scale == compute_scale(context)
        assert hor.scale == ctx.scale
        assert hor.source_length == h
    assert len(corpus) == len(dataset)


def test_run_cell_fails_on_a_bad_series():
    dataset = with_empty_context(small_dataset(), "synth-00003")
    with pytest.raises(WavetsError, match="series 'synth-00003'"):
        run_cell(CONFIG, dataset)


def test_short_series_are_left_padded():
    series = TimeSeries("short", datetime(2020, 1, 1), "h", np.arange(40.0))
    ((item_id, context, horizon),) = make_windows(Dataset([series], "h"), CONFIG)
    assert item_id == "short" and len(context) == CONFIG.context_length
    assert np.isnan(context[:-24]).all()
    np.testing.assert_array_equal(horizon, np.arange(24.0, 40.0))


def test_evaluate_dataset_scores_a_gappy_horizon_on_its_observed_steps():
    series = small_dataset().series[1]
    series.values[-5] = np.nan
    dataset = Dataset([series], series.freq)
    ((item_id, context, horizon),) = make_windows(dataset, CONFIG)
    paths = np.random.default_rng(1).normal(np.nanmean(horizon), 1.0, size=(3, CONFIG.horizon))
    scores = evaluate_dataset("d", dataset, {item_id: paths}, CONFIG)

    observed = ~np.isnan(horizon)
    truth, quantiles = horizon[observed], sample_quantiles(paths[:, observed])
    median = quantiles[QUANTILE_LEVELS.index(0.5)]
    history = context[np.isfinite(context)]
    season = min(seasonality_for_freq(dataset.freq), len(history) - 1) or 1
    naive_point, naive_quantiles = seasonal_naive(history, season, CONFIG.horizon)
    expected = {
        ("model", "wql"): wql(truth, quantiles),
        ("model", "mase"): mase(truth, median, history, season),
        ("model", "vrse"): vrse(truth, median),
        ("seasonal_naive", "wql"): wql(truth, naive_quantiles[:, observed]),
        ("seasonal_naive", "mase"): mase(truth, naive_point[observed], history, season),
        ("seasonal_naive", "vrse"): vrse(truth, naive_point[observed]),
    }
    assert observed.sum() == CONFIG.horizon - 1
    assert all(np.isfinite(v) for v in scores.values())
    assert scores == pytest.approx(expected, rel=1e-12)


def test_evaluate_dataset_warns_once_naming_series_with_undefined_scores():
    # synth-00000 is all zeros: its MASE and VRSE are undefined.
    dataset = small_dataset()
    windows = make_windows(dataset, CONFIG)
    samples = {item_id: np.tile(horizon + 1.0, (3, 1)) for item_id, _, horizon in windows}
    with pytest.warns(UserWarning) as record:
        scores = evaluate_dataset("toy", dataset, samples, CONFIG)
    assert [str(w.message) for w in record] == [
        "dataset toy: MASE or VRSE is undefined for 1 of 5 series, "
        "left out of those means: synth-00000"]
    assert all(np.isfinite(value) for value in scores.values())


def test_evaluate_dataset_keeps_the_seasons_of_a_gappy_context_in_time():
    # hourly (season 24): the last two seasons of the context and the
    # horizon repeat one period exactly; the first 16 context steps are
    # noisy, and 5 steps inside the last context season are missing
    period = 10 * np.sin(2 * np.pi * np.arange(24) / 24)
    values = np.tile(period, 4)[4:84] + 0.0
    values[:16] += np.random.default_rng(3).normal(0.0, 1.0, 16)
    values[45:50] = np.nan
    dataset = Dataset([TimeSeries("s", datetime(2020, 1, 1), "h", values)], "h")
    ((item_id, context, horizon),) = make_windows(dataset, CONFIG)
    paths = np.tile(horizon + 1.0, (3, 1))
    scores = evaluate_dataset("d", dataset, {item_id: paths}, CONFIG)
    # the naive forecast fills the gap from the season before: exact
    assert scores[("seasonal_naive", "wql")] == 0.0
    assert scores[("seasonal_naive", "mase")] == 0.0
    # the scale runs over the 35 lag-24 pairs with both values observed
    pairs = [abs(context[t] - context[t + 24]) for t in range(40)
             if np.isfinite(context[t]) and np.isfinite(context[t + 24])]
    assert len(pairs) == 35
    assert scores[("model", "mase")] == pytest.approx(35 / 16 * 16 / sum(pairs), rel=1e-12)
