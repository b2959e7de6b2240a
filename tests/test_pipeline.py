"""The shared protocol: pooling, the seed rule, per-series isolation and
what an ablation cell trains on."""

from datetime import datetime

import numpy as np
import pytest

import wavets.pipeline as pipeline
from wavets.codebook import fit_codebook
from wavets.data_io import Dataset, TimeSeries, split_last_h
from wavets.data_synth import make_dataset
from wavets.exceptions import WavetsError
from wavets.pipeline import (
    RunConfig,
    forecast_series,
    make_windows,
    pool_coefficients,
    run_cell,
    series_seed,
)
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


def test_forecast_series_returns_the_error():
    windows = make_windows(with_empty_context(small_dataset(), "synth-00001"), CONFIG)
    sample, _ = pool_coefficients(windows, CONFIG)
    codebook = fit_codebook(sample, CONFIG.vocab_budget, CONFIG.bounds())
    item_id, context, _ = windows[1]
    assert forecast_series(None, codebook, CONFIG, item_id, context) == (
        "synth-00001", None, "cannot scale a window with no observed values")


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
