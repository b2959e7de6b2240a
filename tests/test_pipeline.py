"""The shared protocol: pooling, the seed rule, per-series isolation in
the forecast batch, seasonal-naive scoring and what an ablation cell
trains on."""

import math
from dataclasses import fields, replace
from datetime import datetime

import numpy as np
import pytest

import wavets.pipeline as pipeline
from wavets.codebook import Codebook, fit_codebook
from wavets.data_io import (Dataset, TimeSeries, read_jsonl, season_length, split_last_h,
                            write_jsonl)
from wavets.data_synth import make_dataset
from wavets.dwt import coefficient_layout
from wavets.exceptions import WavetsError
from wavets.families import get_family
from wavets.metrics import (
    QUANTILE_LEVELS, mase, sample_quantiles, seasonal_naive, vrse, wql,
)
from wavets.pipeline import (
    RunConfig,
    detokenize_windows,
    evaluate_dataset,
    forecast_dataset,
    make_windows,
    pool_coefficients,
    read_token_records,
    run_cell,
    series_seed,
    tokenize_windows,
    train_model,
)
from wavets.seq_model import MarkovModel, sample_forecast
from wavets.tokenizer import (ScaleStats, TokenizerConfig, TokenStream, compute_scale, detokenize,
                              pad_to_length, tokenize, tokenize_pair)

CONFIG = RunConfig(context_length=64, horizon=16, n_samples=3, order=2)


def small_dataset(n=5, seed=0):
    return make_dataset(n, context_length=64, horizon=16, seed=seed)


def with_empty_context(dataset, item_id):
    for series in dataset.series:
        if series.item_id == item_id:
            series.values[:-CONFIG.horizon] = np.nan
    return dataset


def test_run_config_takes_the_tokenizer_defaults_from_the_tokenizer():
    assert RunConfig().tokenizer_config() == TokenizerConfig()


def test_run_config_holds_only_the_settings_runs_vary():
    # thresholding, quantization bounds, sampling and the synthetic corpus
    # mix are fixed by their modules' constants
    assert [f.name for f in fields(RunConfig)] == [
        "family", "level", "threshold_method", "vocab_budget", "context_length", "horizon",
        "order", "alpha", "n_samples", "seed", "boundary_mode"]


@pytest.mark.parametrize("settings, length", [
    ({"context_length": 64, "horizon": 16, "level": 2}, 16),
    ({"context_length": 16, "horizon": 64, "level": 2}, 16),
    ({"context_length": 64, "horizon": 16, "level": 5, "family": "haar"}, 16),
    ({"context_length": 8, "horizon": 64}, 8),
    ({"context_length": 64, "horizon": 1, "family": "haar"}, 1),
    ({"level": 0}, 512),
])
def test_run_config_refuses_a_level_too_deep_for_either_window(settings, length):
    # the message is the tokenizer's own layout rule, word for word
    config = RunConfig()
    family, level = settings.get("family", config.family), settings.get("level", config.level)
    with pytest.raises(ValueError) as expected:
        coefficient_layout(length, get_family(family), level)
    with pytest.raises(ValueError) as refused:
        RunConfig(**settings)
    assert str(refused.value) == str(expected.value)


@pytest.mark.parametrize("settings, reference", [
    ({"order": 7}, lambda: MarkovModel(1024, 7, 0.1)),
    ({"vocab_budget": 64, "order": 10}, lambda: MarkovModel(64, 10, 0.1)),
    ({"order": 0}, lambda: MarkovModel(1024, 0, 0.1)),
    ({"alpha": 0.0}, lambda: MarkovModel(1024, 3, 0.0)),
    ({"vocab_budget": 4}, lambda: fit_codebook(np.ones(3), 4)),
])
def test_run_config_refuses_what_the_model_or_the_codebook_would(settings, reference):
    # the message is the model's or the codebook's own rule, word for word,
    # with the vocabulary budget as the model's largest vocabulary
    with pytest.raises(ValueError) as expected:
        reference()
    with pytest.raises(ValueError) as refused:
        RunConfig(**settings)
    assert str(refused.value) == str(expected.value)


@pytest.mark.parametrize("seed", [-1, -2**40])
def test_run_config_refuses_a_negative_seed(seed):
    with pytest.raises(ValueError, match=f"^seed must be non-negative, got {seed}$"):
        RunConfig(seed=seed)
    assert RunConfig(seed=0).seed == 0


def test_run_config_takes_the_largest_order_the_budget_allows():
    assert RunConfig(order=5).order == 5
    assert RunConfig(vocab_budget=64, order=9).order == 9
    assert MarkovModel(fit_codebook(np.linspace(-3, 3, 301), 64).vocab_size, 9, 0.1).order == 9


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


@pytest.mark.parametrize("settings", [{}, {"family": "db2", "level": 2, "threshold_method": "fdrc"}])
def test_pool_holds_exactly_the_coefficients_tokenize_quantizes(settings):
    # long gaps in every context and in one horizon: the codebook is fit to
    # the coefficients that become value tokens, and to none that become PAD
    config = replace(CONFIG, **settings)
    dataset = small_dataset(6, seed=7)
    for k, series in enumerate(dataset.series):
        series.values[10 + 5 * k:40 + 5 * k] = np.nan
    dataset.series[2].values[-14:-3] = np.nan
    windows = make_windows(dataset, config)
    sample, failed = pool_coefficients(windows, config)
    pairs, _ = tokenize_windows(windows, config, fit_codebook(sample, config.vocab_budget))
    tokens = np.concatenate([stream.tokens for _, *streams in pairs for stream in streams])
    assert failed == [] and len(pairs) == len(windows) == 6
    assert np.isfinite(sample).all() and (tokens == Codebook.PAD_ID).sum() > 100
    assert sample.size == np.sum(tokens >= Codebook.VALUE_OFFSET)


def test_forecast_dataset_returns_the_error():
    windows = make_windows(with_empty_context(small_dataset(), "synth-00001"), CONFIG)
    sample, _ = pool_coefficients(windows, CONFIG)
    codebook = fit_codebook(sample, CONFIG.vocab_budget)
    item_id, context, _ = windows[1]
    forecasts, failed = forecast_dataset(None, codebook, CONFIG, [(item_id, context)])
    assert forecasts == []
    assert [(item_id, str(exc)) for item_id, exc in failed] == [
        ("synth-00001", "cannot scale a window with no observed values")]


def trained_inputs(dataset):
    """The codebook, model and ``(item_id, context)`` pairs of a dataset."""
    windows = make_windows(dataset, CONFIG)
    sample, _ = pool_coefficients(windows, CONFIG)
    codebook = fit_codebook(sample, CONFIG.vocab_budget)
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

    forecasts, failed = forecast_dataset(Starved(), codebook, CONFIG, contexts)
    assert [(item_id, str(exc)) for item_id, exc in failed] == [
        ("synth-00003", "sampling distribution has no mass")]
    others, none_failed = forecast_dataset(model, codebook, CONFIG,
                                           [pair for pair in contexts if pair[0] != "synth-00003"])
    assert none_failed == []
    assert [(i, p.tobytes()) for i, p in forecasts] == [(i, p.tobytes()) for i, p in others]


def test_forecast_dataset_inverts_each_path_under_its_series_scale():
    codebook, model, contexts = trained_inputs(small_dataset(3, seed=2))
    forecasts, failed = forecast_dataset(model, codebook, CONFIG, contexts)
    assert failed == []
    tok_config = CONFIG.tokenizer_config()
    n_tokens = sum(tok_config.layout(CONFIG.horizon))
    for (item_id, paths), (_, context) in zip(forecasts, contexts, strict=True):
        stream = tokenize(context, compute_scale(context), tok_config, codebook)
        (ids,) = sample_forecast(model, replace(stream, tokens=stream.tokens[None]), n_tokens,
                                 codebook, [series_seed(CONFIG.seed, item_id)], CONFIG.n_samples)
        expected = [detokenize(TokenStream(row, stream.scale), CONFIG.horizon, tok_config, codebook)
                    for row in ids]
        assert paths.shape == (CONFIG.n_samples, CONFIG.horizon)
        assert paths.tobytes() == np.array(expected).tobytes()


def test_forecast_dataset_fails_every_series_on_a_batch_error():
    dataset = with_empty_context(small_dataset(), "synth-00001")
    codebook, _, contexts = trained_inputs(dataset)
    model = MarkovModel(codebook.vocab_size + 1, CONFIG.order, CONFIG.alpha)
    mismatch = (f"model vocabulary ({codebook.vocab_size + 1}) does not match "
                f"codebook vocabulary ({codebook.vocab_size})")
    forecasts, failed = forecast_dataset(model, codebook, CONFIG, contexts)
    assert forecasts == []
    assert [(item_id, str(exc)) for item_id, exc in failed] == [
        (item_id, "cannot scale a window with no observed values"
         if item_id == "synth-00001" else mismatch) for item_id, _ in contexts]


def test_unusable_series_fail_alone_and_leave_the_rest_byte_identical():
    dataset = small_dataset(6, seed=4)
    codebook, model, _ = trained_inputs(dataset)
    windows = make_windows(dataset, CONFIG)
    broken = list(windows)
    item_id, context, horizon = broken[1]
    broken[1] = (item_id, np.full_like(context, np.nan), horizon)  # no observed context
    item_id, context, horizon = broken[3]
    broken[3] = (item_id, context, np.full_like(horizon, np.nan))  # no observed horizon
    item_id, context, horizon = broken[4]
    huge = np.tile([1.7e308, -1.7e308, -1.7e308], 22)[:CONFIG.context_length]
    broken[4] = (item_id, huge, horizon)  # its mean overflows
    no_context = "cannot scale a window with no observed values"
    overflows = "cannot scale a window whose mean or deviation overflows"

    pairs, failures = tokenize_windows(broken, CONFIG, codebook)
    assert [(item_id, str(exc)) for item_id, exc in failures] == [
        ("synth-00001", no_context),
        ("synth-00003", "cannot fill a window with no observed values"),
        ("synth-00004", overflows)]
    clean, none_failed = tokenize_windows([windows[i] for i in (0, 2, 5)], CONFIG, codebook)
    assert none_failed == []
    for (item_id, *got), (want_id, *want) in zip(pairs, clean, strict=True):
        assert item_id == want_id
        alone = tokenize_pair(*windows[int(item_id[-1])][1:], CONFIG.tokenizer_config(), codebook)
        for stream, expected, single in zip(got, want, alone):
            assert stream.tokens.tobytes() == expected.tokens.tobytes() == single.tokens.tobytes()
            assert stream.scale == expected.scale == single.scale

    # the codebook pools exactly the series the tokenizer keeps
    sample, skipped = pool_coefficients(broken, CONFIG)
    assert [(item_id, str(exc)) for item_id, exc in skipped] == [
        (item_id, str(exc)) for item_id, exc in failures]
    expected, _ = pool_coefficients([broken[i] for i in (0, 2, 5)], CONFIG)
    np.testing.assert_array_equal(sample, expected)

    contexts = [(item_id, context) for item_id, context, _ in broken]
    forecasts, failed = forecast_dataset(model, codebook, CONFIG, contexts)
    assert [(item_id, str(exc)) for item_id, exc in failed] == [
        ("synth-00001", no_context), ("synth-00004", overflows)]
    others, _ = forecast_dataset(model, codebook, CONFIG, [contexts[i] for i in (0, 2, 3, 5)])
    assert [(i, p.tobytes()) for i, p in forecasts] == [(i, p.tobytes()) for i, p in others]


def with_overflowing_horizon(windows, index):
    """The windows with one series whose horizon coefficients overflow: its
    context scales to mean 0 and a deviation near 1, so its scaled horizon
    of +-1.7e308 stays finite but its approximation band does not."""
    item_id, _, _ = windows[index]
    context = np.tile([-1.0, 1.0], CONFIG.context_length // 2)
    horizon = np.tile(np.repeat([1.7e308, -1.7e308], 8), CONFIG.horizon // 16)
    return [*windows[:index], (item_id, context, horizon), *windows[index + 1:]]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_a_series_whose_coefficients_overflow_fails_alone_with_one_message():
    dataset = small_dataset(6, seed=4)
    codebook, _, _ = trained_inputs(dataset)
    windows = make_windows(dataset, CONFIG)
    broken = with_overflowing_horizon(windows, 2)
    _, context, horizon = broken[2]
    scale = compute_scale(context)
    assert scale.mu == 0.0 and np.isfinite((horizon - scale.mu) / scale.sigma).all()
    clean = [w for i, w in enumerate(windows) if i != 2]
    expected = [("synth-00002", "wavelet coefficients are not finite")]

    sample, skipped = pool_coefficients(broken, CONFIG)
    assert [(item_id, str(exc)) for item_id, exc in skipped] == expected
    assert sample.tobytes() == pool_coefficients(clean, CONFIG)[0].tobytes()

    pairs, failures = tokenize_windows(broken, CONFIG, codebook)
    assert [(item_id, str(exc)) for item_id, exc in failures] == expected
    assert [(item_id, ctx.tokens.tobytes(), hor.tokens.tobytes(), ctx.scale)
            for item_id, ctx, hor in pairs] == [
        (item_id, ctx.tokens.tobytes(), hor.tokens.tobytes(), ctx.scale)
        for item_id, ctx, hor in tokenize_windows(clean, CONFIG, codebook)[0]]


def test_a_context_whose_deviation_overflows_fails_alone_at_its_scale():
    # +-1e200 has a true deviation near 1e200, but its squares overflow;
    # pytest turns the RuntimeWarning a raw overflow would print into an error
    dataset = small_dataset(6, seed=4)
    codebook, model, _ = trained_inputs(dataset)
    windows = make_windows(dataset, CONFIG)
    item_id, _, horizon = windows[3]
    huge = np.tile([1e200, -1e200], CONFIG.context_length // 2)
    broken = [*windows[:3], (item_id, huge, horizon), *windows[4:]]
    clean = [w for i, w in enumerate(windows) if i != 3]
    expected = [("synth-00003", "cannot scale a window whose mean or deviation overflows")]

    pairs, failures = tokenize_windows(broken, CONFIG, codebook)
    assert [(item_id, str(exc)) for item_id, exc in failures] == expected
    assert [(item_id, ctx.tokens.tobytes(), hor.tokens.tobytes(), ctx.scale)
            for item_id, ctx, hor in pairs] == [
        (item_id, ctx.tokens.tobytes(), hor.tokens.tobytes(), ctx.scale)
        for item_id, ctx, hor in tokenize_windows(clean, CONFIG, codebook)[0]]

    sample, skipped = pool_coefficients(broken, CONFIG)
    assert [(item_id, str(exc)) for item_id, exc in skipped] == expected
    assert sample.tobytes() == pool_coefficients(clean, CONFIG)[0].tobytes()

    forecasts, failed = forecast_dataset(model, codebook, CONFIG, [(i, c) for i, c, _ in broken])
    assert [(item_id, str(exc)) for item_id, exc in failed] == expected
    others, _ = forecast_dataset(model, codebook, CONFIG, [(i, c) for i, c, _ in clean])
    assert [(i, p.tobytes()) for i, p in forecasts] == [(i, p.tobytes()) for i, p in others]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_the_retry_makes_one_call_per_kind_and_bisects_only_where_a_call_raises(monkeypatch):
    dataset = small_dataset(6, seed=4)
    codebook, model, _ = trained_inputs(dataset)
    windows = make_windows(dataset, CONFIG)
    calls = []
    original = pipeline.tokenize

    def spy(stack, scale, tok_config, codebook):
        calls.append(stack.shape)
        return original(stack, scale, tok_config, codebook)

    monkeypatch.setattr(pipeline, "tokenize", spy)
    tokenize_windows(windows, CONFIG, codebook)
    forecast_dataset(model, codebook, CONFIG, [(i, c) for i, c, _ in windows])
    context, horizon = (6, CONFIG.context_length), (6, CONFIG.horizon)
    assert calls == [context, horizon, context]
    for index in range(6):
        calls.clear()
        _, failures = tokenize_windows(with_overflowing_horizon(windows, index), CONFIG, codebook)
        assert [item_id for item_id, _ in failures] == [windows[index][0]]
        # each attempt tokenizes contexts first
        attempts = [rows for rows, length in calls if length == CONFIG.context_length]
        assert attempts[0] == 6 and len(attempts) <= 2 * math.ceil(math.log2(6)) + 1 == 7


def test_tokenize_windows_fails_every_series_on_a_batch_error(monkeypatch):
    # a tokenizer that refuses every stack: each series fails alone with its error
    windows = make_windows(with_empty_context(small_dataset(), "synth-00001"), CONFIG)
    codebook, _, _ = trained_inputs(small_dataset())

    def refuse(windows, *args, **kwargs):
        raise ValueError(f"cannot tokenize {len(windows)} window(s)")

    monkeypatch.setattr(pipeline, "tokenize", refuse)
    pairs, failures = tokenize_windows(windows, CONFIG, codebook)
    assert pairs == []
    assert [(item_id, str(exc)) for item_id, exc in failures] == [
        (item_id, "cannot scale a window with no observed values"
         if item_id == "synth-00001" else "cannot tokenize 1 window(s)")
        for item_id, _, _ in windows]


def test_run_cell_trains_only_on_the_train_view(monkeypatch):
    dataset = small_dataset()
    corpora = []
    original = pipeline.train_markov

    def spy(corpus, **kwargs):
        corpora.append(list(corpus))
        return original(corpora[-1], **kwargs)

    monkeypatch.setattr(pipeline, "train_markov", spy)
    with pytest.warns(UserWarning) as record:  # synth-00000 is all zeros
        scores = run_cell(CONFIG, dataset)
    assert [str(w.message) for w in record] == [
        f"dataset cell: {metric} is undefined for 1 of 5 series, left out of its mean: synth-00000"
        for metric in ("MASE", "VRSE")]
    assert np.isfinite(scores[("model", "wql")])
    (corpus,) = corpora
    train_view, _ = split_last_h(dataset, CONFIG.horizon)
    h = CONFIG.horizon
    layout = coefficient_layout(h, get_family(CONFIG.family), CONFIG.level)
    for (ctx, hor), series in zip(corpus, train_view.series):
        # the training pair is the train view's last window: it ends before the scored horizon
        context = pad_to_length(series.values[:-h], CONFIG.context_length)
        assert ctx.scale == compute_scale(context)
        assert hor.scale == ctx.scale
        assert len(hor.tokens) == sum(layout)
    assert len(corpus) == len(dataset)


def test_run_cell_fails_on_a_bad_series():
    dataset = with_empty_context(small_dataset(), "synth-00003")
    with pytest.raises(WavetsError, match="series 'synth-00003'"):
        run_cell(CONFIG, dataset)


def test_short_series_are_left_padded():
    series = TimeSeries("short", datetime(2020, 1, 1), np.arange(40.0))
    ((item_id, context, horizon),) = make_windows(Dataset([series], "h"), CONFIG)
    assert item_id == "short" and len(context) == CONFIG.context_length
    assert np.isnan(context[:-24]).all()
    np.testing.assert_array_equal(horizon, np.arange(24.0, 40.0))


def test_evaluate_dataset_scores_a_gappy_horizon_on_its_observed_steps():
    series = small_dataset().series[1]
    series.values[-5] = np.nan
    dataset = Dataset([series], "h")
    ((item_id, context, horizon),) = make_windows(dataset, CONFIG)
    paths = np.random.default_rng(1).normal(np.nanmean(horizon), 1.0, size=(3, CONFIG.horizon))
    scores, failed = evaluate_dataset("d", dataset, {item_id: paths}, CONFIG)
    assert failed == []

    observed = ~np.isnan(horizon)
    truth, quantiles = horizon[observed], sample_quantiles(paths[:, observed])
    median = quantiles[QUANTILE_LEVELS.index(0.5)]
    history = context[np.isfinite(context)]
    season = min(season_length(dataset.freq), len(history) - 1) or 1
    naive_point = seasonal_naive(history, season, CONFIG.horizon)
    naive_quantiles = np.tile(naive_point[observed], (len(QUANTILE_LEVELS), 1))
    expected = {
        ("model", "wql"): wql(truth, quantiles),
        ("model", "mase"): mase(truth, median, history, season),
        ("model", "vrse"): vrse(truth, median),
        ("seasonal_naive", "wql"): wql(truth, naive_quantiles),
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
        scores, _ = evaluate_dataset("toy", dataset, samples, CONFIG)
    assert [str(w.message) for w in record] == [
        f"dataset toy: {metric} is undefined for 1 of 5 series, left out of its mean: synth-00000"
        for metric in ("MASE", "VRSE")]
    assert all(np.isfinite(value) for value in scores.values())


def test_evaluate_dataset_names_the_undefined_metric_and_leaves_an_empty_mean_nan():
    # all-zero horizons: VRSE is undefined for every series, MASE for none
    dataset = small_dataset(4, seed=1)
    for series in dataset.series:
        series.values[-CONFIG.horizon:] = 0.0
    path = np.linspace(-1.0, 1.0, CONFIG.horizon)
    samples = {s.item_id: path + np.arange(3.0)[:, None] for s in dataset.series}
    with pytest.warns(UserWarning) as record:
        scores, failed = evaluate_dataset("zeros", dataset, samples, CONFIG)
    assert failed == []
    assert [str(w.message) for w in record] == [
        "dataset zeros: WQL is undefined, no observed held-out value is nonzero",
        "dataset zeros: VRSE is undefined for 4 of 4 series, left out of its mean: "
        "synth-00000, synth-00001, synth-00002, synth-00003"]
    assert all(math.isnan(scores[model, metric]) for model in ("model", "seasonal_naive")
               for metric in ("wql", "vrse"))
    assert np.isfinite(scores["model", "mase"]) and np.isfinite(scores["seasonal_naive", "mase"])


def test_evaluate_dataset_scores_the_series_with_a_forecast_and_returns_the_rest():
    dataset = with_empty_context(small_dataset(6, seed=4), "synth-00005")  # scores defined
    rng = np.random.default_rng(6)
    samples = {s.item_id: rng.normal(np.nanmean(s.values), 1.0, (CONFIG.n_samples, CONFIG.horizon))
               for s in dataset.series}
    del samples["synth-00001"]
    samples["synth-00003"] = samples["synth-00003"][:, :-1]
    samples["synth-00004"] = samples["synth-00004"][1:]  # fewer paths than n_samples
    samples["synth-00002"][1, 7] = np.nan
    scores, failed = evaluate_dataset("d", dataset, samples, CONFIG)
    assert [(item_id, str(exc)) for item_id, exc in failed] == [
        ("synth-00001", "dataset d: no forecast, expected (3, 16) finite paths"),
        ("synth-00002", "dataset d: a forecast with non-finite values, expected (3, 16) finite "
                        "paths"),
        ("synth-00003", "dataset d: a forecast of shape (3, 15), expected (3, 16) finite paths"),
        ("synth-00004", "dataset d: a forecast of shape (2, 16), expected (3, 16) finite paths"),
        ("synth-00005", "dataset d: no observed context value, so no seasonal-naive baseline")]
    kept = Dataset([s for s in dataset.series if s.item_id == "synth-00000"], dataset.freq)
    assert evaluate_dataset("d", kept, samples, CONFIG) == (scores, [])
    # every series fails: no scores, each series' reason
    scores, failed = evaluate_dataset("d", dataset, {}, CONFIG)
    assert scores is None
    assert [(item_id, str(exc)) for item_id, exc in failed] == [
        (f"synth-{i:05d}", "dataset d: no forecast, expected (3, 16) finite paths")
        for i in range(6)]
    # no series at all: every one is too short for the horizon
    short = Dataset([TimeSeries("s", datetime(2020, 1, 1), np.ones(CONFIG.horizon))], "h")
    with pytest.warns(UserWarning, match="skipping"), \
            pytest.raises(WavetsError, match="^dataset d: no series to score$"):
        evaluate_dataset("d", short, {}, CONFIG)


def oracle_scores(dataset, samples, config):
    """``evaluate_dataset`` one series at a time: 1-D numpy on each
    series' observed values, the naive season of each phase walked back by
    hand."""
    season = season_length(dataset.freq)
    rows = []
    for item_id, context, horizon in make_windows(dataset, config):
        quantiles = np.quantile(samples[item_id], QUANTILE_LEVELS, axis=0)
        median, observed = quantiles[QUANTILE_LEVELS.index(0.5)], ~np.isnan(horizon)
        finite = np.isfinite(context)
        s, c = max(min(season, int(finite.sum()) - 1), 1), len(context)
        latest = [[t for t in range(c - s + j, -1, -s) if finite[t]] for j in range(s)]
        last = context[finite][-1]
        naive = np.array([context[latest[t % s][0]] if latest[t % s] else last
                          for t in range(len(horizon))])
        pairs = [abs(context[t] - context[t + s]) for t in range(c - s) if finite[t] & finite[t + s]]
        truth = horizon[observed]

        def scores(point):  # MASE and VRSE, NaN where undefined
            point = point[observed]
            a_true, a_point = np.abs(np.fft.rfft(truth)), np.abs(np.fft.rfft(point))
            scale, energy = np.sum(pairs), np.sum(a_true ** 2)
            return (len(pairs) / len(truth) * np.sum(np.abs(point - truth)) / scale
                    if len(truth) and scale else math.nan,
                    np.sum((a_point - a_true) ** 2) / energy
                    if len(truth) > 1 and energy else math.nan)

        rows.append((horizon, quantiles, np.tile(naive, (len(QUANTILE_LEVELS), 1)),
                     *scores(median), *scores(naive)))
    truths, model_q, naive_q, model_mase, model_vrse, naive_mase, naive_vrse = zip(*rows)
    return {
        ("model", "wql"): wql(np.stack(truths), np.stack(model_q, axis=1)),
        ("model", "mase"): float(np.nanmean(model_mase)),
        ("model", "vrse"): float(np.nanmean(model_vrse)),
        ("seasonal_naive", "wql"): wql(np.stack(truths), np.stack(naive_q, axis=1)),
        ("seasonal_naive", "mase"): float(np.nanmean(naive_mase)),
        ("seasonal_naive", "vrse"): float(np.nanmean(naive_vrse)),
    }


@pytest.mark.parametrize("gaps", [False, True])
def test_evaluate_dataset_equals_a_per_series_oracle(gaps):
    dataset = small_dataset(12, seed=4)
    rng = np.random.default_rng(5)
    samples = {s.item_id: rng.normal(np.mean(s.values), 1.0, (CONFIG.n_samples, CONFIG.horizon))
               for s in dataset.series}
    dataset.series[0].values[-CONFIG.horizon:] = 0.0  # zero-energy horizon: undefined VRSE
    if gaps:
        for series in dataset.series[1:]:
            values = series.values
            values[rng.choice(len(values), 12, replace=False)] = np.nan
        dataset.series[2].values[:-CONFIG.horizon - 9] = np.nan  # a shorter naive season
        dataset.series[3].values[-CONFIG.horizon:-1] = np.nan  # one observed horizon step
    with pytest.warns(UserWarning, match="VRSE is undefined"):
        got, failed = evaluate_dataset("d", dataset, samples, CONFIG)
    assert failed == []
    expected = oracle_scores(dataset, samples, CONFIG)
    assert all(np.isfinite(value) for value in got.values())
    if gaps:
        assert got == pytest.approx(expected, rel=1e-12)
    else:
        assert got == expected


def test_evaluate_dataset_keeps_the_seasons_of_a_gappy_context_in_time():
    # hourly (season 24): the last two seasons of the context and the
    # horizon repeat one period exactly; the first 16 context steps are
    # noisy, and 5 steps inside the last context season are missing
    period = 10 * np.sin(2 * np.pi * np.arange(24) / 24)
    values = np.tile(period, 4)[4:84] + 0.0
    values[:16] += np.random.default_rng(3).normal(0.0, 1.0, 16)
    values[45:50] = np.nan
    dataset = Dataset([TimeSeries("s", datetime(2020, 1, 1), values)], "h")
    ((item_id, context, horizon),) = make_windows(dataset, CONFIG)
    paths = np.tile(horizon + 1.0, (3, 1))
    with pytest.warns(UserWarning) as caught:
        scores, _ = evaluate_dataset("d", dataset, {item_id: paths}, CONFIG)
    # the naive forecast fills the gap from the season before: exact, so
    # no relative score is defined
    assert [str(w.message) for w in caught] == [
        f"dataset d: relative {m} is undefined, the seasonal-naive {m} is 0"
        for m in ("WQL", "MASE", "VRSE")]
    assert scores[("seasonal_naive", "wql")] == 0.0
    assert scores[("seasonal_naive", "mase")] == 0.0
    # the scale runs over the 35 lag-24 pairs with both values observed
    pairs = [abs(context[t] - context[t + 24]) for t in range(40)
             if np.isfinite(context[t]) and np.isfinite(context[t + 24])]
    assert len(pairs) == 35
    assert scores[("model", "mase")] == pytest.approx(35 / 16 * 16 / sum(pairs), rel=1e-12)


def token_records(pairs):
    """The records ``tokenize`` writes for ``tokenize_windows`` pairs."""
    return [{"item_id": item_id, "kind": kind, "tokens": stream.tokens.tolist(),
             "mu": stream.scale.mu, "sigma": stream.scale.sigma}
            for item_id, *streams in pairs for kind, stream in zip(("context", "horizon"), streams)]


def test_read_token_records_gives_back_the_streams_of_tokenize_windows():
    dataset = small_dataset(4, seed=5)
    codebook, _, _ = trained_inputs(dataset)
    pairs, _ = tokenize_windows(make_windows(dataset, CONFIG), CONFIG, codebook)
    # a record written before the layout left the records keeps its extra keys
    old = {"segment_lengths": [1], "family": "haar", "level": 9, "source_length": 3,
           "boundary_mode": "periodization", "has_eos": False}
    kinds, failed = read_token_records([{**old, **r} for r in token_records(pairs)], CONFIG,
                                       codebook)
    assert failed == {} and list(kinds) == ["context", "horizon"]
    for k, kind in enumerate(kinds):
        rows, stack = kinds[kind]
        assert rows == tuple(range(k, 2 * len(pairs), 2))
        for row, (_, *pair) in zip(stack.rows(), pairs, strict=True):
            assert row.tokens.tobytes() == pair[k].tokens.tobytes()
            assert row.scale == pair[k].scale


@pytest.mark.parametrize("index, corrupt, message", [
    (2, lambda r: r.pop("mu"), "missing field(s) mu"),
    (2, lambda r: r.update(kind="middle"), "need a string item_id and a kind in ['context', 'horizon']"),
    (2, lambda r: r.update(item_id=7), "need a string item_id and a kind in ['context', 'horizon']"),
    (2, lambda r: r.update(tokens=[r["tokens"]]),
     "tokens must be 68 integer ids for the layout [34, 34], got int64 of shape (1, 68)"),
    (2, lambda r: r.update(tokens=[float(t) for t in r["tokens"]]),
     "tokens must be 68 integer ids for the layout [34, 34], got float64 of shape (68,)"),
    (2, lambda r: r["tokens"].pop(),
     "tokens must be 68 integer ids for the layout [34, 34], got int64 of shape (67,)"),
    (3, lambda r: r["tokens"].pop(),
     "tokens must be 20 integer ids for the layout [10, 10], got int64 of shape (19,)"),
    (3, lambda r: r["tokens"].append(r["tokens"][0]),
     "tokens must be 20 integer ids for the layout [10, 10], got int64 of shape (21,)"),
    (3, lambda r: r["tokens"].__setitem__(4, 99999),
     "token id(s) [99999] outside the vocabulary"),
    (2, lambda r: r["tokens"].__setitem__(4, -7), "token id(s) [-7] outside the vocabulary"),
    (3, lambda r: r.update(sigma=None), "sigma must be a number, got NoneType"),
    # a scale compute_scale never gives: it would invert to NaN or to a constant window
    (3, lambda r: r.update(mu=1.5, sigma=math.nan),
     "need a finite mu and a positive, finite sigma, got mu 1.5 and sigma nan"),
    (2, lambda r: r.update(mu=1.5, sigma=0.0),
     "need a finite mu and a positive, finite sigma, got mu 1.5 and sigma 0.0"),
    (2, lambda r: r.update(mu=1.5, sigma=-2.0),
     "need a finite mu and a positive, finite sigma, got mu 1.5 and sigma -2.0"),
    (3, lambda r: r.update(mu=-math.inf, sigma=2.0),
     "need a finite mu and a positive, finite sigma, got mu -inf and sigma 2.0"),
    (2, lambda r: r.update(item_id="synth-00000"),
     "a second context record of this series; the first is record 1"),
])
def test_a_bad_token_record_fails_alone(index, corrupt, message):
    dataset = small_dataset(4, seed=5)
    codebook, _, _ = trained_inputs(dataset)
    pairs, _ = tokenize_windows(make_windows(dataset, CONFIG), CONFIG, codebook)
    records = token_records(pairs)
    clean, _ = read_token_records(records, CONFIG, codebook)
    corrupt(records[index])
    kinds, failed = read_token_records(records, CONFIG, codebook)
    assert [(i, str(exc)) for i, (_, _, exc) in failed.items()] == [(index, message)]
    assert failed[index][:2] == (records[index]["item_id"], records[index]["kind"])
    assert list(kinds) == list(clean)
    for kind, (rows, stack) in kinds.items():
        clean_rows, clean_stack = clean[kind]
        keep = [j for j, i in enumerate(clean_rows) if i != index]
        assert list(rows) == [clean_rows[j] for j in keep]
        assert stack.tokens.tobytes() == clean_stack.tokens[keep].tobytes()
        assert stack.scale.mu.tobytes() == clean_stack.scale.mu[keep].tobytes()
        assert stack.scale.sigma.tobytes() == clean_stack.scale.sigma[keep].tobytes()


def test_a_token_id_beyond_64_bits_read_from_a_file_fails_its_record_alone(tmp_path):
    dataset = small_dataset(4, seed=5)
    codebook, _, _ = trained_inputs(dataset)
    pairs, _ = tokenize_windows(make_windows(dataset, CONFIG), CONFIG, codebook)
    records = token_records(pairs)
    records[2]["tokens"][4] = 2**70  # orjson reads it as a float, json as an int
    write_jsonl(tmp_path / "tokens.jsonl", {}, records)
    _, lines = read_jsonl(tmp_path / "tokens.jsonl")
    kinds, failed = read_token_records([record for _, record in lines], CONFIG, codebook)
    assert [(i, str(exc)) for i, (_, _, exc) in failed.items()] == [
        (2, "tokens must be 68 integer ids for the layout [34, 34], got float64 of shape (68,)")]
    assert [len(rows) for rows, _ in kinds.values()] == [3, 4]


def test_detokenize_windows_inverts_each_kind_in_one_call(monkeypatch):
    dataset = small_dataset(4, seed=5)
    codebook, _, _ = trained_inputs(dataset)
    pairs, _ = tokenize_windows(make_windows(dataset, CONFIG), CONFIG, codebook)
    records = token_records(pairs)
    records[5]["tokens"][0] = 99999
    calls = []
    original = pipeline.detokenize

    def spy(stream, length, *args):
        calls.append((stream.tokens.shape, length))
        return original(stream, length, *args)

    monkeypatch.setattr(pipeline, "detokenize", spy)
    windows, failures = detokenize_windows(records, CONFIG, codebook)
    assert calls == [((4, 68), 64), ((3, 20), 16)]
    assert [(item_id, kind, str(exc)) for item_id, kind, exc in failures] == [
        ("synth-00002", "horizon", "token id(s) [99999] outside the vocabulary")]
    assert [(item_id, kind) for item_id, kind, _ in windows] == [
        (r["item_id"], r["kind"]) for i, r in enumerate(records) if i != 5]
    # each stacked row equals the row inverted alone
    alone = {}
    for kind, (rows, stack) in read_token_records(records, CONFIG, codebook)[0].items():
        length = CONFIG.context_length if kind == "context" else CONFIG.horizon
        for i, row in zip(rows, stack.rows()):
            alone[i] = original(row, length, CONFIG.tokenizer_config(), codebook).tobytes()
    assert [values.tobytes() for _, _, values in windows] == [alone[i] for i in sorted(alone)]


def test_detokenize_windows_fails_every_record_of_a_kind_on_a_batch_error(monkeypatch):
    dataset = small_dataset(4, seed=5)
    codebook, _, _ = trained_inputs(dataset)
    pairs, _ = tokenize_windows(make_windows(dataset, CONFIG), CONFIG, codebook)
    records = token_records(pairs)
    records[2].pop("sigma")
    original = pipeline.detokenize

    def horizons_fail(stream, length, *args):
        if length == CONFIG.horizon:
            raise ValueError("batch error")
        return original(stream, length, *args)

    monkeypatch.setattr(pipeline, "detokenize", horizons_fail)
    windows, failures = detokenize_windows(records, CONFIG, codebook)
    assert [(item_id, kind) for item_id, kind, _ in windows] == [
        (r["item_id"], r["kind"]) for i, r in enumerate(records)
        if r["kind"] == "context" and i != 2]
    assert [(item_id, kind, str(exc)) for item_id, kind, exc in failures] == [
        (r["item_id"], r["kind"], "missing field(s) sigma" if i == 2 else "batch error")
        for i, r in enumerate(records) if i == 2 or r["kind"] == "horizon"]
