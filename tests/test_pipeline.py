"""The shared protocol: pooling, the seed rule, per-series isolation in
the forecast batch, seasonal-naive scoring and what an ablation cell
trains on."""

from dataclasses import replace
from datetime import datetime

import numpy as np
import pytest

import wavets.pipeline as pipeline
from wavets.codebook import fit_codebook
from wavets.data_io import Dataset, TimeSeries, split_last_h
from wavets.data_synth import make_dataset
from wavets.dwt import coefficient_layout
from wavets.exceptions import WavetsError
from wavets.families import get_family
from wavets.metrics import (
    QUANTILE_LEVELS, mase, sample_quantiles, seasonal_naive, seasonality_for_freq, vrse, wql,
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
from wavets.seq_model import MarkovModel
from wavets.tokenizer import compute_scale, pad_to_length, tokenize_pair

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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
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
    broken[4] = (item_id, huge, horizon)  # its mean overflows: non-finite scaled values
    no_context = "cannot scale a window with no observed values"
    non_finite = "input signal contains non-finite values"

    pairs, failures = tokenize_windows(broken, CONFIG, codebook)
    assert [(item_id, str(exc)) for item_id, exc in failures] == [
        ("synth-00001", no_context),
        ("synth-00003", "cannot fill a window with no observed values"),
        ("synth-00004", non_finite)]
    clean, none_failed = tokenize_windows([windows[i] for i in (0, 2, 5)], CONFIG, codebook)
    assert none_failed == []
    for (item_id, *got), (want_id, *want) in zip(pairs, clean, strict=True):
        assert item_id == want_id
        alone = tokenize_pair(*windows[int(item_id[-1])][1:], CONFIG.tokenizer_config(), codebook)
        for stream, expected, single in zip(got, want, alone):
            assert stream.tokens.tobytes() == expected.tokens.tobytes() == single.tokens.tobytes()
            assert stream.scale == expected.scale == single.scale

    sample, skipped = pool_coefficients(broken, CONFIG)
    assert [(item_id, str(exc)) for item_id, exc in skipped] == [
        ("synth-00001", no_context), ("synth-00004", non_finite)]
    # the series without an observed horizon still pools its context
    expected, _ = pool_coefficients([broken[i] for i in (0, 2, 3, 5)], CONFIG)
    np.testing.assert_array_equal(sample, expected)

    contexts = [(item_id, context) for item_id, context, _ in broken]
    results = forecast_dataset(model, codebook, CONFIG, contexts)
    assert [error for _, _, error in results] == [None, no_context, None, None, non_finite, None]
    others = forecast_dataset(model, codebook, CONFIG, [contexts[i] for i in (0, 2, 3, 5)])
    assert [(i, p.tobytes()) for i, p, _ in results if p is not None] == [
        (i, p.tobytes()) for i, p, _ in others]


def test_tokenize_windows_fails_every_series_on_a_batch_error():
    # level 2 fits the 64-step contexts but not the 16-step horizons
    windows = make_windows(with_empty_context(small_dataset(), "synth-00001"), CONFIG)
    codebook, _, _ = trained_inputs(small_dataset())
    pairs, failures = tokenize_windows(windows, replace(CONFIG, level=2), codebook)
    too_short = ("signal of length 16 is too short for level 2 with family 'bior2.2' "
                 "(max level 1)")
    assert pairs == []
    assert [(item_id, str(exc)) for item_id, exc in failures] == [
        (item_id, "cannot scale a window with no observed values"
         if item_id == "synth-00001" else too_short) for item_id, _, _ in windows]


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
    layout = coefficient_layout(h, get_family(CONFIG.family), CONFIG.level)
    for (ctx, hor), series in zip(corpus, train_view.series):
        # the training pair is the train view's last window: it ends before the scored horizon
        context = pad_to_length(series.values[:-h], CONFIG.context_length)
        assert ctx.scale == compute_scale(context)
        assert hor.scale == ctx.scale
        assert len(hor.tokens) == sum(layout) + 1 and hor.has_eos
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
        assert stack.has_eos == (kind == "horizon")
        for row, (_, *pair) in zip(stack.rows(), pairs, strict=True):
            assert row.tokens.tobytes() == pair[k].tokens.tobytes()
            assert row.scale == pair[k].scale and row.has_eos == pair[k].has_eos


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
     "tokens must be 21 integer ids for the layout [10, 10] and EOS, got int64 of shape (20,)"),
    (3, lambda r: r["tokens"].__setitem__(4, 99999),
     "token id(s) [99999] outside the vocabulary"),
    (2, lambda r: r["tokens"].__setitem__(4, -7), "token id(s) [-7] outside the vocabulary"),
    (2, lambda r: r["tokens"].__setitem__(4, 1), "EOS token at position(s) [4], expected []"),
    (3, lambda r: r["tokens"].__setitem__(4, 1), "EOS token at position(s) [4, 20], expected [20]"),
    (3, lambda r: r["tokens"].__setitem__(20, 2), "EOS token at position(s) [], expected [20]"),
    (3, lambda r: r.update(sigma=None),
     "float() argument must be a string or a real number, not 'NoneType'"),
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
    assert calls == [((4, 68), 64), ((3, 21), 16)]
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
