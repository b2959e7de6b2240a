"""The Markov model: suffix queries, smoothing, checkpoints, cross-entropy
and the batched sampler against a per-series, per-path reference loop."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from wavets.codebook import fit_codebook
from wavets.data_synth import make_dataset
from wavets.exceptions import SchemaError
from wavets.pipeline import RunConfig, make_windows, pool_coefficients, tokenize_windows
from wavets.seq_model import (
    MarkovModel,
    cross_entropy,
    load_model,
    path_uniforms,
    sample_forecast,
    save_model,
)
from wavets.tokenizer import ScaleStats, TokenStream, compute_scale, tokenize

CONFIG = RunConfig(context_length=64, horizon=16, vocab_budget=16, order=2)
N_TOKENS = sum(CONFIG.tokenizer_config().layout(CONFIG.horizon))  # drawn per path


@pytest.fixture(scope="module")
def trained():
    """A small codebook, a model that has seen most order-2 histories of
    its vocabulary (PAD included) and one context stream."""
    windows = make_windows(make_dataset(4, context_length=64, horizon=16, seed=3), CONFIG)
    sample, _ = pool_coefficients(windows, CONFIG)
    codebook = fit_codebook(sample, CONFIG.vocab_budget)
    model = MarkovModel(codebook.vocab_size, order=CONFIG.order).fit(
        [np.random.default_rng(0).integers(0, codebook.vocab_size, 2000)])
    context_window = windows[0][1]
    context = tokenize(context_window, compute_scale(context_window), CONFIG.tokenizer_config(),
                       codebook)
    return model, codebook, context


@pytest.fixture(scope="module")
def contexts(trained):
    """A stack of four context streams, one row each."""
    _, codebook, _ = trained
    windows = make_windows(make_dataset(4, context_length=64, horizon=16, seed=8), CONFIG)
    stack = np.stack([context for _, context, _ in windows])
    stats = [compute_scale(context) for context in stack]
    scale = ScaleStats(np.array([s.mu for s in stats]), np.array([s.sigma for s in stats]))
    return tokenize(stack, scale, CONFIG.tokenizer_config(), codebook)


def keyed_states(histories):
    """Each distinct history row as its own state, the same in every call:
    the row read as a base-2**16 number (``-1`` padding is digit 0)."""
    rows = np.asarray(histories, dtype=np.int64) + 1
    return rows @ (1 << 16) ** np.arange(rows.shape[1], dtype=np.int64)


def reference_sample(model, context_tokens, codebook, n_samples, seed):
    """One ``Generator.choice`` per path and token on the full history, all
    from one ``default_rng(seed)``: step by step, paths in order."""
    rng = np.random.default_rng(seed)
    paths = [[] for _ in range(n_samples)]
    for _ in range(N_TOKENS):
        for generated in paths:
            probs = model.next_token_distribution(list(context_tokens) + generated)
            probs[codebook.PAD_ID] = 0.0
            generated.append(int(rng.choice(len(probs), p=probs / probs.sum())))
    return np.array(paths, dtype=np.int64)


SEEDS = [11, 12, 13, 14]


def test_sampler_matches_per_path_choice_loop(trained, contexts):
    model, codebook, _ = trained
    got = sample_forecast(model, contexts, N_TOKENS, codebook, SEEDS, n_samples=6)
    assert got.shape == (4, 6, N_TOKENS) and got.dtype == np.int64
    for paths, tokens, seed in zip(got, contexts.tokens, SEEDS, strict=True):
        np.testing.assert_array_equal(paths, reference_sample(model, tokens, codebook, 6, seed))
        assert len({row.tobytes() for row in paths}) > 1


def test_sampler_queries_one_row_per_distinct_state(trained, contexts):
    """Each state is queried once per call, at the first step that reaches
    it; later steps reuse its distribution."""
    model, codebook, _ = trained
    sparse = MarkovModel(model.vocab_size, model.order).fit([[1, 2, 3, 1, 2, 4]])
    for inner in (model, sparse):
        path_states, queried = [], []

        class Spy:
            vocab_size, order = inner.vocab_size, inner.order

            def history_states(self, histories):
                path_states.append(inner.history_states(histories))
                return path_states[-1]

            def next_token_distributions(self, histories):
                queried.append((len(path_states), inner.history_states(histories)))
                return inner.next_token_distributions(histories)

        sample_forecast(Spy(), contexts, N_TOKENS, codebook, SEEDS, n_samples=6)
        assert len(path_states) == N_TOKENS and all(len(s) == 24 for s in path_states)
        seen = set()
        for step, states in enumerate(path_states, start=1):
            rows = [r for at, q in queried if at == step for r in q.tolist()]
            assert sorted(rows) == sorted(set(states.tolist()) - seen)
            seen.update(rows)
        # at most one query per step, and fewer rows queried than states reached
        assert 1 <= len({at for at, _ in queried}) == len(queried) <= N_TOKENS
        assert len(seen) < sum(len(set(states.tolist())) for states in path_states)
    # under the sparse model many paths are unseen at once, and share one row
    assert max(int(np.sum(states == -1)) for states in path_states) > 1
    assert sum(np.sum(q == -1) for _, q in queried) == 1


def test_sampler_queries_each_distinct_history_once_per_step(trained, contexts):
    """Every history the paths reach is queried exactly once in the whole
    call, so also never twice in one step."""
    model, codebook, _ = trained
    queries = []

    class Counting:
        vocab_size, order = model.vocab_size, model.order
        history_states = staticmethod(keyed_states)

        def next_token_distributions(self, histories):
            queries.append([tuple(row) for row in histories])
            return model.next_token_distributions(histories)

    drawn = sample_forecast(Counting(), contexts.take([0, 1]), N_TOKENS, codebook, SEEDS[:2],
                            n_samples=6)
    full = np.concatenate([np.repeat(contexts.tokens[:2], 6, axis=0),
                           drawn.reshape(12, N_TOKENS)], axis=1)
    start = contexts.tokens.shape[1]
    distinct = {tuple(row[start + t - model.order:start + t]) for row in full
                for t in range(N_TOKENS)}
    queried = [row for q in queries for row in q]
    assert sorted(queried) == sorted(distinct)
    assert len(queries) <= N_TOKENS < len(queried) < 12 * N_TOKENS
    assert all(len(row) == model.order for row in queried)


def test_sampler_never_draws_pad(trained, contexts):
    _, codebook, _ = trained

    class FavoursPad:
        vocab_size, order = codebook.vocab_size, 1
        history_states = staticmethod(keyed_states)

        def next_token_distributions(self, histories):
            probs = np.full((len(histories), self.vocab_size), 1e-6)
            probs[:, codebook.PAD_ID] = 1.0
            return probs

    ids = sample_forecast(FavoursPad(), contexts, N_TOKENS, codebook, SEEDS, n_samples=8)
    assert ids.shape == (4, 8, N_TOKENS) and ids.dtype == np.int64
    assert ((ids >= 0) & (ids < codebook.vocab_size)).all()
    assert not (ids == codebook.PAD_ID).any()


def generator_uniforms(seeds, n_samples, n):
    """Numpy's own generators: one ``default_rng(seed)`` per seed, its
    ``(n, n_samples)`` draws side by side."""
    return np.concatenate([np.empty((n, 0)), *(np.random.default_rng(seed).random((n, n_samples))
                                               for seed in seeds)], axis=1)


@pytest.mark.parametrize("n_samples, n", [(4, 37), (1, 1), (1, 68), (20, 1), (20, 68),
                                          (3, 15), (3, 16), (3, 17), (3, 32), (3, 33)])
@pytest.mark.parametrize("seeds", [
    [], [0], [1], [11, 12, 13], [2**32 - 1, 3029871508], [2**32], [2**63], [2**64 - 1],
    [0, 2**32 - 1, 2**32, 2**63, 2**64 - 1, np.uint32(7), np.int64(2**40)],
])
def test_path_uniforms_equal_generator_random(seeds, n_samples, n):
    got = path_uniforms(seeds, n_samples, n)
    assert got.shape == (n, n_samples * len(seeds)) and got.dtype == np.float64
    assert got.tobytes() == generator_uniforms(seeds, n_samples, n).tobytes()


def test_path_uniforms_rows_do_not_depend_on_the_other_seeds():
    # the retry by halves re-runs a subset of the series' seeds alone
    seeds = [5, 2**32 + 1, 0, 2**64 - 1, 99]
    batch = path_uniforms(seeds, 3, 11).reshape(11, len(seeds), 3)
    for subset in ([0], [3], [1, 4], [4, 2, 0]):
        alone = path_uniforms([seeds[i] for i in subset], 3, 11).reshape(11, len(subset), 3)
        assert alone.tobytes() == batch[:, subset].tobytes()


def test_path_uniforms_refuse_a_negative_seed():
    with pytest.raises(ValueError, match="non-negative"):
        path_uniforms([3, -1], 2, 5)


def test_path_uniforms_pin_numpys_stream():
    # literal draws of default_rng(3029871508), so a numpy release that
    # changed the stream fails here and not only in the forecast outputs
    assert path_uniforms([3029871508], 2, 3).tolist() == [
        [0.7029651345539646, 0.8295723397715749],
        [0.7246762247370246, 0.9214134503771796],
        [0.8236461960629949, 0.07402893772974739],
    ]


def test_sampler_prefix_does_not_depend_on_n_tokens(trained, contexts):
    model, codebook, _ = trained
    full = sample_forecast(model, contexts, 68, codebook, SEEDS, n_samples=3)
    for m in [1, 15, 16, 17, 40]:
        prefix = sample_forecast(model, contexts, m, codebook, SEEDS, n_samples=3)
        assert prefix.shape == (4, 3, m)
        np.testing.assert_array_equal(prefix, full[:, :, :m])


@pytest.mark.parametrize("seeds", [[1, 2, 3], [1]])
def test_sampler_refuses_a_seed_list_not_one_per_row(trained, contexts, monkeypatch, seeds):
    model, codebook, _ = trained

    def no_uniforms(*args):
        raise AssertionError("drew uniforms")

    monkeypatch.setattr("wavets.seq_model.path_uniforms", no_uniforms)
    with pytest.raises(ValueError, match=rf"^need one seed per context row, got {len(seeds)} "
                                         r"seeds for 2 rows$"):
        sample_forecast(model, contexts.take([0, 1]), N_TOKENS, codebook, seeds, n_samples=2)


def test_sampler_rejects_a_distribution_without_mass(trained, contexts):
    _, codebook, _ = trained

    class OnlyPad:
        vocab_size, order = codebook.vocab_size, 1
        history_states = staticmethod(keyed_states)

        def next_token_distributions(self, histories):
            probs = np.zeros((len(histories), self.vocab_size))
            probs[:, codebook.PAD_ID] = 1.0
            return probs

    with pytest.raises(ValueError, match="^sampling distribution has no mass$"):
        sample_forecast(OnlyPad(), contexts, N_TOKENS, codebook, SEEDS, 6)


def reference_cross_entropy(model, context, horizon, pad_id):
    """One full-history query per unmasked horizon position."""
    seq = list(context.tokens) + list(horizon.tokens)
    losses = [-math.log(model.next_token_distribution(seq[:i])[target])
              for i, target in enumerate(seq) if i >= len(context.tokens) and target != pad_id]
    return sum(losses) / len(losses)


@pytest.mark.parametrize("n_context", [0, 1, 2])
def test_context_shorter_than_order_matches_reference_loops(trained, contexts, n_context):
    _, codebook, context = trained
    rng = np.random.default_rng(4)
    model = MarkovModel(codebook.vocab_size, order=3).fit(
        [rng.integers(0, codebook.vocab_size, 3000)])
    # a stack of two contexts that keep only their last n_context tokens
    short = TokenStream(contexts.tokens[:2, contexts.tokens.shape[1] - n_context:], scale=None)
    paths = sample_forecast(model, short, N_TOKENS, codebook, SEEDS[:2], n_samples=6)
    for got, tokens, seed in zip(paths, short.tokens, SEEDS[:2], strict=True):
        np.testing.assert_array_equal(got, reference_sample(model, tokens, codebook, 6, seed))
    short = dataclasses.replace(context, tokens=context.tokens[len(context.tokens) - n_context:])
    horizon = dataclasses.replace(context, tokens=rng.integers(0, codebook.vocab_size, 20))
    assert (horizon.tokens == codebook.PAD_ID).any()
    assert cross_entropy(model, short, horizon, codebook.PAD_ID) == pytest.approx(
        reference_cross_entropy(model, short, horizon, codebook.PAD_ID), rel=1e-12)


def test_suffix_query_equals_full_history_query(trained):
    model, _, context = trained
    history = context.tokens
    full = model.next_token_distribution(history)
    for query in (history[-model.order:], list(history), tuple(history[-model.order:])):
        np.testing.assert_array_equal(model.next_token_distribution(query), full)
    short = history[:1]
    np.testing.assert_array_equal(model.next_token_distribution(short),
                                  model.next_token_distribution(list(short)))


def test_unseen_history_is_uniform():
    model = MarkovModel(vocab_size=5, order=2).fit([[1, 2, 3, 4, 1, 2, 4]])
    probs = model.next_token_distribution([4, 4])
    np.testing.assert_allclose(probs, np.full(5, 0.2), rtol=1e-15)
    assert not np.allclose(model.next_token_distribution([1, 2]), 0.2)


def test_fit_matches_a_counting_loop():
    # Sequences shorter than the order, an empty one, and PAD (0) targets.
    rng = np.random.default_rng(7)
    sequences = [rng.integers(0, 6, n) for n in (0, 1, 3, 40, 200)]
    model = MarkovModel(vocab_size=6, order=3).fit(sequences)
    expected = {}
    for seq in sequences:
        seq = [int(t) for t in seq]
        for i, target in enumerate(seq):
            if target == 0:
                continue
            for length in range(min(3, i) + 1):
                bucket = expected.setdefault(tuple(seq[i - length:i]), {})
                bucket[target] = bucket.get(target, 0) + 1

    def decode(key):
        history = []
        while key:
            key, digit = divmod(key, 7)
            history.insert(0, digit - 1)
        return tuple(history)

    got = {}
    for row, key in enumerate(model._keys):
        span = slice(model._indptr[row], model._indptr[row + 1])
        got[decode(int(key))] = dict(zip(model._tokens[span].tolist(),
                                         model._counts[span].tolist()))
    assert got == expected
    assert np.all(np.diff(model._keys) > 0)


def count_in_one_pass(model, sequences):
    """The four count arrays from one ``np.unique`` over the (history,
    target) codes of every history length at once: the counting rule
    ``MarkovModel.fit`` must reproduce."""
    pad = np.full(model.order, -1, dtype=np.int64)
    flat = np.concatenate([pad, *(np.r_[np.asarray(s, dtype=np.int64), pad] for s in sequences)])
    targets = np.flatnonzero((flat >= 0) & (flat != 0))
    keys = np.zeros(len(targets), dtype=np.int64)
    codes = [flat[targets]]
    for length in range(1, model.order + 1):
        before = flat[targets - length]
        keys += (before + 1) * (model.vocab_size + 1) ** (length - 1)
        codes.append((keys * model.vocab_size + flat[targets])[before >= 0])
    codes, counts = np.unique(np.concatenate(codes), return_counts=True)
    history, target = np.divmod(codes, model.vocab_size)
    starts = np.flatnonzero(np.diff(history, prepend=-1))
    return history[starts], np.append(starts, len(codes)), target, counts


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("vocab_size", [2, 7, 300])
def test_fit_equals_one_unique_over_every_length(order, vocab_size):
    # PAD (0) targets, empty and length-1 sequences, sequences shorter than
    # the order, and an empty corpus
    rng = np.random.default_rng(order * 1000 + vocab_size)
    sequences = [rng.integers(0, vocab_size, n) for n in rng.integers(0, 3 * order, 30)]
    sequences += [[], [vocab_size - 1], [0], rng.integers(0, vocab_size, 500)]
    for corpus in (sequences, [], [[]]):
        model = MarkovModel(vocab_size, order).fit(corpus)
        expected = count_in_one_pass(model, corpus)
        for name, want in zip(("_keys", "_indptr", "_tokens", "_counts"), expected):
            got = getattr(model, name)
            assert got.dtype == want.dtype, name
            np.testing.assert_array_equal(got, want, err_msg=name)


@pytest.fixture(scope="module")
def corpus():
    """The context+horizon token streams of 100 synthetic series at the
    default settings: about 58k tokens."""
    config = RunConfig()
    windows = make_windows(make_dataset(100, seed=5), config)
    codebook = fit_codebook(pool_coefficients(windows, config)[0], config.vocab_budget)
    pairs, _ = tokenize_windows(windows, config, codebook)
    return codebook.vocab_size, [np.concatenate([ctx.tokens, hor.tokens]) for _, ctx, hor in pairs]


def traced_peak(count, *args):
    tracemalloc.start()
    try:
        count(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("order", [3, 5])
def test_fit_counts_one_history_length_at_a_time(corpus, order):
    # Only one length's codes are alive at a time, so fit's temporaries do
    # not grow with the order the way one sort over every length's do.
    vocab_size, sequences = corpus
    assert sum(map(len, sequences)) >= 50_000
    model = MarkovModel(vocab_size, order)
    assert traced_peak(model.fit, sequences) <= 0.6 * traced_peak(count_in_one_pass, model,
                                                                  sequences)


@pytest.mark.parametrize("sequences, ids", [
    ([[5, 1, 2]], "[5]"),  # would count target 5 as token 1 after history [0]
    ([[1, -1, 2]], "[-1]"),  # would read as a sequence break
    ([[1, 2], [3, 9, -4, 9, 4]], "[-4, 4, 9]"),
    ([list(range(-12, 0))], "[-12, -11, -10, -9, -8, -7, -6, -5, -4, -3] ..."),  # the first ten
])
def test_fit_refuses_ids_outside_the_vocabulary(sequences, ids):
    model = MarkovModel(4, 1).fit([[1, 2, 3]])
    with pytest.raises(ValueError) as refused:
        model.fit(sequences)
    assert str(refused.value) == f"token ids outside the vocabulary [0, 4): {ids}"
    assert model._counts.sum() == 5  # the earlier counts stay


def test_short_history_reads_its_own_counts():
    # Targets of 1 2 3 4 1 2 4: all seven after the empty history, 3 and
    # 4 after "2". Left padding must not turn these into unseen histories.
    model = MarkovModel(vocab_size=5, order=2).fit([[1, 2, 3, 4, 1, 2, 4]])
    np.testing.assert_array_equal(model.next_token_distribution([]),
                                  (np.array([0, 2, 2, 1, 2]) + 0.1) / (7 + 0.5))
    np.testing.assert_array_equal(model.next_token_distribution([2]),
                                  (np.array([0, 0, 0, 1, 1]) + 0.1) / (2 + 0.5))
    np.testing.assert_array_equal(model.next_token_distributions([[-1, -1], [-1, 2]]),
                                  np.stack([model.next_token_distribution([]),
                                            model.next_token_distribution([2])]))


def test_distributions_equal_the_additive_formula_at_alpha_0_1(trained, contexts):
    # The formula of checkpoint version 2, when the smoothing constant was
    # the setting alpha with default 0.1: (count + alpha) / (total + alpha V)
    # over dense counts, here of seen, unseen and left-padded histories.
    model, _, _ = trained
    sparse = MarkovModel(model.vocab_size, model.order).fit([[1, 2, 3, 1, 2, 4]])
    histories = np.concatenate([
        *(np.lib.stride_tricks.sliding_window_view(row, model.order) for row in contexts.tokens),
        [[-1, -1], [-1, 3], [1, 2]]])
    alpha = 0.1
    for inner in (model, sparse):
        rows = inner.history_states(histories)
        counts = np.zeros((len(histories), inner.vocab_size), dtype=np.int64)
        for g, row in enumerate(rows.tolist()):
            if row >= 0:
                lo, hi = inner._indptr[row:row + 2]
                counts[g, inner._tokens[lo:hi]] = inner._counts[lo:hi]
        expected = (counts + alpha) / (counts.sum(axis=1) + alpha * inner.vocab_size)[:, None]
        assert inner.next_token_distributions(histories).tobytes() == expected.tobytes()
    assert (model.history_states(histories) >= 0).all()
    assert (sparse.history_states(histories) < 0).any()


def test_checkpoint_round_trip(trained, tmp_path):
    model, _, context = trained
    path = tmp_path / "model.json"
    save_model(model, path, meta={"fingerprint": "abc"})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]
    loaded = load_model(path)
    assert (loaded.vocab_size, loaded.order) == (model.vocab_size, model.order)
    with np.load(path) as npz:  # the smoothing constant is no header field
        assert sorted(json.loads(str(npz["header"]))) == [
            "format", "meta", "order", "version", "vocab_size"]
    assert loaded.meta == {"fingerprint": "abc"}
    for name in ("_keys", "_indptr", "_tokens", "_counts"):
        np.testing.assert_array_equal(getattr(loaded, name), getattr(model, name), err_msg=name)
    histories = np.lib.stride_tricks.sliding_window_view(context.tokens, model.order)
    np.testing.assert_array_equal(loaded.next_token_distributions(histories),
                                  model.next_token_distributions(histories))
    np.testing.assert_array_equal(loaded.next_token_distribution(context.tokens),
                                  model.next_token_distribution(context.tokens))


def test_checkpoint_of_version_1_is_refused(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"format": "wavets.markov", "version": 1, "vocab_size": 4,
                                "order": 1, "alpha": 1.0, "meta": {}, "counts": {"": {"1": 2}}}))
    # the test's directory name holds "version": match from the start
    with pytest.raises(SchemaError, match="^model version mismatch .*expected 3$"):
        load_model(path)


@pytest.mark.parametrize("payload", [bytes(range(256)) * 4, b"PK\x03\x04" + bytes(64), b""])
def test_corrupt_checkpoint_is_refused(tmp_path, payload):
    path = tmp_path / "model.json"
    path.write_bytes(payload)
    with pytest.raises(SchemaError, match="^corrupt model file "):
        load_model(path)


@pytest.mark.parametrize("corrupt", [
    lambda arrays: arrays.update(keys=arrays["keys"][::-1]),
    lambda arrays: arrays.update(indptr=arrays["indptr"][:-1]),
    lambda arrays: arrays.update(counts=arrays["counts"][1:]),
    lambda arrays: arrays.update(tokens=arrays["tokens"].astype(np.float64)),
    lambda arrays: arrays.update(keys=arrays["keys"].astype(np.uint64)),
    lambda arrays: arrays.pop("counts"),
    # token ids below and above the vocabulary, and counts that are not positive
    lambda arrays: arrays.update(tokens=np.full(len(arrays["tokens"]), -3)),
    lambda arrays: arrays.update(tokens=np.full(len(arrays["tokens"]), 38)),
    lambda arrays: arrays.update(counts=np.full(len(arrays["counts"]), -1_000_000)),
    lambda arrays: arrays.update(counts=np.zeros_like(arrays["counts"])),
])
def test_checkpoint_with_inconsistent_arrays_is_refused(trained, tmp_path, corrupt):
    path = tmp_path / "model.json"
    save_model(trained[0], path)
    with np.load(path) as npz:
        arrays = dict(npz)
    corrupt(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(SchemaError, match="^corrupt model file "):
        load_model(path)


DROP = object()  # a header change that deletes the field


@pytest.mark.parametrize("change, message", [
    ({"format": "other"}, "is not a model checkpoint$"),
    # version 2 held the smoothing constant as the header's alpha
    ({"version": 2, "alpha": 0.1}, "version mismatch .*found 2, expected 3$"),
    ({"order": DROP}, r"missing fields: \['order'\]$"),
    ({"order": None}, ": order must be an integer, got null$"),
    ({"version": 4}, "version mismatch .*found 4, expected 3$"),
    ({"order": True}, ": order must be an integer, got true$"),
    ({"vocab_size": 5.9}, ": vocab_size must be an integer, got 5.9$"),
    ({"meta": 5}, ": meta must be an object, got 5$"),
    ({"order": 0}, ": model order must be at least 1, got 0$"),
    ({"vocab_size": "16"}, ': vocab_size must be an integer, got "16"$'),
    ({"vocab_size": 1}, ": vocabulary size must be at least 2, got 1$"),
])
def test_checkpoint_header_is_checked(trained, tmp_path, change, message):
    path = tmp_path / "model.json"
    save_model(trained[0], path)
    with np.load(path) as npz:
        arrays = dict(npz)
    header = {**json.loads(str(arrays["header"])), **change}
    arrays["header"] = np.array(json.dumps({k: v for k, v in header.items() if v is not DROP}))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(SchemaError, match=message):
        load_model(path)


def test_order_whose_keys_overflow_int64_is_refused(trained, contexts):
    MarkovModel(vocab_size=1024, order=5)
    with pytest.raises(ValueError, match="int64"):
        MarkovModel(vocab_size=1024, order=6)
    model, codebook, _ = trained

    class LongWindow:
        vocab_size, order = model.vocab_size, 40

        def history_states(self, histories):
            return model.history_states(histories)

        def next_token_distributions(self, histories):
            return model.next_token_distributions(histories)

    # the sampler groups paths by the model's states, so it sets no limit of its own
    np.testing.assert_array_equal(
        sample_forecast(LongWindow(), contexts, N_TOKENS, codebook, SEEDS, 6),
        sample_forecast(model, contexts, N_TOKENS, codebook, SEEDS, 6))


def test_cross_entropy_by_hand():
    # Vocabulary {0 = PAD, 1, 2, 3}, order 1, smoothing 0.1, one training
    # sequence 1 2 1 3: counts after "2" are {1: 1}, after "1" {2: 1, 3: 1},
    # and "0" is an unseen history.
    model = MarkovModel(vocab_size=4, order=1).fit([[1, 2, 1, 3]])

    def stream(tokens):
        return TokenStream(tokens=tokens, scale=None)

    # P(1 | 2) = 1.1/1.4, the PAD target is skipped, P(3 | 0) = 1/4.
    loss = cross_entropy(model, stream([2]), stream([1, 0, 3]), pad_id=0)
    assert loss == pytest.approx((math.log(1.4 / 1.1) + math.log(4)) / 2, rel=1e-12)
