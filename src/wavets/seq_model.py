"""Autoregressive categorical sequence model over token ids.

The reference implementation is a smoothed order-k Markov (n-gram) model:
counts are kept for every history length from 0 (unigram) up to k, but a
query reads only the order-k suffix of its history (shorter only at the
start of a sequence), and additive smoothing gives an unseen history the
uniform distribution. The lower-order counts are not used for backoff.
The interface is the minimal contract a neural replacement would need to
satisfy: a vocabulary size, the number of trailing tokens a query reads,
the next-token distributions of a batch of histories, and a state per
history such that histories of equal state have equal distributions. The
Markov model's state is the count row of an observed order-k history and
``-1`` for every unseen one.

Histories are passed as ``(G, L)`` int arrays, one history per row with
the most recent token last; ``-1`` left-pads a history that is shorter
than ``L`` because it starts at the beginning of its sequence.

Counts are stored as compressed sparse rows. A history ``(t_1 .. t_L)``
of length ``L <= k`` has the int64 key ``sum((t_i + 1) * (V + 1)**(L - i))``:
a base ``V + 1`` number whose digits are ``t + 1``, oldest token most
significant. Keys of different lengths never collide, the empty history
is 0, and a ``-1`` of left padding is a leading zero digit, so a padded
row has the key of its unpadded history. ``_keys`` holds the observed
histories sorted; row ``r`` owns ``_tokens[_indptr[r]:_indptr[r + 1]]``
and the matching ``_counts``. Training encodes each (history, target)
pair as ``key * V + target``, so the model refuses an order for which
``(V + 1)**k * V`` does not fit in int64 (at ``V = 1024``, any order
above 5).

A checkpoint is an uncompressed ``.npz`` archive holding ``header`` (a JSON
string: format, version 2, vocabulary size, order, smoothing and meta)
and the arrays ``keys``, ``indptr``, ``tokens`` and ``counts``. It is
read without pickle. Version 1 was a JSON dict of dicts.

Sampling advances the ``N x S`` paths of all series of a command
together, one token per step. Each step groups the paths by the state of
their history (one ``np.unique``), queries the model once with one
history per distinct state, and builds the masked, tempered and
normalised CDF of those rows only; unseen histories share one row. Each
path draws one uniform per token from its own seeded stream and inverts
its state's CDF with it, so a fixed seed gives the same paths whatever
the batching. The uniforms and the drawn tokens take ``N x S x n_tokens``
values, the synthesis of the paths ``N x S x H`` per band.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .codebook import Codebook
from .dwt import coefficient_layout
from .exceptions import SchemaError
from .families import get_family
from .tokenizer import ScaleStats, TokenizerConfig, TokenStream, detokenize

_FORMAT = "wavets.markov"
_VERSION = 2
_ARRAYS = ("keys", "indptr", "tokens", "counts")
_INT64_MAX = int(np.iinfo(np.int64).max)


class SequenceModel(Protocol):
    """A query reads at most the last ``order`` columns of each history
    row and returns one distribution per row; two rows of equal
    ``history_states`` have equal distributions."""

    vocab_size: int
    order: int

    def next_token_distributions(self, histories: np.ndarray) -> np.ndarray: ...

    def history_states(self, histories: np.ndarray) -> np.ndarray: ...


def _key_weights(vocab_size: int, order: int) -> np.ndarray:
    """Digit weights of an order-``order`` history key, oldest token first."""
    if (vocab_size + 1) ** order * vocab_size > _INT64_MAX:
        raise ValueError(f"order {order} overflows int64 history keys at vocabulary size "
                         f"{vocab_size}: (V + 1)**order * V must fit")
    return (vocab_size + 1) ** np.arange(order - 1, -1, -1, dtype=np.int64)


class MarkovModel:
    """Count-based order-k model with additive smoothing.

    ``P(t | h) = (count(h, t) + alpha) / (total(h) + alpha * V)`` where
    ``h`` is the length-``min(k, len(history))`` suffix of the history.
    Unseen histories therefore fall back to the uniform distribution, and
    an empty history queries the unigram counts.
    """

    def __init__(self, vocab_size: int, order: int, alpha: float):
        if vocab_size < 2:
            raise ValueError(f"vocabulary size must be at least 2, got {vocab_size}")
        if order < 1:
            raise ValueError(f"model order must be at least 1, got {order}")
        if alpha <= 0:
            raise ValueError(f"smoothing constant must be positive, got {alpha}")
        self.vocab_size = int(vocab_size)
        self.order = int(order)
        self.alpha = float(alpha)
        self.meta: dict = {}
        self._weights = _key_weights(self.vocab_size, self.order)
        self.fit([])

    def _set_counts(self, keys, indptr, tokens, counts) -> None:
        self._keys, self._indptr, self._tokens, self._counts = keys, indptr, tokens, counts
        # the keys plus a sentinel above every key, so a lookup stays in bounds
        self._lookup = np.append(keys, _INT64_MAX)

    def fit(self, sequences: Sequence[Sequence[int]],
            skip_targets: frozenset[int] = frozenset()) -> MarkovModel:
        """Count every (history, target) pair of every history length in
        the sequences, replacing any earlier counts. Skipped targets are
        not counted but stay visible inside histories."""
        pad = np.full(self.order, -1, dtype=np.int64)
        flat = np.concatenate([pad, *(np.r_[np.asarray(s, dtype=np.int64), pad] for s in sequences)])
        targets = np.flatnonzero((flat >= 0) & ~np.isin(flat, list(skip_targets)))
        keys = np.zeros(len(targets), dtype=np.int64)  # of the length-L history before each target
        codes = [flat[targets]]
        for length in range(1, self.order + 1):
            before = flat[targets - length]
            keys += (before + 1) * self._weights[-length]
            codes.append((keys * self.vocab_size + flat[targets])[before >= 0])
        codes, counts = np.unique(np.concatenate(codes), return_counts=True)
        history, target = np.divmod(codes, self.vocab_size)
        starts = np.flatnonzero(np.diff(history, prepend=-1))
        self._set_counts(history[starts], np.append(starts, len(codes)), target, counts)
        return self

    def history_states(self, histories: np.ndarray) -> np.ndarray:
        """``(G,)`` count rows of the histories of a ``(G, L)`` array, read
        from its last ``order`` columns; ``-1`` for an unseen history."""
        windows = np.asarray(histories, dtype=np.int64)[:, -self.order:]
        keys = (windows + 1) @ self._weights[self.order - windows.shape[1]:]
        rows = np.searchsorted(self._lookup, keys)
        return np.where(self._lookup[rows] == keys, rows, -1)

    def next_token_distributions(self, histories: np.ndarray) -> np.ndarray:
        """``(G, V)`` distributions, one per row of a ``(G, L)`` history
        array; each row reads its last ``order`` columns."""
        rows = self.history_states(histories)
        probs = np.full((len(rows), self.vocab_size), self.alpha)
        denominators = np.full(len(rows), self.alpha * self.vocab_size)
        # only observed histories add counts, and most sampled ones are unseen
        for g in np.flatnonzero(rows >= 0).tolist():
            lo, hi = self._indptr[rows[g]:rows[g] + 2]
            probs[g, self._tokens[lo:hi]] += self._counts[lo:hi]
            denominators[g] += self._counts[lo:hi].sum()
        probs /= denominators[:, None]
        return probs

    def next_token_distribution(self, history: Sequence[int]) -> np.ndarray:
        """The distribution after one history of any length."""
        tail = np.asarray(history[-self.order:], dtype=np.int64)
        return self.next_token_distributions(_padded_windows(tail, self.order)[-1:])[0]


def train_markov(
    corpus: Sequence[tuple[TokenStream, TokenStream]],
    order: int,
    alpha: float,
    vocab_size: int,
    pad_id: int = 0,
) -> MarkovModel:
    """Fit a Markov model on concatenated context+horizon token streams.

    PAD positions are excluded as prediction targets but remain visible
    inside histories. Counting is additive, so the result is independent
    of corpus order.
    """
    corpus = list(corpus)
    if not corpus:
        raise ValueError("cannot train on an empty corpus")
    model = MarkovModel(vocab_size=vocab_size, order=order, alpha=alpha)
    return model.fit([np.concatenate([ctx.tokens, hor.tokens]) for ctx, hor in corpus],
                     skip_targets=frozenset({int(pad_id)}))


def _padded_windows(tokens: np.ndarray, order: int) -> np.ndarray:
    """Row ``i`` holds the ``order`` tokens before position ``i``, ``-1``
    where the sequence has not started; ``len(tokens) + 1`` rows."""
    padded = np.concatenate([np.full(order, -1, dtype=np.int64), tokens])
    return sliding_window_view(padded, order)


def cross_entropy(
    model: SequenceModel,
    context: TokenStream,
    horizon: TokenStream,
    pad_id: int = 0,
) -> float:
    """Mean negative log-likelihood of the horizon tokens (EOS included).

    Each horizon position is predicted from the context plus all preceding
    horizon tokens, in one batched query; PAD targets are masked out of
    both the sum and the average. A zero predicted probability yields an
    infinite loss.
    """
    seq = np.concatenate([context.tokens, horizon.tokens])
    positions = len(context.tokens) + np.flatnonzero(horizon.tokens != pad_id)
    if not len(positions):
        raise ValueError("horizon contains no unmasked targets")
    probs = model.next_token_distributions(_padded_windows(seq, model.order)[positions])
    with np.errstate(divide="ignore"):
        return float(-np.log(probs[np.arange(len(positions)), seq[positions]]).mean())


def sample_forecast(
    model: SequenceModel,
    contexts: Sequence[TokenStream],
    horizon_length: int,
    config: TokenizerConfig,
    codebook: Codebook,
    seeds: Sequence[int],
    n_samples: int = 20,
    temperature: float = 1.0,
) -> tuple[np.ndarray, list[str | None]]:
    """Autoregressive sample paths of every context, inverted to real
    values: ``(N, n_samples, horizon_length)`` paths, and one error
    message per series, ``None`` where it sampled.

    Exactly ``sum(coefficient_layout(horizon_length))`` tokens are drawn
    per path with EOS and PAD masked out of the sampling distribution, so
    every path detokenizes to exactly ``horizon_length`` values under its
    context's scale statistics, all paths in one call.

    All ``N x n_samples`` paths advance one token per step. A step groups
    the paths by ``model.history_states``, makes one query with one
    history per distinct state, and draws each path's token by inverse-CDF
    lookup of its own uniform, one ``searchsorted`` per state. Path ``s``
    of series ``i`` draws its ``n_tokens`` uniforms up front from the
    ``s``-th stream spawned from ``SeedSequence(seeds[i])``, one per token,
    so fixed seeds give bit-identical output whatever the other series,
    the same as a per-path ``Generator.choice`` loop over the full
    history. Temperature 0 takes the argmax and draws nothing. At any
    temperature, a series with a path in a state whose distribution has
    no mass fails alone: its paths are NaN and its message says so.
    """
    if model.vocab_size != codebook.vocab_size:
        raise ValueError(
            f"model vocabulary ({model.vocab_size}) does not match "
            f"codebook vocabulary ({codebook.vocab_size})"
        )
    if temperature < 0:
        raise ValueError(f"temperature must be non-negative, got {temperature}")
    n_tokens = sum(coefficient_layout(horizon_length, get_family(config.family), config.level,
                                      config.boundary_mode))
    if temperature > 0.0:
        uniforms = np.array([
            np.random.default_rng(child).random(n_tokens)
            for seed in seeds for child in np.random.SeedSequence(seed).spawn(n_samples)
        ]).reshape(-1, n_tokens)
    series = np.repeat(np.arange(len(contexts)), n_samples)  # of each path
    windows = np.array([_padded_windows(c.tokens, model.order)[-1] for c in contexts],
                       dtype=np.int64).reshape(-1, model.order)[series]
    generated = np.empty((len(series), n_tokens), dtype=np.int64)
    failed = np.zeros(len(contexts), dtype=bool)
    for step in range(n_tokens):
        _, first, inverse = np.unique(model.history_states(windows), return_index=True,
                                      return_inverse=True)
        probs = model.next_token_distributions(windows[first])
        probs[:, codebook.eos_id] = 0.0
        probs[:, codebook.pad_id] = 0.0
        if temperature not in (0.0, 1.0):
            probs **= 1.0 / temperature
        totals = probs.sum(axis=1, keepdims=True)
        empty = totals[:, 0] <= 0.0
        if empty.any():  # those series fail; their paths draw on, never detokenized
            failed[series[empty[inverse]]] = True
            probs[empty], totals[empty] = 1.0, model.vocab_size
        if temperature == 0.0:
            generated[:, step] = probs.argmax(axis=1)[inverse]
        else:
            # What Generator.choice(p=probs / total) does with one uniform.
            probs /= totals
            cdf = probs.cumsum(axis=1, out=probs)
            cdf /= cdf[:, -1:]
            members = np.argsort(inverse, kind="stable")
            bounds = np.cumsum(np.bincount(inverse, minlength=len(first)))[:-1]
            for row, paths in zip(cdf, np.split(members, bounds)):
                generated[paths, step] = row.searchsorted(uniforms[paths, step], side="right")
        windows[:, :-1] = windows[:, 1:]
        windows[:, -1] = generated[:, step]
    keep = ~failed[series]
    mu, sigma = np.array([(c.scale.mu, c.scale.sigma) for c in contexts]).reshape(-1, 2).T
    scale = ScaleStats(mu=mu[series][keep], sigma=sigma[series][keep])
    paths = np.full((len(series), horizon_length), np.nan)
    paths[keep] = detokenize(TokenStream(generated[keep], scale), horizon_length, config, codebook)
    return (paths.reshape(len(contexts), n_samples, horizon_length),
            ["sampling distribution has no mass" if f else None for f in failed.tolist()])


def save_model(model: MarkovModel, path, meta: dict | None = None) -> None:
    """Versioned ``.npz`` checkpoint of order, smoothing and count rows,
    written to ``path`` as named (no suffix is added)."""
    header = {
        "format": _FORMAT,
        "version": _VERSION,
        "vocab_size": model.vocab_size,
        "order": model.order,
        "alpha": model.alpha,
        "meta": meta if meta is not None else model.meta,
    }
    with open(path, "wb") as fh:
        np.savez(
            fh,
            header=np.array(json.dumps(header, sort_keys=True)),
            keys=model._keys,
            indptr=model._indptr,
            tokens=model._tokens.astype(np.min_scalar_type(model.vocab_size - 1)),
            counts=model._counts.astype(np.min_scalar_type(model._counts.max(initial=0))),
        )


def load_model(path) -> MarkovModel:
    try:
        with np.load(path, allow_pickle=False) as npz:
            header = json.loads(str(npz["header"]))
            keys, indptr, tokens, counts = arrays = [npz[name] for name in _ARRAYS]
    except (EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        if Path(path).read_bytes().startswith(b"{"):
            raise SchemaError(f"model version mismatch in {path}: found a JSON checkpoint "
                              f"(version 1), expected {_VERSION}") from exc
        raise SchemaError(f"corrupt model file {path}: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != _FORMAT:
        raise SchemaError(f"{path} is not a model checkpoint")
    if header.get("version") != _VERSION:
        raise SchemaError(
            f"model version mismatch in {path}: found {header.get('version')}, expected {_VERSION}"
        )
    missing = [k for k in ("vocab_size", "order", "alpha") if k not in header]
    if missing:
        raise SchemaError(f"model file {path} is missing fields: {missing}")
    if not (all(a.ndim == 1 and a.dtype.kind in "iu" for a in arrays) and keys.dtype == np.int64
            and len(indptr) == len(keys) + 1 and indptr[0] == 0
            and indptr[-1] == len(tokens) == len(counts)
            and np.all(np.diff(keys) > 0) and np.all(np.diff(indptr) >= 0)):
        raise SchemaError(f"corrupt model file {path}: inconsistent count arrays")
    model = MarkovModel(
        vocab_size=int(header["vocab_size"]),
        order=int(header["order"]),
        alpha=float(header["alpha"]),
    )
    model.meta = header.get("meta", {})
    model._set_counts(keys, indptr, tokens, counts)
    return model
