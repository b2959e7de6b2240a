"""Autoregressive categorical sequence model over token ids.

The reference implementation is a smoothed order-k Markov (n-gram) model:
counts are kept for every history length from 0 (unigram) up to k, but a
query reads only the order-k suffix of its history (shorter only at the
start of a sequence), and additive smoothing gives an unseen history the
uniform distribution. The lower-order counts are not used for backoff.
The interface is the minimal contract a neural replacement would need to
satisfy: a vocabulary size, the number of trailing tokens a query reads,
the next-token distributions of a batch of histories, and an integer
state per history such that histories of equal state have equal
distributions, in any call. The Markov model's state is the count row of
an observed order-k history and ``-1`` for every unseen one.

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
pair as ``key * V + target``, so :func:`check_model_settings` refuses an
order for which ``(V + 1)**k * V`` does not fit in int64 (at ``V = 1024``,
any order above 5).

A checkpoint is an uncompressed ``.npz`` archive holding ``header`` (a JSON
string: format, version 2, vocabulary size, order, smoothing and meta)
and the arrays ``keys``, ``indptr``, ``tokens`` and ``counts``. It is
read without pickle. Version 1 was a JSON dict of dicts.

Sampling advances the ``N x S`` paths of all series of a command
together, one token per step, and returns their token ids; the tokenizer
turns them into values. Each step groups the paths by the state of their
history (one ``np.unique``). A state's CDF, with PAD masked out and
normalised, is built once per call, from one query at the first step that
reaches it, and reused at every later step; unseen histories share one
state. A step that reaches new states makes one query for all of them,
so each distinct state is queried exactly once per call. The row
arithmetic is row-local, so a CDF does not depend on the step or the
other rows it was built with. Each path draws one uniform per token from
its own seeded stream and inverts its state's CDF with it, so a fixed
seed gives the same paths whatever the batching. The uniforms and the
drawn tokens take ``N x S x n_tokens`` values, the CDFs ``V`` per state.
"""

from __future__ import annotations

import json
import zipfile
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .codebook import Codebook
from .exceptions import SchemaError
from .tokenizer import TokenStream

_FORMAT = "wavets.markov"
_VERSION = 2
_ARRAYS = ("keys", "indptr", "tokens", "counts")
_INT64_MAX = int(np.iinfo(np.int64).max)


class SequenceModel(Protocol):
    """A query reads at most the last ``order`` columns of each history
    row and returns one distribution per row; two rows of equal
    ``history_states``, in the same or different calls, have equal
    distributions."""

    vocab_size: int
    order: int

    def next_token_distributions(self, histories: np.ndarray) -> np.ndarray: ...

    def history_states(self, histories: np.ndarray) -> np.ndarray: ...


def check_model_settings(vocab_size: int, order: int, alpha: float) -> None:
    """Refuse a vocabulary size, order or smoothing constant the Markov
    model cannot take, including an order whose history keys overflow
    int64 at ``vocab_size``. An order that passes also fits every smaller
    vocabulary."""
    if vocab_size < 2:
        raise ValueError(f"vocabulary size must be at least 2, got {vocab_size}")
    if order < 1:
        raise ValueError(f"model order must be at least 1, got {order}")
    if alpha <= 0:
        raise ValueError(f"smoothing constant must be positive, got {alpha}")
    if order >= 63 or (vocab_size + 1) ** order * vocab_size > _INT64_MAX:  # 3**63 > 2**63
        raise ValueError(f"order {order} overflows int64 history keys at vocabulary size "
                         f"{vocab_size}: (V + 1)**order * V must fit")


class MarkovModel:
    """Count-based order-k model with additive smoothing.

    ``P(t | h) = (count(h, t) + alpha) / (total(h) + alpha * V)`` where
    ``h`` is the length-``min(k, len(history))`` suffix of the history.
    Unseen histories therefore fall back to the uniform distribution, and
    an empty history queries the unigram counts.
    """

    def __init__(self, vocab_size: int, order: int, alpha: float):
        check_model_settings(vocab_size, order, alpha)
        self.vocab_size = int(vocab_size)
        self.order = int(order)
        self.alpha = float(alpha)
        self.meta: dict = {}
        # digit weights of an order-k history key, oldest token first
        self._weights = (self.vocab_size + 1) ** np.arange(self.order - 1, -1, -1, dtype=np.int64)
        self.fit([])

    def _set_counts(self, keys, indptr, tokens, counts) -> None:
        self._keys, self._indptr, self._tokens, self._counts = keys, indptr, tokens, counts
        # the keys plus a sentinel above every key, so a lookup stays in bounds
        self._lookup = np.append(keys, _INT64_MAX)

    def fit(self, sequences: Sequence[Sequence[int]]) -> MarkovModel:
        """Count every (history, target) pair of every history length in
        the sequences, replacing any earlier counts. PAD targets are not
        counted but stay visible inside histories."""
        pad = np.full(self.order, -1, dtype=np.int64)
        flat = np.concatenate([pad, *(np.r_[np.asarray(s, dtype=np.int64), pad] for s in sequences)])
        targets = np.flatnonzero((flat >= 0) & (flat != Codebook.PAD_ID))
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
    return model.fit([np.concatenate([ctx.tokens, hor.tokens]) for ctx, hor in corpus])


def _padded_windows(tokens: np.ndarray, order: int) -> np.ndarray:
    """Row ``i`` holds the ``order`` tokens before position ``i``, ``-1``
    where the sequence has not started; ``len(tokens) + 1`` rows."""
    padded = np.concatenate([np.full(order, -1, dtype=np.int64), tokens])
    return sliding_window_view(padded, order)


def cross_entropy(
    model: SequenceModel,
    context: TokenStream,
    horizon: TokenStream,
    pad_id: int = Codebook.PAD_ID,
) -> float:
    """Mean negative log-likelihood of the horizon tokens.

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


def path_uniforms(seeds: Sequence[int], n_samples: int, n: int) -> np.ndarray:
    """``(len(seeds) * n_samples, n)`` uniforms in ``[0, 1)``: row ``i *
    n_samples + s`` equals ``default_rng(child).random(n)`` for the ``s``-th
    child spawned from ``SeedSequence(seeds[i])``. It is read from the raw
    PCG64 stream without a ``Generator``: ``Generator.random`` is
    ``(next_uint64 >> 11) * 2**-53``."""
    raw = np.array([np.random.PCG64(child).random_raw(n) for seed in seeds
                    for child in np.random.SeedSequence(seed).spawn(n_samples)],
                   dtype=np.uint64).reshape(-1, n)
    return (raw >> 11) * 2.0**-53


def sample_forecast(
    model: SequenceModel,
    contexts: TokenStream,
    n_tokens: int,
    codebook: Codebook,
    seeds: Sequence[int],
    n_samples: int,
) -> np.ndarray:
    """Autoregressive sample paths after every row of an ``(N, L)`` stack
    of context tokens: ``(N, n_samples, n_tokens)`` int64 token ids.

    PAD is masked out of the sampling distribution. A path starts
    from the last ``model.order`` context tokens, ``-1``-padded on the left.

    All ``N x n_samples`` paths advance one token per step. A step groups
    the paths by ``model.history_states``, queries the model once with one
    history per state no earlier step has reached, and draws each path's
    token by inverse-CDF lookup of its own uniform, one ``searchsorted``
    per state; each state's CDF is built once per call. Path ``s`` of
    series ``i`` draws its ``n_tokens`` uniforms up front with
    :func:`path_uniforms`, one per token, so fixed seeds give bit-identical
    output whatever the other series, the same as a per-path
    ``Generator.choice`` loop over the full history. A path that reaches a
    state whose distribution has no mass fails the call with "sampling
    distribution has no mass"; the caller's retry by halves
    (:func:`wavets.pipeline.forecast_dataset`) then fails only the series
    of that path.
    """
    if model.vocab_size != codebook.vocab_size:
        raise ValueError(
            f"model vocabulary ({model.vocab_size}) does not match "
            f"codebook vocabulary ({codebook.vocab_size})"
        )
    n_series = len(contexts.tokens)
    padded = np.concatenate([np.full((n_series, model.order), -1), contexts.tokens], axis=1)
    windows = np.repeat(padded[:, -model.order:], n_samples, axis=0)  # one row per path
    uniforms = path_uniforms(seeds, n_samples, n_tokens)
    generated = np.empty((len(windows), n_tokens), dtype=np.int64)
    cdfs: dict = {}  # state -> its CDF, built at the first step that reaches it
    for step in range(n_tokens):
        states, first, inverse = np.unique(model.history_states(windows), return_index=True,
                                           return_inverse=True)
        states = states.tolist()
        new = [j for j, state in enumerate(states) if state not in cdfs]
        if new:
            probs = model.next_token_distributions(windows[first[new]])
            probs[:, codebook.PAD_ID] = 0.0
            totals = probs.sum(axis=1, keepdims=True)
            if (totals <= 0.0).any():
                raise ValueError("sampling distribution has no mass")
            # What Generator.choice(p=probs / total) does with one uniform.
            probs /= totals
            cdf = probs.cumsum(axis=1, out=probs)
            cdf /= cdf[:, -1:]
            cdfs.update(zip((states[j] for j in new), cdf))
        members = np.argsort(inverse, kind="stable")
        bounds = np.cumsum(np.bincount(inverse, minlength=len(states)))[:-1]
        for state, paths in zip(states, np.split(members, bounds)):
            generated[paths, step] = cdfs[state].searchsorted(uniforms[paths, step], side="right")
        windows[:, :-1] = windows[:, 1:]
        windows[:, -1] = generated[:, step]
    return generated.reshape(n_series, n_samples, n_tokens)


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
    model = MarkovModel(
        vocab_size=int(header["vocab_size"]),
        order=int(header["order"]),
        alpha=float(header["alpha"]),
    )
    if not (all(a.ndim == 1 and a.dtype.kind in "iu" for a in arrays) and keys.dtype == np.int64
            and len(indptr) == len(keys) + 1 and indptr[0] == 0
            and indptr[-1] == len(tokens) == len(counts)
            and np.all(np.diff(keys) > 0) and np.all(np.diff(indptr) >= 0)
            and np.all((tokens >= 0) & (tokens < model.vocab_size)) and np.all(counts > 0)):
        raise SchemaError(f"corrupt model file {path}: inconsistent count arrays")
    model.meta = header.get("meta", {})
    model._set_counts(keys, indptr, tokens, counts)
    return model
