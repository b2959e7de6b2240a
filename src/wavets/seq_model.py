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
turns them into values. The paths live in one history buffer, the start
window and then the drawn tokens: each step reads its histories as a
view of that buffer and writes one column of it. Each step groups the
paths by the state of their history (one stable sort), so each state's
paths are one slice of the sorted order. A state's CDF, with PAD masked
out and normalised, is built once per call, from one query at the first
step that reaches it, and reused at every later step; unseen histories
share one state. A step that reaches new states makes one query for all
of them, so each distinct state is queried exactly once per call. The
row arithmetic is row-local, so a CDF does not depend on the step or the
other rows it was built with. Each path draws one uniform per token from
its own seeded stream and inverts its state's CDF with it, so a fixed
seed gives the same paths whatever the batching. The uniforms take ``N x
S x n_tokens`` values, the history buffer ``N x S x (order + n_tokens)``
and the CDFs ``V`` per state.
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


_MASK32, _MASK64 = 0xFFFFFFFF, 2**64 - 1
# numpy.random.SeedSequence's hash constants (bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_HI, _PCG_MULT_LO = _PCG_MULT >> 64, _PCG_MULT & _MASK64
# path_uniforms draws this many tokens per lane in one pass
_BLOCK = 16


def _jump_constants(count: int) -> tuple[np.ndarray, ...]:
    """``(A_hi, A_lo, G_hi, G_lo)``: uint64 halves of ``A_j = M**j`` and
    ``G_j = M**0 + ... + M**(j - 1)`` mod 2**128 for ``j = 1 .. count``,
    with ``M`` the PCG64 multiplier; ``j`` LCG steps map a state ``s`` to
    ``A_j * s + G_j * increment``."""
    power, total, rows = 1, 0, []
    for _ in range(count):
        total = total + power & 2**128 - 1
        power = power * _PCG_MULT & 2**128 - 1
        rows.append((power >> 64, power & _MASK64, total >> 64, total & _MASK64))
    return tuple(np.array(column, dtype=np.uint64) for column in zip(*rows))


_JUMP_A_HI, _JUMP_A_LO, _JUMP_G_HI, _JUMP_G_LO = _jump_constants(_BLOCK)


def _mulhi64(a: np.ndarray, b: np.ndarray | int) -> np.ndarray:
    """High 64 bits of the 128-bit products ``a * b``, from 32-bit limbs."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    lo_hi, hi_lo = a0 * b1, a1 * b0
    middle = (a0 * b0 >> 32) + (lo_hi & _MASK32) + (hi_lo & _MASK32)
    return a1 * b1 + (lo_hi >> 32) + (hi_lo >> 32) + (middle >> 32)


def _mul128(ah, al, bh, bl) -> tuple[np.ndarray, np.ndarray]:
    """``(hi, lo)`` uint64 halves of the products ``a * b`` mod 2**128."""
    return ah * bl + al * bh + _mulhi64(al, bl), al * bl


def _hasher(const: int, mult: int):
    """SeedSequence's hash of uint32 arrays: xor with the running constant,
    step the constant by ``mult``, multiply by it, xorshift by 16. The
    constants do not depend on the data, so they are masked Python ints."""

    def hash_(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const
        return value ^ value >> 16

    return hash_


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ result >> 16


def path_uniforms(seeds: Sequence[int], n_samples: int, n: int) -> np.ndarray:
    """``(len(seeds) * n_samples, n)`` uniforms in ``[0, 1)``: row ``i *
    n_samples + s`` equals ``default_rng(child).random(n)`` for the ``s``-th
    child spawned from ``SeedSequence(seeds[i])``, for every seed in
    ``[0, 2**64)``; another seed is refused.

    No numpy generator is built. Each row is one lane of uint32/uint64
    array arithmetic, and every lane runs the same steps at once:

    * The child's entropy is the words ``[seed & 0xFFFFFFFF, seed >> 32,
      0, 0, s]``: the seed's two 32-bit words, zero-filled to the pool size
      of 4 because the child has a spawn key, then the spawn index ``s``,
      which fits one word.
    * ``SeedSequence.mix_entropy`` hashes it into a 4-word pool, and
      ``generate_state(4, uint64)`` hashes the pool into 8 words, with the
      constants of numpy's ``bit_generator.pyx``.
    * ``PCG64`` seeds its 128-bit LCG (O'Neill 2014) with state words 0:1
      and increment ``c = (words 2:3 << 1) | 1``: state = ``c``, plus the
      seed, then one step ``s -> M * s + c`` with ``M =
      PCG_DEFAULT_MULTIPLIER_128``, on ``(hi, lo)`` uint64 halves.
    * Each token takes one more step and outputs ``rotr64(hi ^ lo, hi >>
      58)`` (XSL-RR). The tokens come in blocks of ``_BLOCK``: ``j`` steps
      are one affine map, ``s_{t+j} = A_j * s_t + G_j * c`` mod 2**128 with
      ``A_j = M**j`` and ``G_j = M**0 + ... + M**(j - 1)`` (Brown 1994,
      "Random Number Generation with Arbitrary Strides"). ``A_j`` and
      ``G_j`` for ``j = 1 .. _BLOCK`` are exact Python-int powers and sums,
      masked to 128 bits at import; ``G_j * c`` is formed once per call.
      A block is the ``(lanes, _BLOCK)`` states ``A_j * s + G_j * c`` from
      the last state of the block before. Every product and sum is exact
      mod 2**128, which is all the LCG keeps, so each state, and so each
      output bit, is the one the step-by-step recurrence gives.
    * ``Generator.random`` is ``(output >> 11) * 2**-53``.

    Numpy keeps the streams of ``SeedSequence`` and ``PCG64`` stable by
    policy (NEP 19), so this stays equal to numpy's own generators."""
    values = [int(seed) for seed in seeds]
    bad = [seed for seed in values if not 0 <= seed < 2**64]
    if bad:
        raise ValueError(f"seed must be in [0, 2**64), got {bad[0]}")
    spawn = np.tile(np.arange(n_samples, dtype=np.uint32), len(values))
    lanes = np.repeat(np.array(values, dtype=np.uint64), n_samples)
    zero = np.zeros_like(spawn)
    entropy = [(lanes & _MASK32).astype(np.uint32), (lanes >> 32).astype(np.uint32), zero, zero]

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for dst in range(4):
        pool[dst] = _mix(pool[dst], hashmix(spawn))
    hashout = _hasher(_INIT_B, _MULT_B)
    words = [hashout(pool[i % 4]).astype(np.uint64) for i in range(8)]
    seed_hi, seed_lo, init_hi, init_lo = (words[i] | words[i + 1] << 32 for i in range(0, 8, 2))
    inc_hi, inc_lo = init_hi << 1 | init_lo >> 63, init_lo << 1 | 1

    # the seeding step: state = (increment + seed) * M + increment
    lo = inc_lo + seed_lo
    hi, lo = _mul128(inc_hi + seed_hi + (lo < seed_lo), lo, _PCG_MULT_HI, _PCG_MULT_LO)
    lo += inc_lo
    hi += inc_hi + (lo < inc_lo)
    # G_j * increment for every offset j of a block, one (lanes, _BLOCK) pair
    add_hi, add_lo = _mul128(inc_hi[:, None], inc_lo[:, None], _JUMP_G_HI, _JUMP_G_LO)
    out = np.empty((len(lanes), n))
    for start in range(0, n, _BLOCK):
        b = min(_BLOCK, n - start)
        hi, lo = _mul128(hi[:, None], lo[:, None], _JUMP_A_HI[:b], _JUMP_A_LO[:b])
        lo += add_lo[:, :b]
        hi += add_hi[:, :b] + (lo < add_lo[:, :b])
        xored, rotation = hi ^ lo, hi >> 58
        out[:, start:start + b] = (xored >> rotation | xored << (64 - rotation & 63)) >> 11
        hi, lo = hi[:, -1], lo[:, -1]  # the block's last state seeds the next block
    out *= 2.0**-53
    return out


def sample_forecast(
    model: SequenceModel,
    contexts: TokenStream,
    n_tokens: int,
    codebook: Codebook,
    seeds: Sequence[int],
    n_samples: int,
) -> np.ndarray:
    """Autoregressive sample paths after every row of an ``(N, L)`` stack
    of context tokens: ``(N, n_samples, n_tokens)`` int64 token ids, with
    one seed per row.

    PAD is masked out of the sampling distribution. A path starts
    from the last ``model.order`` context tokens, ``-1``-padded on the left.

    All ``N x n_samples`` paths advance one token per step in one history
    buffer of ``model.order + n_tokens`` columns per path: the start
    window, then the drawn tokens. Step ``t`` reads the view of columns
    ``t .. t + order`` as the paths' histories and writes column ``t +
    order``. A step groups the paths by ``model.history_states`` with one
    stable ``argsort``: the runs of equal sorted states are the distinct
    states in increasing order, each run lists its paths in path order,
    and a run's first entry is the state's first path. The step queries
    the model once, with that path's history for each state no earlier
    step has reached. It then draws each path's token by inverse-CDF
    lookup of its own uniform: the uniforms are gathered into sorted
    order once, each state's run is one slice of them and one
    ``searchsorted``, and one scatter writes the step's tokens back by
    path. Each state's CDF is built once per call.
    Path ``s`` of series ``i`` draws its ``n_tokens`` uniforms up front
    with :func:`path_uniforms`, one per token, so fixed seeds give
    bit-identical output whatever the other series, the same as a per-path
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
    n_series, k = len(contexts.tokens), model.order
    if len(seeds) != n_series:
        raise ValueError(f"need one seed per context row, got {len(seeds)} seeds for "
                         f"{n_series} rows")
    uniforms = path_uniforms(seeds, n_samples, n_tokens)
    n_paths = len(uniforms)
    length = contexts.tokens.shape[1]
    width = min(k, length)  # context tokens in the start window
    hist = np.full((n_series, n_samples, k + n_tokens), -1, dtype=np.int64)
    hist[:, :, k - width:k] = contexts.tokens[:, None, length - width:]
    hist = hist.reshape(n_paths, k + n_tokens)  # one row per path
    drawn = np.empty(n_paths, dtype=np.int64)  # the step's tokens, in sorted order
    first = np.ones(n_paths, dtype=bool)  # where a state's run of paths begins
    cdfs: dict = {}  # state -> its CDF, built at the first step that reaches it
    for step in range(n_tokens):
        windows = hist[:, step:step + k]
        path_states = model.history_states(windows)
        order = path_states.argsort(kind="stable")  # by state, then by path
        ordered = path_states[order]
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])  # the first path always begins one
        starts = first.nonzero()[0]
        states = ordered[starts].tolist()
        new = [j for j, state in enumerate(states) if state not in cdfs]
        if new:
            probs = model.next_token_distributions(windows[order[starts[new]]])
            probs[:, codebook.PAD_ID] = 0.0
            totals = probs.sum(axis=1, keepdims=True)
            if (totals <= 0.0).any():
                raise ValueError("sampling distribution has no mass")
            # What Generator.choice(p=probs / total) does with one uniform.
            probs /= totals
            cdf = probs.cumsum(axis=1, out=probs)
            cdf /= cdf[:, -1:]
            cdfs.update(zip((states[j] for j in new), cdf))
        u = uniforms[:, step][order]
        bounds = [*starts.tolist(), n_paths]
        for state, a, b in zip(states, bounds, bounds[1:]):
            drawn[a:b] = cdfs[state].searchsorted(u[a:b], side="right")
        hist[:, k + step][order] = drawn  # a view of the step's column, written by path
    return hist[:, k:].reshape(n_series, n_samples, n_tokens)


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
