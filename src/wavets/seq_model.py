"""Autoregressive categorical sequence model over token ids.

The reference implementation is a smoothed order-k Markov (n-gram) model:
counts are kept for every history length from 0 (unigram) up to k, but a
query reads only the order-k suffix of its history (shorter only at the
start of a sequence), and additive smoothing gives an unseen history the
uniform distribution. The lower-order counts are not used for backoff.
The interface is the minimal contract a neural replacement would need to
satisfy.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from .codebook import Codebook
from .dwt import coefficient_layout
from .exceptions import SchemaError
from .families import get_family
from .tokenizer import TokenizerConfig, TokenStream, detokenize

_FORMAT = "wavets.markov"
_VERSION = 1


@runtime_checkable
class SequenceModel(Protocol):
    vocab_size: int

    def next_token_distribution(self, history: Sequence[int]) -> np.ndarray: ...


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
        self._counts: dict[tuple[int, ...], dict[int, int]] = {}

    def observe(self, sequence: Sequence[int], skip_targets: frozenset[int] = frozenset()):
        """Accumulate transition counts from one token sequence."""
        seq = [int(t) for t in sequence]
        for i, target in enumerate(seq):
            if target in skip_targets:
                continue
            for length in range(min(self.order, i) + 1):
                history = tuple(seq[i - length : i])
                bucket = self._counts.setdefault(history, {})
                bucket[target] = bucket.get(target, 0) + 1

    def next_token_distribution(self, history: Sequence[int]) -> np.ndarray:
        history = tuple(int(t) for t in history)
        suffix = history[len(history) - min(self.order, len(history)) :]
        bucket = self._counts.get(suffix, {})
        probs = np.full(self.vocab_size, self.alpha)
        total = 0
        for token, count in bucket.items():
            probs[token] += count
            total += count
        probs /= total + self.alpha * self.vocab_size
        return probs


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
    skip = frozenset({int(pad_id)})
    for ctx, hor in corpus:
        seq = np.concatenate([ctx.tokens, hor.tokens])
        model.observe(seq, skip_targets=skip)
    return model


def cross_entropy(
    model: SequenceModel,
    context: TokenStream,
    horizon: TokenStream,
    pad_id: int = 0,
) -> float:
    """Mean negative log-likelihood of the horizon tokens (EOS included).

    Each horizon position is predicted from the context plus all preceding
    horizon tokens; PAD targets are masked out of both the sum and the
    average. A zero predicted probability yields an infinite loss.
    """
    seq = np.concatenate([context.tokens, horizon.tokens])
    start = len(context.tokens)
    total = 0.0
    n_terms = 0
    for i in range(start, len(seq)):
        target = int(seq[i])
        if target == pad_id:
            continue
        p = model.next_token_distribution(seq[:i])[target]
        with np.errstate(divide="ignore"):
            total -= float(np.log(p))
        n_terms += 1
    if n_terms == 0:
        raise ValueError("horizon contains no unmasked targets")
    return total / n_terms


def _sample_token(probs: np.ndarray, temperature: float, rng: np.random.Generator) -> int:
    if temperature == 0.0:
        return int(np.argmax(probs))
    if temperature != 1.0:
        probs = probs ** (1.0 / temperature)
    total = probs.sum()
    if total <= 0.0:
        raise ValueError("sampling distribution has no mass")
    return int(rng.choice(len(probs), p=probs / total))


def sample_forecast(
    model: SequenceModel,
    context: TokenStream,
    horizon_length: int,
    config: TokenizerConfig,
    codebook: Codebook,
    n_samples: int = 20,
    temperature: float = 1.0,
    seed: int = 0,
) -> np.ndarray:
    """Autoregressive sample paths, inverted to real values.

    Exactly ``sum(coefficient_layout(horizon_length))`` tokens are drawn
    per path with EOS and PAD masked out of the sampling distribution, so
    every path detokenizes to exactly ``horizon_length`` values under the
    context's scale statistics. Fixed seeds give bit-identical output;
    each sample path uses an independently derived RNG stream.
    """
    if model.vocab_size != codebook.vocab_size:
        raise ValueError(
            f"model vocabulary ({model.vocab_size}) does not match "
            f"codebook vocabulary ({codebook.vocab_size})"
        )
    if temperature < 0:
        raise ValueError(f"temperature must be non-negative, got {temperature}")
    family = get_family(config.family)
    layout = coefficient_layout(horizon_length, family, config.level, config.boundary_mode)
    n_tokens = sum(layout)
    streams = np.random.SeedSequence(seed).spawn(n_samples)
    paths = np.empty((n_samples, horizon_length))
    context_tokens = list(int(t) for t in context.tokens)
    for s, child in enumerate(streams):
        rng = np.random.default_rng(child)
        generated: list[int] = []
        for _ in range(n_tokens):
            probs = model.next_token_distribution(context_tokens + generated)
            probs[codebook.eos_id] = 0.0
            probs[codebook.pad_id] = 0.0
            generated.append(_sample_token(probs, temperature, rng))
        stream = TokenStream(
            tokens=np.asarray(generated, dtype=np.int64),
            segment_lengths=tuple(layout),
            scale=context.scale,
            family_name=family.name,
            level=config.level,
            source_length=horizon_length,
            boundary_mode=config.boundary_mode,
        )
        paths[s] = detokenize(stream, codebook, family)
    return paths


def save_model(model: MarkovModel, path, meta: dict | None = None) -> None:
    """Versioned JSON checkpoint of order, smoothing and count tables."""
    counts = {
        ",".join(map(str, history)): {str(t): c for t, c in sorted(bucket.items())}
        for history, bucket in model._counts.items()
    }
    payload = {
        "format": _FORMAT,
        "version": _VERSION,
        "vocab_size": model.vocab_size,
        "order": model.order,
        "alpha": model.alpha,
        "meta": meta if meta is not None else model.meta,
        "counts": counts,
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n")


def load_model(path) -> MarkovModel:
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"corrupt model file {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
        raise SchemaError(f"{path} is not a model checkpoint")
    if payload.get("version") != _VERSION:
        raise SchemaError(
            f"model version mismatch in {path}: found {payload.get('version')}, expected {_VERSION}"
        )
    missing = [k for k in ("vocab_size", "order", "alpha", "counts") if k not in payload]
    if missing:
        raise SchemaError(f"model file {path} is missing fields: {missing}")
    model = MarkovModel(
        vocab_size=int(payload["vocab_size"]),
        order=int(payload["order"]),
        alpha=float(payload["alpha"]),
    )
    model.meta = payload.get("meta", {})
    for key, bucket in payload["counts"].items():
        history = tuple(int(t) for t in key.split(",")) if key else ()
        model._counts[history] = {int(t): int(c) for t, c in bucket.items()}
    return model
