"""End-to-end forward tokenization and its exact inverse.

Forward: z-score the window with context statistics, fill missing values,
decompose with the configured wavelet, optionally threshold the details,
quantize every coefficient against a shared codebook and concatenate the
bands coarsest-first ``[a_J, d_J, ..., d_1]``. Coefficients whose entire
filter support lies in missing (or synthetic padding) samples are emitted
as PAD tokens.

Inverse: dequantize (PAD contributes 0), rebuild the coefficient pyramid,
apply the inverse transform and undo the scaling. It works on the last
axis, so one stream can hold a ``(paths, n_tokens)`` token array with one
scale per row and invert every row in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codebook import Codebook, dequantize, quantize
from .dwt import CoefficientPyramid, _extend, _strided_filter, coefficient_layout, decompose, reconstruct
from .families import WaveletFamily, get_family
from .thresholding import ThresholdSpec, apply_threshold


@dataclass(frozen=True)
class ScaleStats:
    """Context mean and sample standard deviation used for z-scoring."""

    mu: float
    sigma: float


@dataclass(frozen=True)
class TokenizerConfig:
    family: str = "bior2.2"
    level: int = 1
    threshold: ThresholdSpec = field(default_factory=ThresholdSpec)
    boundary_mode: str = "symmetric"


@dataclass(frozen=True)
class TokenStream:
    """Token ids in coarse-to-fine band order plus inversion metadata.

    ``segment_lengths`` covers the coefficient tokens only; when
    ``has_eos`` is set a single EOS token trails them. ``tokens`` may stack
    several streams of the same layout along leading axes; ``scale`` then
    holds arrays of the leading shape, one mean and deviation per stream.
    """

    tokens: np.ndarray
    segment_lengths: tuple[int, ...]
    scale: ScaleStats
    family_name: str
    level: int
    source_length: int
    boundary_mode: str = "symmetric"
    has_eos: bool = False

    def __post_init__(self):
        object.__setattr__(self, "tokens", np.asarray(self.tokens, dtype=np.int64))
        expected = sum(self.segment_lengths) + (1 if self.has_eos else 0)
        if self.tokens.shape[-1] != expected:
            raise ValueError(
                f"token count {self.tokens.shape[-1]} does not match segment lengths "
                f"{self.segment_lengths} (EOS: {self.has_eos})"
            )

    @property
    def coefficient_tokens(self) -> np.ndarray:
        return self.tokens[..., :-1] if self.has_eos else self.tokens


def compute_scale(x: np.ndarray) -> ScaleStats:
    """Mean and sample standard deviation over the observed values.

    NaN marks missing observations. A zero (or undefined) spread falls
    back to sigma = 1 so constant windows scale to all zeros.
    """
    x = np.asarray(x, dtype=np.float64)
    observed = x[np.isfinite(x)]
    if observed.size == 0:
        raise ValueError("cannot scale a window with no observed values")
    mu = float(np.mean(observed))
    sigma = float(np.std(observed, ddof=1)) if observed.size > 1 else 0.0
    if not np.isfinite(sigma) or sigma == 0.0:
        sigma = 1.0
    return ScaleStats(mu=mu, sigma=sigma)


def fill_missing(x: np.ndarray) -> np.ndarray:
    """Linearly interpolate interior gaps and hold the end values."""
    x = np.asarray(x, dtype=np.float64)
    mask = np.isfinite(x)
    if mask.all():
        return x.copy()
    if not mask.any():
        raise ValueError("cannot fill a window with no observed values")
    idx = np.arange(len(x))
    return np.interp(idx, idx[mask], x[mask])


def _band_observed(mask: np.ndarray, family: WaveletFamily, level: int, mode: str) -> list[np.ndarray]:
    """Per-band flags marking coefficients with any observed sample in
    their filter support, ordered ``[a_J, d_J, ..., d_1]`` like the bands:
    a positive count of the 0/1 mask under an all-ones analysis filter."""
    support = np.ones(family.filter_length)
    counts = np.asarray(mask, dtype=np.float64)
    per_level = []
    for _ in range(level):
        counts = _strided_filter(_extend(counts, family.filter_length, mode), support)
        per_level.append(counts > 0)
    # approx band shares the support of the coarsest detail band
    return [per_level[-1]] + per_level[::-1]


def _quantize_bands(
    pyramid: CoefficientPyramid,
    observed: list[np.ndarray],
    codebook: Codebook,
) -> np.ndarray:
    bands = [pyramid.approx, *pyramid.details]
    parts = []
    for band, obs in zip(bands, observed):
        tokens = quantize(band, codebook)
        tokens = np.where(obs, tokens, codebook.pad_id)
        parts.append(tokens)
    return np.concatenate(parts)


def scaled_pyramid(
    x: np.ndarray, scale: ScaleStats, family: WaveletFamily, config: TokenizerConfig
) -> CoefficientPyramid:
    """The coefficients a window is quantized from: gaps filled, z-scored
    with ``scale``, decomposed and detail-thresholded."""
    z = (fill_missing(x) - scale.mu) / scale.sigma
    return apply_threshold(decompose(z, family, config.level, config.boundary_mode), config.threshold)


def _tokenize_scaled(
    x: np.ndarray,
    scale: ScaleStats,
    config: TokenizerConfig,
    codebook: Codebook,
    append_eos: bool,
) -> TokenStream:
    family = get_family(config.family)
    mask = np.isfinite(x)
    pyramid = scaled_pyramid(x, scale, family, config)
    if mask.all():
        observed = [np.ones(len(b), dtype=bool) for b in (pyramid.approx, *pyramid.details)]
    else:
        observed = _band_observed(mask, family, config.level, config.boundary_mode)
    tokens = _quantize_bands(pyramid, observed, codebook)
    if append_eos:
        tokens = np.append(tokens, codebook.eos_id)
    return TokenStream(
        tokens=tokens,
        segment_lengths=tuple(pyramid.segment_lengths()),
        scale=scale,
        family_name=family.name,
        level=config.level,
        source_length=len(x),
        boundary_mode=config.boundary_mode,
        has_eos=append_eos,
    )


def tokenize(x: np.ndarray, config: TokenizerConfig, codebook: Codebook) -> TokenStream:
    """Tokenize one window; NaN entries are treated as missing values."""
    x = np.asarray(x, dtype=np.float64)
    scale = compute_scale(x)
    return _tokenize_scaled(x, scale, config, codebook, append_eos=False)


def tokenize_pair(
    context: np.ndarray,
    horizon: np.ndarray,
    config: TokenizerConfig,
    codebook: Codebook,
) -> tuple[TokenStream, TokenStream]:
    """Tokenize a (context, horizon) pair of contiguous windows.

    Both windows are scaled with the context statistics and decomposed
    independently; the horizon stream carries the context scale for
    inversion and ends with an EOS token.
    """
    context = np.asarray(context, dtype=np.float64)
    horizon = np.asarray(horizon, dtype=np.float64)
    scale = compute_scale(context)
    ctx_stream = _tokenize_scaled(context, scale, config, codebook, append_eos=False)
    hor_stream = _tokenize_scaled(horizon, scale, config, codebook, append_eos=True)
    return ctx_stream, hor_stream


def detokenize(stream: TokenStream, codebook: Codebook, family: WaveletFamily | None = None) -> np.ndarray:
    """Invert a token stream back to a real-valued window, or a stack of
    streams to one window per row.

    PAD tokens contribute zero coefficients, so an all-PAD stream inverts
    to the constant context mean.
    """
    if family is None:
        family = get_family(stream.family_name)
    expected = coefficient_layout(
        stream.source_length, family, stream.level, stream.boundary_mode
    )
    if list(stream.segment_lengths) != expected:
        raise ValueError(
            f"segment lengths {list(stream.segment_lengths)} inconsistent with "
            f"source length {stream.source_length}: expected {expected}"
        )
    coeff_tokens = stream.coefficient_tokens
    if np.any(coeff_tokens == codebook.eos_id):
        raise ValueError("EOS token inside a coefficient segment")
    values, _ = dequantize(coeff_tokens, codebook)
    parts = np.split(values, np.cumsum(expected)[:-1], axis=-1)
    pyramid = CoefficientPyramid(
        approx=parts[0],
        details=tuple(parts[1:]),
        level=stream.level,
        input_length=stream.source_length,
        family_name=family.name,
        boundary_mode=stream.boundary_mode,
    )
    z = reconstruct(pyramid, family)
    sigma, mu = np.asarray(stream.scale.sigma), np.asarray(stream.scale.mu)
    return z * sigma[..., None] + mu[..., None]


def stream_to_record(stream: TokenStream) -> dict:
    """Plain-JSON-serializable form of a token stream."""
    return {
        "tokens": stream.tokens.tolist(),
        "segment_lengths": list(stream.segment_lengths),
        "mu": stream.scale.mu,
        "sigma": stream.scale.sigma,
        "family": stream.family_name,
        "level": stream.level,
        "source_length": stream.source_length,
        "boundary_mode": stream.boundary_mode,
        "has_eos": stream.has_eos,
    }


def stream_from_record(record: dict) -> TokenStream:
    return TokenStream(
        tokens=np.asarray(record["tokens"], dtype=np.int64),
        segment_lengths=tuple(record["segment_lengths"]),
        scale=ScaleStats(mu=float(record["mu"]), sigma=float(record["sigma"])),
        family_name=record["family"],
        level=int(record["level"]),
        source_length=int(record["source_length"]),
        boundary_mode=record.get("boundary_mode", "symmetric"),
        has_eos=bool(record.get("has_eos", False)),
    )


def pad_to_length(values: np.ndarray, length: int) -> np.ndarray:
    """Left-pad a short window with missing values to a fixed length."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) >= length:
        return values[-length:].copy()
    out = np.full(length, np.nan)
    out[length - len(values) :] = values
    return out
