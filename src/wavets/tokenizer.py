"""End-to-end forward tokenization and its exact inverse.

Forward: z-score the window with context statistics, fill missing values,
decompose with the configured wavelet, optionally threshold the details
and mark as missing (NaN) each coefficient whose entire filter support
lies in missing (or synthetic padding) samples, found by decomposing the
observed-sample mask (:func:`coefficients`, which refuses coefficients
that overflow); then quantize every coefficient against a shared
codebook, a missing one to PAD, and concatenate the bands coarsest-first
``[a_J, d_J, ..., d_1]``. The codebook is fit to the same coefficients,
the missing ones left out.

Inverse: dequantize (PAD contributes 0), rebuild the coefficient pyramid,
apply the inverse transform and undo the scaling.

A stream stores no band layout: :meth:`TokenizerConfig.layout` derives it
from the configuration and the window length, so a token file record is
just ``{item_id, kind, tokens, mu, sigma}``.

Both directions work on the last axis: one stream can hold a
``(rows, n_tokens)`` token array with one scale per row, so
:func:`tokenize` turns a stack of windows into one stream and
:func:`detokenize` inverts every row of a stream, each row bit-identical
to its own call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .codebook import Codebook, dequantize, quantize
from .dwt import CoefficientPyramid, coefficient_layout, decompose, reconstruct
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

    @functools.cached_property
    def wavelet(self) -> WaveletFamily:
        """The filters of ``family``, looked up once per configuration."""
        return get_family(self.family)

    def layout(self, length: int) -> list[int]:
        """Band sizes ``[a_J, d_J, ..., d_1]`` of a length-``length`` window."""
        return coefficient_layout(length, self.wavelet, self.level, self.boundary_mode)


@dataclass(frozen=True)
class TokenStream:
    """Token ids in coarse-to-fine band order and the scale that inverts
    them.

    ``tokens`` may stack several streams of the same layout along leading
    axes; ``scale`` then holds arrays of the leading shape, one mean and
    deviation per stream.
    """

    tokens: np.ndarray
    scale: ScaleStats

    def __post_init__(self):
        object.__setattr__(self, "tokens", np.asarray(self.tokens, dtype=np.int64))

    def rows(self) -> list[TokenStream]:
        """One stream per row of a ``(rows, n_tokens)`` stack."""
        return [replace(self, tokens=tokens, scale=ScaleStats(mu=float(mu), sigma=float(sigma)))
                for tokens, mu, sigma in zip(self.tokens, self.scale.mu, self.scale.sigma)]

    def take(self, rows) -> TokenStream:
        """The stream of the given rows of a ``(rows, n_tokens)`` stack."""
        return replace(self, tokens=self.tokens[rows],
                       scale=ScaleStats(mu=self.scale.mu[rows], sigma=self.scale.sigma[rows]))


def compute_scale(x: np.ndarray) -> ScaleStats:
    """Mean and sample standard deviation over the observed values.

    NaN marks missing observations. A zero spread (or a single observed
    value) falls back to sigma = 1 so constant windows scale to all zeros;
    a mean or deviation that overflows is refused.
    """
    x = np.asarray(x, dtype=np.float64)
    observed = x[np.isfinite(x)]
    if observed.size == 0:
        raise ValueError("cannot scale a window with no observed values")
    with np.errstate(over="ignore", invalid="ignore"):
        mu = float(np.mean(observed))
        sigma = float(np.std(observed, ddof=1)) if observed.size > 1 else 0.0
    if not (math.isfinite(mu) and math.isfinite(sigma)):
        raise ValueError("cannot scale a window whose mean or deviation overflows")
    sigma = sigma or 1.0
    return ScaleStats(mu=mu, sigma=sigma)


def fill_missing(x: np.ndarray) -> np.ndarray:
    """Linearly interpolate interior gaps and hold the end values, in each
    row along the last axis."""
    out = np.array(x, dtype=np.float64)
    rows = out.reshape(-1, out.shape[-1])
    observed = np.isfinite(rows)
    if not observed.any(axis=-1).all():
        raise ValueError("cannot fill a window with no observed values")
    idx = np.arange(out.shape[-1])
    for r in np.flatnonzero(~observed.all(axis=-1)):
        rows[r] = np.interp(idx, idx[observed[r]], rows[r, observed[r]])
    return out


def coefficients(windows: np.ndarray, scale: ScaleStats,
                 config: TokenizerConfig) -> CoefficientPyramid:
    """The forward step before quantization, for a window or a ``(rows, n)``
    stack with one ``scale`` per row: gap-fill, z-score, decompose and
    threshold the details, refusing coefficients that overflow; then set to
    NaN each coefficient with no observed sample in its filter support, as
    counted by :func:`~wavets.dwt.decompose` of the 0/1 mask
    ``np.isfinite(windows)`` with an all-ones filter bank."""
    windows = np.asarray(windows, dtype=np.float64)
    mu, sigma = np.asarray(scale.mu)[..., None], np.asarray(scale.sigma)[..., None]
    pyramid = decompose((fill_missing(windows) - mu) / sigma, config.wavelet, config.level,
                        config.boundary_mode)
    if not all(np.isfinite(band).all() for band in (pyramid.approx, *pyramid.details)):
        raise ValueError("wavelet coefficients are not finite")
    pyramid = apply_threshold(pyramid, config.threshold)  # new arrays, so masked in place
    ones = np.ones(config.wavelet.filter_length)
    counts = decompose(np.isfinite(windows), WaveletFamily(config.family, ones, ones, ones, ones),
                       config.level, config.boundary_mode)
    for band, count in zip((pyramid.approx, *pyramid.details), (counts.approx, *counts.details)):
        band[count == 0] = np.nan
    return pyramid


def tokenize(
    windows: np.ndarray,
    scale: ScaleStats,
    config: TokenizerConfig,
    codebook: Codebook,
) -> TokenStream:
    """Tokenize a window, or a ``(rows, n)`` stack of windows with one
    ``scale`` per row, into one stream; NaN entries are missing values.

    Each window's :func:`coefficients` are quantized, a missing one to PAD.
    """
    pyramid = coefficients(windows, scale, config)
    tokens = [quantize(band, codebook) for band in (pyramid.approx, *pyramid.details)]
    return TokenStream(tokens=np.concatenate(tokens, axis=-1), scale=scale)


def tokenize_pair(
    context: np.ndarray,
    horizon: np.ndarray,
    config: TokenizerConfig,
    codebook: Codebook,
) -> tuple[TokenStream, TokenStream]:
    """Tokenize a (context, horizon) pair of contiguous windows.

    Both windows are scaled with the context statistics and decomposed
    independently; the horizon stream carries the context scale for
    inversion.
    """
    scale = compute_scale(context)
    return tokenize(context, scale, config, codebook), tokenize(horizon, scale, config, codebook)


def detokenize(stream: TokenStream, length: int, config: TokenizerConfig,
               codebook: Codebook) -> np.ndarray:
    """Invert a token stream back to a real-valued window of ``length``
    steps, or a stack of streams to one window per row.

    The band layout follows from ``config`` and ``length``; a stream whose
    token count differs from it is refused. PAD tokens contribute zero
    coefficients, so an all-PAD stream inverts to the constant context
    mean.
    """
    layout = config.layout(length)
    if stream.tokens.shape[-1] != sum(layout):
        raise ValueError(f"{stream.tokens.shape[-1]} tokens do not match the layout "
                         f"{layout} of a length-{length} window")
    parts = np.split(dequantize(stream.tokens, codebook), np.cumsum(layout)[:-1], axis=-1)
    z = reconstruct(CoefficientPyramid(parts[0], tuple(parts[1:])), config.wavelet, length,
                    config.boundary_mode)
    sigma, mu = np.asarray(stream.scale.sigma), np.asarray(stream.scale.mu)
    return z * sigma[..., None] + mu[..., None]


def pad_to_length(values: np.ndarray, length: int) -> np.ndarray:
    """Left-pad a short window with missing values to a fixed length."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) >= length:
        return values[-length:].copy()
    out = np.full(length, np.nan)
    out[length - len(values) :] = values
    return out
