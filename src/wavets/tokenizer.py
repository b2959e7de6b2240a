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
:func:`compute_scale` scales a stack of windows in one call,
:func:`tokenize` turns the stack into one stream and :func:`detokenize`
inverts every row of a stream, each row bit-identical to its own call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .codebook import Codebook, dequantize, quantize
from .dwt import CoefficientPyramid, coefficient_layout, decompose, reconstruct
from .families import WaveletFamily, get_family
from .metrics import observed_groups
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
    """Mean and sample standard deviation over the observed values of a
    window, as floats, or of each row of an ``(N, n)`` stack, as arrays.

    NaN marks missing observations. A zero spread (or a single observed
    value) falls back to sigma = 1 so constant windows scale to all zeros;
    a window with no observed value, or whose mean or deviation overflows,
    is refused, and a stack holding one such row with the same message.
    Rows are reduced in groups of equal observed count
    (:func:`~wavets.metrics.observed_groups`), each row as the 1-D array of
    its observed values, so each row's statistics are bit-identical to its
    own call.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    rows = x.reshape(-1, x.shape[-1])
    mu, sigma = np.empty(len(rows)), np.zeros(len(rows))
    with np.errstate(over="ignore", invalid="ignore"):
        for group, n, (values,) in observed_groups(np.isfinite(rows), rows):
            if n == 0:
                raise ValueError("cannot scale a window with no observed values")
            mu[group] = mean = values.sum(axis=1) / n  # as np.mean and np.std(ddof=1) reduce
            if n > 1:
                sigma[group] = np.sqrt(((values - mean[:, None]) ** 2).sum(axis=1) / (n - 1))
    if not (np.isfinite(mu).all() and np.isfinite(sigma).all()):
        raise ValueError("cannot scale a window whose mean or deviation overflows")
    sigma[sigma == 0.0] = 1.0
    if x.ndim == 1:
        return ScaleStats(mu=float(mu[0]), sigma=float(sigma[0]))
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
    ``np.isfinite(windows)`` with an all-ones filter bank.

    A stack with no missing value skips that count: the boundary extension
    only repeats samples, so every count of an all-ones mask is positive
    and no coefficient would be set to NaN."""
    windows = np.asarray(windows, dtype=np.float64)
    mu, sigma = np.asarray(scale.mu)[..., None], np.asarray(scale.sigma)[..., None]
    pyramid = decompose((fill_missing(windows) - mu) / sigma, config.wavelet, config.level,
                        config.boundary_mode)
    if not all(np.isfinite(band).all() for band in (pyramid.approx, *pyramid.details)):
        raise ValueError("wavelet coefficients are not finite")
    pyramid = apply_threshold(pyramid, config.threshold)  # new arrays, so masked in place
    observed = np.isfinite(windows)
    if observed.all():
        return pyramid
    ones = np.ones(config.wavelet.filter_length)
    counts = decompose(observed, WaveletFamily(config.family, ones, ones, ones, ones),
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
