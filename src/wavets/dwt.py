"""Single- and multi-level decimated wavelet transform and its inverse.

All filtering is one kernel of ``L`` strided multiply-adds,
:func:`_strided_filter`. In analysis, output ``k`` of a band is
``sum_m taps[m] * x[2k + 1 - m]``, read from the signal extended past both
ends by one index gather (:func:`_extend`); the tokenizer runs the same on
its missing-value mask. Synthesis convolves the zero-stuffed bands with
the reconstruction filters and removes the ``L - 2`` leading samples. The
boundary modes are those of PyWavelets' signal extension:

* ``"symmetric"`` (default): half-sample reflection, ``x[-1 - i] = x[i]``.
  Each level of an input of length ``n`` yields ``(n + L - 1) // 2``
  coefficients per band, so the coefficient count can slightly exceed the
  signal length. Synthesis crops.
* ``"periodization"``: an odd-length input first repeats its last sample,
  then the signal wraps around. Each level yields ``ceil(n / 2)``
  coefficients per band, giving exact-length layouts, and the transform
  of an orthogonal family is an orthonormal map for even lengths.
  Synthesis folds the overhang back circularly.

The cascade halves the work per level, so runtime is linear in ``n``.

Analysis, the kernel and synthesis all work on the last axis, so
:func:`decompose` transforms a stack of signals of shape ``(..., n)`` and
:func:`reconstruct` inverts a stack of pyramids (bands of shape
``(..., n_band)``) in one call, each row bit-identical to its own
transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .families import WaveletFamily

BOUNDARY_MODES = ("symmetric", "periodization")


@dataclass(frozen=True)
class CoefficientPyramid:
    """Multi-level transform output: approximation plus per-level details.

    ``details`` is ordered coarsest-first, matching the coarse-to-fine
    token layout used downstream; the level is their count.
    """

    approx: np.ndarray
    details: tuple[np.ndarray, ...]


def _check_mode(mode: str) -> str:
    if mode not in BOUNDARY_MODES:
        raise ValueError(f"unknown boundary mode {mode!r}; expected one of {BOUNDARY_MODES}")
    return mode


def _band_length(n: int, filt_len: int, mode: str) -> int:
    """Coefficients per band after one analysis level of ``n`` samples."""
    return (n + filt_len - 1) // 2 if mode == "symmetric" else (n + 1) // 2


def _extend(x: np.ndarray, filt_len: int, mode: str) -> np.ndarray:
    """Samples ``2 - L`` to ``2 * _band_length(n, L, mode) - 1`` of the
    mode's boundary extension of ``x`` along its last axis: the input of
    :func:`_strided_filter`."""
    n = x.shape[-1]
    idx = np.arange(2 - filt_len, 2 * _band_length(n, filt_len, mode))
    if mode == "symmetric":
        idx %= 2 * n
        idx = np.where(idx < n, idx, 2 * n - 1 - idx)
    else:
        idx = np.minimum(idx % (n + n % 2), n - 1)
    return x[..., idx]


def _strided_filter(extended: np.ndarray, taps: np.ndarray, step: int = 2) -> np.ndarray:
    """The one filtering kernel: output ``k`` is
    ``sum_m taps[m] * extended[..., step * k + L - 1 - m]``, summed in tap
    order by ``L`` strided multiply-adds along the last axis.

    For analysis, ``extended = _extend(x, L, mode)`` and ``step = 2``, so
    output ``k`` is ``sum_m taps[m] * x[2k + 1 - m]`` with the boundary
    samples taken from the mode's extension. ``step = 1`` on a zero-padded
    signal is its full convolution with ``taps``.
    """
    filt_len = len(taps)
    span = extended.shape[-1] - filt_len + 1  # offsets at which a whole filter fits
    out = taps[0] * extended[..., filt_len - 1 : filt_len - 1 + span : step]
    for m in range(1, filt_len):
        start = filt_len - 1 - m
        out += taps[m] * extended[..., start : start + span : step]
    return out


def _synthesis_step(
    approx: np.ndarray,
    detail: np.ndarray,
    family: WaveletFamily,
    target_len: int,
    mode: str,
) -> np.ndarray:
    """Inverse of one analysis step along the last axis; yields
    ``target_len`` samples.

    Upsamples both bands, convolves them with the reconstruction filters
    and drops the ``L - 2`` leading samples: by cropping for
    ``"symmetric"``, by folding the overhang back circularly for
    ``"periodization"``. The fold adds each output's samples in index
    order, starting from zero, as ``np.bincount`` does.
    """
    filt_len = family.filter_length
    period = 2 * approx.shape[-1]
    # zero-stuffed, L - 1 zeros each side
    up = np.zeros((2, *approx.shape[:-1], period + 2 * filt_len - 2))
    up[..., filt_len - 1 : filt_len - 1 + period : 2] = approx, detail
    full = _strided_filter(up[0], family.rec_lo, 1) + _strided_filter(up[1], family.rec_hi, 1)
    shift = filt_len - 2
    if mode == "symmetric":
        return full[..., shift : shift + target_len]
    folded = np.zeros((*full.shape[:-1], period))
    np.add.at(folded, (..., (np.arange(full.shape[-1]) - shift) % period), full)
    return folded[..., :target_len]


def max_level(n: int, family: WaveletFamily) -> int:
    """Largest decomposition level accepted for an input of length ``n``,
    in either boundary mode.

    Uses the standard toolbox rule ``floor(log2(n / (L - 1)))``: below it
    every cascade stage is longer than the filter, above it boundary
    handling dominates the coefficients.
    """
    step = max(family.filter_length - 1, 1)
    if n < step:
        return 0
    return max((int(n) // step).bit_length() - 1, 0)


def decompose(
    x: np.ndarray,
    family: WaveletFamily,
    level: int,
    boundary_mode: str = "symmetric",
) -> CoefficientPyramid:
    """Cascade decomposition of ``x`` down to ``level`` stages, along its
    last axis.

    Each stage re-decomposes the previous approximation band; the result
    holds the final approximation plus all detail bands, coarsest first.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("input signal contains non-finite values")
    coefficient_layout(x.shape[-1], family, level, boundary_mode)  # validates mode and level

    details: list[np.ndarray] = []
    approx = x
    for _ in range(level):
        extended = _extend(approx, family.filter_length, boundary_mode)
        approx = _strided_filter(extended, family.dec_lo)
        details.append(_strided_filter(extended, family.dec_hi))
    details.reverse()
    return CoefficientPyramid(approx=approx, details=tuple(details))


def reconstruct(pyramid: CoefficientPyramid, family: WaveletFamily, length: int,
                boundary_mode: str) -> np.ndarray:
    """Invert :func:`decompose` of a length-``length`` signal under
    ``boundary_mode``; returns ``length`` samples along the last axis of
    the bands. The bands must have the sizes of
    :func:`coefficient_layout`, which the caller checks (as
    :func:`~wavets.tokenizer.detokenize` does): each stage yields the next
    band's size. A stage whose bands the analysis of its target length
    would not yield is refused."""
    _check_mode(boundary_mode)
    current = pyramid.approx
    targets = [detail.shape[-1] for detail in pyramid.details[1:]] + [length]
    for detail, target in zip(pyramid.details, targets):
        sizes = (current.shape[-1], detail.shape[-1])
        if sizes != (_band_length(target, family.filter_length, boundary_mode),) * 2:
            raise ValueError(
                f"length-inconsistent pyramid: bands of {sizes[0]} and {sizes[1]} "
                f"coefficients cannot make {target} samples"
            )
        current = _synthesis_step(current, detail, family, target, boundary_mode)
    return current


def coefficient_layout(
    n: int,
    family: WaveletFamily,
    level: int,
    boundary_mode: str = "symmetric",
) -> list[int]:
    """Per-band coefficient counts ``[a_level, d_level, ..., d_1]``.

    Agrees exactly with the shapes :func:`decompose` produces, without
    computing any transform.
    """
    mode = _check_mode(boundary_mode)
    if not isinstance(level, (int, np.integer)) or level < 1:
        raise ValueError(f"decomposition level must be a positive integer, got {level!r}")
    allowed = max_level(n, family)
    if level > allowed:
        raise ValueError(
            f"signal of length {n} is too short for level {level} with "
            f"family {family.name!r} (max level {allowed})"
        )
    lengths = [n]  # signal length at each cascade stage
    for _ in range(level):
        lengths.append(_band_length(lengths[-1], family.filter_length, mode))
    return [lengths[-1]] + lengths[:0:-1]
