"""Detail-coefficient thresholding schemes.

Approximation coefficients always pass through untouched; only the detail
bands are shrunk or zeroed. Four methods are available:

* ``none``: identity.
* ``cdf``: per level ``j`` (1 is finest), zero the smallest-magnitude
  fraction ``CDF_BASE ** j`` of coefficients, so the finest level loses
  the most.
* ``visu_soft`` / ``visu_hard``: universal threshold
  ``lambda = sigma * sqrt(2 ln N)`` with ``sigma`` the median-absolute-value
  estimate from the finest detail band, applied as soft or hard
  thresholding to all bands.
* ``fdrc``: data-adaptive threshold chosen by a Benjamini-Hochberg step-up
  test at false-discovery level ``FDRC_Q`` on the two-sided Gaussian
  p-values of all detail coefficients pooled, run as sorted magnitudes
  against critical values ``-PhiInv(kq/2m)``, then applied as hard
  thresholding to every band.

Every function works along the last axis, so a pyramid whose bands stack
several signals is thresholded row by row in one call: each row gets its
own noise scale and threshold, bit-identical to thresholding it alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np

from .dwt import CoefficientPyramid

METHODS = ("none", "cdf", "visu_soft", "visu_hard", "fdrc")
CDF_BASE = 0.5  # base of the cdf method's per-level cutoff fraction
FDRC_Q = 0.05  # false-discovery level of the fdrc method's step-up test

# P(|Z| <= 0.6745) = 0.5 for Z ~ N(0,1); rescales the median absolute value
# of Gaussian noise to its standard deviation.
_MAD_TO_SIGMA = 0.6744897501960817


@dataclass(frozen=True)
class ThresholdSpec:
    """The selected thresholding method; ``fdrc`` runs one step-up test
    on all detail bands pooled together."""

    method: str = "none"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown threshold method {self.method!r}; expected one of {METHODS}")


def estimate_sigma(finest_details: np.ndarray):
    """Noise scale estimate from the finest detail band, one per row: the
    robust median-absolute-value estimator (median of the magnitudes about
    zero, divided by 0.6745)."""
    d = np.asarray(finest_details, dtype=np.float64)
    if d.shape[-1] == 0:
        raise ValueError("cannot estimate noise scale from an empty detail band")
    return np.median(np.abs(d), axis=-1) / _MAD_TO_SIGMA


def visu_lambda(finest_details: np.ndarray, n_coefficients: int):
    """Universal threshold ``sigma_hat * sqrt(2 ln N)``, one per row.

    ``n_coefficients`` is the total coefficient count of the pyramid being
    thresholded (of one row).
    """
    if n_coefficients < 2:
        raise ValueError(f"need at least 2 coefficients, got {n_coefficients}")
    sigma = estimate_sigma(finest_details)
    return sigma * math.sqrt(2.0 * math.log(n_coefficients))


def soft_threshold(values: np.ndarray, lam) -> np.ndarray:
    """Shrink magnitudes by ``lam`` (one per row), clamping at zero."""
    return np.sign(values) * np.maximum(np.abs(values) - np.asarray(lam)[..., None], 0.0)


def hard_threshold(values: np.ndarray, lam) -> np.ndarray:
    """Zero entries with magnitude strictly below ``lam`` (one per row)."""
    return np.where(np.abs(values) >= np.asarray(lam)[..., None], values, 0.0)


def cdf_cutoff_fraction(j: int, level: int) -> float:
    """Fraction of a level-``j`` detail band to zero (``j = 1`` is finest).

    ``CDF_BASE ** j`` makes pruning most aggressive at the finest level and
    decay exponentially toward coarser ones.
    """
    if not 1 <= j <= level:
        raise ValueError(f"level index {j} outside 1..{level}")
    return CDF_BASE**j


def cdf_threshold(details: np.ndarray, j: int, level: int) -> np.ndarray:
    """Zero the smallest-magnitude ``cdf_cutoff_fraction(j)`` of each row
    of a band.

    Rank-based: exactly ``floor(fraction * m)`` coefficients of a row of
    ``m`` are zeroed (ties broken by position). Survivors keep their
    values and order.
    """
    out = np.array(details, dtype=np.float64)
    n_zero = int(cdf_cutoff_fraction(j, level) * out.shape[-1])
    order = np.argsort(np.abs(out), axis=-1, kind="stable")
    np.put_along_axis(out, order[..., :n_zero], 0.0, axis=-1)
    return out


def fdrc_lambda(details: np.ndarray, sigma):
    """Step-up threshold selection on pooled detail coefficients, per row
    with that row's ``sigma``, at false-discovery level ``q = FDRC_Q``.

    Finds the largest ``i0`` whose two-sided p-value, of the ``i0``-th
    largest magnitude, is at most ``(i0 / m) q``: equivalently, where
    ``|d|_(i0) / sigma`` reaches the critical value ``-PhiInv(i0 q / 2m)``.
    Those values depend only on ``m``, and the lower-tail form
    keeps the precision that ``PhiInv(1 - i0 q / 2m)`` loses by rounding
    ``1 - i0 q / 2m``. Returns ``(lambda, i0)`` with ``lambda`` the
    ``i0``-th largest magnitude; with no qualifying index, ``(inf, 0)`` so
    that hard thresholding zeroes every coefficient.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    if np.any(sigma <= 0):
        raise ValueError(f"noise scale must be positive, got {sigma}")
    d = np.asarray(details, dtype=np.float64)
    m = d.shape[-1]
    magnitudes = np.sort(np.abs(d), axis=-1)[..., ::-1]  # descending; p-values ascending
    critical = [-NormalDist().inv_cdf(FDRC_Q * k / m / 2.0) for k in range(1, m + 1)]
    qualifies = magnitudes / sigma[..., None] >= critical
    # i0: one past the last qualifying index, 0 where none qualifies
    i0 = np.where(qualifies.any(axis=-1), m - np.argmax(qualifies[..., ::-1], axis=-1), 0)
    last = np.take_along_axis(magnitudes, np.maximum(i0 - 1, 0)[..., None], axis=-1)[..., 0]
    return np.where(i0 > 0, last, math.inf), i0


def apply_threshold(pyramid: CoefficientPyramid, spec: ThresholdSpec) -> CoefficientPyramid:
    """Threshold the detail bands of a pyramid, row by row; the
    approximation band is returned bit-identical. The output pyramid is
    shape-identical to the input."""
    level = len(pyramid.details)
    # details are stored coarsest-first: index i holds level j = level - i
    if spec.method == "none":
        new_details = tuple(d.copy() for d in pyramid.details)
    elif spec.method == "cdf":
        new_details = tuple(
            cdf_threshold(d, level - i, level) for i, d in enumerate(pyramid.details)
        )
    elif spec.method in ("visu_soft", "visu_hard"):
        n_coefficients = sum(band.shape[-1] for band in (pyramid.approx, *pyramid.details))
        lam = visu_lambda(pyramid.details[-1], n_coefficients)
        shrink = soft_threshold if spec.method == "visu_soft" else hard_threshold
        new_details = tuple(shrink(d, lam) for d in pyramid.details)
    else:  # fdrc
        sigma = estimate_sigma(pyramid.details[-1])
        # a noise-free row: nothing can be attributed to noise, so threshold 0 keeps it
        noise_free = sigma == 0.0
        pooled = np.concatenate(pyramid.details, axis=-1)
        lam, _ = fdrc_lambda(pooled, np.where(noise_free, 1.0, sigma))
        lam = np.where(noise_free, 0.0, lam)
        new_details = tuple(hard_threshold(d, lam) for d in pyramid.details)
    return replace(pyramid, approx=pyramid.approx.copy(), details=new_details)
