"""Detail-coefficient thresholding schemes.

Approximation coefficients always pass through untouched; only the detail
bands are shrunk or zeroed. Four methods are available:

* ``none``: identity.
* ``cdf``: per level, zero the smallest-magnitude fraction of
  coefficients; the fraction grows toward finer levels.
* ``visu_soft`` / ``visu_hard``: universal threshold
  ``lambda = sigma * sqrt(2 ln N)`` with ``sigma`` estimated from the
  finest detail band, applied as soft or hard thresholding to all bands.
* ``fdrc``: data-adaptive threshold chosen by a Benjamini-Hochberg step-up
  test on the two-sided Gaussian p-values of all detail coefficients
  pooled, then applied as hard thresholding to every band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr

from .dwt import CoefficientPyramid

METHODS = ("none", "cdf", "visu_soft", "visu_hard", "fdrc")
SIGMA_ESTIMATORS = ("mad_finest", "std_finest")

# P(|Z| <= 0.6745) = 0.5 for Z ~ N(0,1); rescales the median absolute value
# of Gaussian noise to its standard deviation.
_MAD_TO_SIGMA = 0.6744897501960817


@dataclass(frozen=True)
class ThresholdSpec:
    """Selected thresholding method and its parameters.

    ``b`` is the base of the per-level cutoff fraction for ``cdf``;
    ``q`` the false-discovery level for ``fdrc``; both must lie strictly
    inside (0, 1) when their method is selected. ``fdrc`` runs one
    step-up test on all detail bands pooled together.
    """

    method: str = "none"
    b: float = 0.5
    q: float = 0.05
    sigma_estimator: str = "mad_finest"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown threshold method {self.method!r}; expected one of {METHODS}")
        if self.sigma_estimator not in SIGMA_ESTIMATORS:
            raise ValueError(
                f"unknown sigma estimator {self.sigma_estimator!r}; "
                f"expected one of {SIGMA_ESTIMATORS}"
            )
        if self.method == "cdf" and not 0.0 < self.b < 1.0:
            raise ValueError(f"cdf cutoff base must be in (0, 1), got {self.b}")
        if self.method == "fdrc" and not 0.0 < self.q < 1.0:
            raise ValueError(f"fdrc error level must be in (0, 1), got {self.q}")


def estimate_sigma(finest_details: np.ndarray, estimator: str = "mad_finest") -> float:
    """Noise scale estimate from the finest detail band.

    ``mad_finest`` is the robust median-absolute-value estimator (median of
    the magnitudes about zero, divided by 0.6745); ``std_finest`` is the
    plain standard deviation.
    """
    d = np.asarray(finest_details, dtype=np.float64)
    if d.size == 0:
        raise ValueError("cannot estimate noise scale from an empty detail band")
    if estimator == "mad_finest":
        return float(np.median(np.abs(d)) / _MAD_TO_SIGMA)
    if estimator == "std_finest":
        return float(np.std(d))
    raise ValueError(f"unknown sigma estimator {estimator!r}")


def visu_lambda(finest_details: np.ndarray, n_coefficients: int, estimator: str = "mad_finest") -> float:
    """Universal threshold ``sigma_hat * sqrt(2 ln N)``.

    ``n_coefficients`` is the total coefficient count of the pyramid being
    thresholded.
    """
    if n_coefficients < 2:
        raise ValueError(f"need at least 2 coefficients, got {n_coefficients}")
    sigma = estimate_sigma(finest_details, estimator)
    return sigma * math.sqrt(2.0 * math.log(n_coefficients))


def soft_threshold(values: np.ndarray, lam: float) -> np.ndarray:
    """Shrink magnitudes by ``lam``, clamping at zero."""
    return np.sign(values) * np.maximum(np.abs(values) - lam, 0.0)


def hard_threshold(values: np.ndarray, lam: float) -> np.ndarray:
    """Zero entries with magnitude strictly below ``lam``."""
    return np.where(np.abs(values) >= lam, values, 0.0)


def cdf_cutoff_fraction(j: int, level: int, b: float) -> float:
    """Fraction of a level-``j`` detail band to zero (``j = 1`` is finest).

    ``b ** j`` makes pruning most aggressive at the finest level and decay
    exponentially toward coarser ones.
    """
    if not 1 <= j <= level:
        raise ValueError(f"level index {j} outside 1..{level}")
    return b**j


def cdf_threshold(details: np.ndarray, j: int, level: int, b: float) -> np.ndarray:
    """Zero the smallest-magnitude ``cdf_cutoff_fraction(j)`` of a band.

    Rank-based: exactly ``floor(fraction * m)`` coefficients are zeroed
    (ties broken by position), so the ``b -> 0`` limit leaves the band
    untouched. Survivors keep their values and order.
    """
    if not 0.0 < b < 1.0:
        raise ValueError(f"cutoff base must be in (0, 1), got {b}")
    d = np.asarray(details, dtype=np.float64)
    n_zero = int(cdf_cutoff_fraction(j, level, b) * d.size)
    if n_zero == 0:
        return d.copy()
    order = np.argsort(np.abs(d), kind="stable")
    out = d.copy()
    out[order[:n_zero]] = 0.0
    return out


def fdrc_lambda(details: np.ndarray, sigma: float, q: float) -> tuple[float, int]:
    """Step-up threshold selection on pooled detail coefficients.

    Two-sided p-values ``p_k = 2 (1 - Phi(|d_k| / sigma))`` are sorted
    ascending and the largest index ``i0`` with ``p_(i0) <= (i0 / m) q``
    is located. The returned threshold is the magnitude of the ``i0``-th
    largest coefficient (equivalently ``sigma * PhiInv(1 - p_(i0) / 2)``,
    evaluated without the round trip through the tails for stability).
    Returns ``(lambda, i0)``; with no qualifying index, ``(inf, 0)`` so
    that hard thresholding zeroes every coefficient.
    """
    if sigma <= 0:
        raise ValueError(f"noise scale must be positive, got {sigma}")
    if not 0.0 < q < 1.0:
        raise ValueError(f"error level must be in (0, 1), got {q}")
    d = np.asarray(details, dtype=np.float64)
    m = d.size
    if m == 0:
        return math.inf, 0
    magnitudes = np.sort(np.abs(d))[::-1]  # descending; p-values ascending
    p_sorted = 2.0 * ndtr(-magnitudes / sigma)
    qualifies = p_sorted <= q * np.arange(1, m + 1) / m
    if not np.any(qualifies):
        return math.inf, 0
    i0 = int(np.max(np.nonzero(qualifies)[0])) + 1
    return float(magnitudes[i0 - 1]), i0


def apply_threshold(pyramid: CoefficientPyramid, spec: ThresholdSpec) -> CoefficientPyramid:
    """Threshold the detail bands of a pyramid; the approximation band is
    returned bit-identical. The output pyramid is shape-identical to the
    input."""
    if spec.method == "none":
        return replace(
            pyramid,
            approx=pyramid.approx.copy(),
            details=tuple(d.copy() for d in pyramid.details),
        )

    level = pyramid.level
    # details are stored coarsest-first: index i holds level j = level - i
    if spec.method == "cdf":
        new_details = tuple(
            cdf_threshold(d, level - i, level, spec.b) for i, d in enumerate(pyramid.details)
        )
    elif spec.method in ("visu_soft", "visu_hard"):
        finest = pyramid.details[-1]
        lam = visu_lambda(finest, pyramid.total_coefficients, spec.sigma_estimator)
        shrink = soft_threshold if spec.method == "visu_soft" else hard_threshold
        new_details = tuple(shrink(d, lam) for d in pyramid.details)
    else:  # fdrc
        sigma = estimate_sigma(pyramid.details[-1], spec.sigma_estimator)
        if sigma == 0.0:
            # Noise-free band: nothing can be attributed to noise.
            new_details = tuple(d.copy() for d in pyramid.details)
        else:
            pooled = np.concatenate(pyramid.details)
            lam, _ = fdrc_lambda(pooled, sigma, spec.q)
            new_details = tuple(hard_threshold(d, lam) for d in pyramid.details)
    return replace(pyramid, approx=pyramid.approx.copy(), details=new_details)
