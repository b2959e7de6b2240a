"""Wavelet families as quadruples of FIR filters.

Filter taps follow the convention of the major open-source wavelet
toolboxes: decomposition filters are the time-reversed reconstruction
filters (for orthogonal families), analysis is convolution followed by
dyadic downsampling, and published coefficient tables can be compared
against ``dec_lo``/``dec_hi`` verbatim. The registry ships haar, db2, db4
and bior2.2; their filter-bank properties (low-pass sum, zero-mean
high-pass, orthogonal structure, vanishing moments) and perfect
reconstruction are checked by the test suite, not at run time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import UnknownFamilyError

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class WaveletFamily:
    """FIR filter bank defining one wavelet family.

    ``dec_lo``/``dec_hi`` are the analysis (decomposition) low/high-pass
    filters, ``rec_lo``/``rec_hi`` the synthesis (reconstruction) pair.
    The low-pass filters discretize the scaling function, the high-pass
    filters the wavelet function.
    """

    name: str
    dec_lo: np.ndarray
    dec_hi: np.ndarray
    rec_lo: np.ndarray
    rec_hi: np.ndarray

    def __post_init__(self):
        for attr in ("dec_lo", "dec_hi", "rec_lo", "rec_hi"):
            arr = np.asarray(getattr(self, attr), dtype=np.float64)
            object.__setattr__(self, attr, arr)

    @property
    def filter_length(self) -> int:
        return len(self.dec_lo)


def _orthogonal_family(name, rec_lo):
    """Build an orthogonal family from its scaling (synthesis low-pass) filter.

    The quadrature-mirror relations fix the other three filters:
    ``dec_lo = reverse(rec_lo)``, ``dec_hi[k] = (-1)^(k+1) rec_lo[k]``,
    ``rec_hi = reverse(dec_hi)``.
    """
    rec_lo = np.asarray(rec_lo, dtype=np.float64)
    signs = np.where(np.arange(len(rec_lo)) % 2 == 0, -1.0, 1.0)
    dec_hi = signs * rec_lo
    return WaveletFamily(
        name=name,
        dec_lo=rec_lo[::-1].copy(),
        dec_hi=dec_hi,
        rec_lo=rec_lo,
        rec_hi=dec_hi[::-1].copy(),
    )


def _haar() -> WaveletFamily:
    h = math.sqrt(0.5)
    return _orthogonal_family("haar", [h, h])


def _db2() -> WaveletFamily:
    s3 = math.sqrt(3.0)
    scale = 4.0 * _SQRT2
    rec_lo = [(1.0 + s3) / scale, (3.0 + s3) / scale, (3.0 - s3) / scale, (1.0 - s3) / scale]
    return _orthogonal_family("db2", rec_lo)


def _db4() -> WaveletFamily:
    # Standard published values of the 8-tap scaling filter.
    rec_lo = [
        0.2303778133088965,
        0.7148465705529157,
        0.6308807679298589,
        -0.027983769416859854,
        -0.18703481171909309,
        0.030841381835560764,
        0.0328830116668852,
        -0.010597401785069032,
    ]
    return _orthogonal_family("db4", rec_lo)


def _bior22() -> WaveletFamily:
    # Spline 5/3 filter pair; all taps are rational multiples of sqrt(2).
    s = _SQRT2 / 8.0
    return WaveletFamily(
        name="bior2.2",
        dec_lo=np.array([0.0, -1.0, 2.0, 6.0, 2.0, -1.0]) * s,
        dec_hi=np.array([0.0, 2.0, -4.0, 2.0, 0.0, 0.0]) * s,
        rec_lo=np.array([0.0, 2.0, 4.0, 2.0, 0.0, 0.0]) * s,
        rec_hi=np.array([0.0, 1.0, 2.0, -6.0, 2.0, 1.0]) * s,
    )


_REGISTRY = {
    "haar": _haar,
    "db2": _db2,
    "db4": _db4,
    "bior2.2": _bior22,
}


def available_families() -> list[str]:
    return sorted(_REGISTRY)


def get_family(name: str) -> WaveletFamily:
    """Look up a wavelet family by name (case-insensitive)."""
    key = str(name).lower()
    try:
        return _REGISTRY[key]()
    except KeyError:
        raise UnknownFamilyError(name) from None

