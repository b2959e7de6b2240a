"""Quantization codebook: fitting, token/value mapping and persistence.

The vocabulary consists of ``B`` value tokens (one per bin center) plus the
one special token ``PAD`` (missing value). The token ids are fixed:
``Codebook.PAD_ID = 0`` and value tokens from ``Codebook.VALUE_OFFSET = 1``,
so the PAD id never depends on ``B``. A codebook is its bin width and its
odd bin count ``B``: the centers and edges follow from the two, and every
center lies within ``BOUNDS``, in the units of context-scaled coefficients.
A codebook file (version 3) holds just these two numbers and both ids;
:func:`load_codebook` refuses a file whose ids differ from them, and a file
of another version, such as version 2, which listed every center and edge.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from .exceptions import SchemaError

_FORMAT = "wavets.codebook"
_VERSION = 3
BOUNDS = (-30.0, 30.0)  # the clipping bounds of every fitted codebook


@dataclass(frozen=True)
class Codebook:
    """Uniform bins of width ``bin_width`` tiling symmetrically about a center
    bin at exactly 0: ``n_bins`` centers and the midpoints between them as
    edges, all within ``BOUNDS``."""

    bin_width: float
    n_bins: int

    PAD_ID: ClassVar[int] = 0
    VALUE_OFFSET: ClassVar[int] = 1
    pad_id: ClassVar[int] = PAD_ID  # the lower-case name bench/ reads

    def __post_init__(self):
        n, width = self.n_bins, self.bin_width
        if isinstance(n, bool) or not isinstance(n, int) or n < 3 or n % 2 == 0:
            raise ValueError(f"need an odd number of bins >= 3, got {n!r}")
        if not (isinstance(width, float) and math.isfinite(width) and width > 0):
            raise ValueError(f"bin width must be a finite, positive float, got {width!r}")
        if self.centers[-1] > BOUNDS[1]:  # the centers are symmetric about 0
            raise ValueError(f"outermost center {self.centers[-1]} exceeds the bounds {BOUNDS}")

    @functools.cached_property
    def centers(self) -> np.ndarray:
        k = (self.n_bins - 1) // 2
        return self.bin_width * np.arange(-k, k + 1, dtype=np.float64)

    @functools.cached_property
    def edges(self) -> np.ndarray:
        return (self.centers[:-1] + self.centers[1:]) / 2.0

    @property
    def vocab_size(self) -> int:
        return self.n_bins + self.VALUE_OFFSET


def check_vocab_budget(vocab_budget: int) -> None:
    """Refuse a budget too small for three bins; :func:`fit_codebook`
    keeps at most ``vocab_budget - 2``."""
    if vocab_budget < 5:
        raise ValueError(f"vocabulary budget must be at least 5, got {vocab_budget}")


def fit_codebook(sample: np.ndarray, vocab_budget: int) -> Codebook:
    """Fit a codebook to a sample of (scaled) wavelet coefficients.

    Bins use the Freedman-Diaconis width ``2 IQR n^(-1/3)``, widened if
    necessary so that the value-token count stays within
    ``vocab_budget - 2``. Bins tile symmetrically about a center bin at
    exactly 0 and are clipped to ``BOUNDS``. With PAD the vocabulary is
    ``n_bins + 1`` ids, so at least one id of the budget stays unused.
    """
    sample = np.asarray(sample, dtype=np.float64).ravel()
    sample = sample[np.isfinite(sample)]
    if sample.size == 0:
        raise ValueError("cannot fit a codebook to an empty sample")
    check_vocab_budget(vocab_budget)
    lo, hi = BOUNDS  # symmetric: -lo == hi

    q75, q25 = np.percentile(sample, [75.0, 25.0])
    fd_width = 2.0 * (q75 - q25) * sample.size ** (-1.0 / 3.0)
    width = max(fd_width, (hi - lo) / (vocab_budget - 2))
    k = min(int(hi / width), (vocab_budget - 3) // 2)
    if k < 1:
        k, width = 1, hi
    return Codebook(bin_width=float(width), n_bins=2 * k + 1)


def quantize(values: np.ndarray, codebook: Codebook) -> np.ndarray:
    """Map an array of coefficient values to token ids.

    Out-of-range values clamp to the outermost bins; NaN marks a missing
    value and maps to the PAD token. Any other non-finite input is an
    error.
    """
    arr = np.asarray(values, dtype=np.float64)
    missing = np.isnan(arr)
    if np.any(np.isinf(arr)):
        raise ValueError("cannot quantize infinite values")
    safe = np.where(missing, 0.0, arr)
    tokens = Codebook.VALUE_OFFSET + np.searchsorted(codebook.edges, safe, side="right")
    return np.where(missing, Codebook.PAD_ID, tokens).astype(np.int64)


def check_token_ids(tokens: np.ndarray, codebook: Codebook) -> None:
    """Refuse an integer array holding any id outside the vocabulary."""
    bad = (tokens < 0) | (tokens >= codebook.vocab_size)
    if np.any(bad):
        raise ValueError(f"token id(s) {np.unique(tokens[bad]).tolist()} outside the vocabulary")


def dequantize(tokens: np.ndarray, codebook: Codebook) -> np.ndarray:
    """Map an array of token ids back to bin centers; PAD tokens yield
    0.0. Out-of-vocabulary ids are errors."""
    arr = np.asarray(tokens, dtype=np.int64)
    check_token_ids(arr, codebook)
    missing = arr == Codebook.PAD_ID
    idx = np.where(missing, 0, arr - Codebook.VALUE_OFFSET)
    return np.where(missing, 0.0, codebook.centers[idx])


_SPECIAL_IDS = {"pad_id": Codebook.PAD_ID, "value_offset": Codebook.VALUE_OFFSET}


def _to_payload(codebook: Codebook) -> dict:
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "bin_width": codebook.bin_width,
        "n_bins": codebook.n_bins,
        **_SPECIAL_IDS,
    }


def codebook_hash(codebook: Codebook) -> str:
    """Stable short hash identifying the codebook's exact contents."""
    blob = json.dumps(_to_payload(codebook), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def save_codebook(codebook: Codebook, path) -> None:
    """Write a self-describing, versioned JSON file; floats round-trip
    exactly through their shortest decimal representation."""
    payload = _to_payload(codebook)
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def load_codebook(path) -> Codebook:
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"corrupt codebook file {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
        raise SchemaError(f"{path} is not a codebook file")
    if payload.get("version") != _VERSION:
        raise SchemaError(
            f"codebook version mismatch in {path}: found {payload.get('version')}, "
            f"expected {_VERSION}"
        )
    missing = [key for key in ("bin_width", "n_bins", *_SPECIAL_IDS) if key not in payload]
    if missing:
        raise SchemaError(f"codebook file {path} is missing fields: {missing}")
    other = {key: payload[key] for key, fixed in _SPECIAL_IDS.items() if payload[key] != fixed}
    if other:
        raise SchemaError(f"codebook file {path} has special token ids {other}; the ids are "
                          f"fixed at {_SPECIAL_IDS}")
    # a bin count or width out of range surfaces as ValueError
    return Codebook(bin_width=payload["bin_width"], n_bins=payload["n_bins"])
