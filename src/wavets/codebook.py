"""Quantization codebook: fitting, token/value mapping and persistence.

The vocabulary consists of ``B`` value tokens (one per bin center) plus the
two special tokens ``PAD`` (missing value) and ``EOS`` (end of sequence).
Token ids are laid out as ``pad = 0``, ``eos = 1``, value tokens from 2, so
the special ids never depend on ``B``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import SchemaError

_FORMAT = "wavets.codebook"
_VERSION = 1

PAD_ID = 0
EOS_ID = 1
VALUE_OFFSET = 2


@dataclass(frozen=True)
class Codebook:
    """Sorted bin centers with interleaved edges and clipping bounds."""

    centers: np.ndarray
    edges: np.ndarray
    bounds: tuple[float, float]
    pad_id: int = PAD_ID
    eos_id: int = EOS_ID
    value_offset: int = VALUE_OFFSET

    def __post_init__(self):
        object.__setattr__(self, "centers", np.asarray(self.centers, dtype=np.float64))
        object.__setattr__(self, "edges", np.asarray(self.edges, dtype=np.float64))
        object.__setattr__(self, "bounds", (float(self.bounds[0]), float(self.bounds[1])))
        self.validate()

    def validate(self):
        c, e = self.centers, self.edges
        if len(c) < 3 or len(c) % 2 == 0:
            raise ValueError(f"need an odd number of centers >= 3, got {len(c)}")
        if len(e) != len(c) - 1:
            raise ValueError(f"expected {len(c) - 1} edges for {len(c)} centers, got {len(e)}")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(e))):
            raise ValueError("centers and edges must be finite")
        if np.any(np.diff(c) <= 0):
            raise ValueError("centers must be strictly increasing")
        if np.any(e <= c[:-1]) or np.any(e >= c[1:]):
            raise ValueError("edges must strictly interleave centers")
        if not np.any(c == 0.0):
            raise ValueError("one center must be exactly 0")
        lo, hi = self.bounds
        if not (lo <= c[0] and c[-1] <= hi):
            raise ValueError(f"centers [{c[0]}, {c[-1]}] exceed bounds ({lo}, {hi})")
        ids = {self.pad_id, self.eos_id}
        if len(ids) != 2 or max(ids) >= self.value_offset:
            raise ValueError("special token ids must be distinct and below value_offset")

    @property
    def n_bins(self) -> int:
        return len(self.centers)

    @property
    def vocab_size(self) -> int:
        return len(self.centers) + 2

    @property
    def bin_width(self) -> float:
        """Largest center spacing; equals the uniform width for FD codebooks."""
        return float(np.max(np.diff(self.centers)))


def fit_codebook(
    sample: np.ndarray,
    vocab_budget: int,
    bounds: tuple[float, float] = (-30.0, 30.0),
) -> Codebook:
    """Fit a codebook to a sample of (scaled) wavelet coefficients.

    Bins use the Freedman-Diaconis width ``2 IQR n^(-1/3)``, widened if
    necessary so that the value-token count stays within
    ``vocab_budget - 2``. Bins tile symmetrically about a center bin at
    exactly 0 and are clipped to ``bounds``.
    """
    sample = np.asarray(sample, dtype=np.float64).ravel()
    sample = sample[np.isfinite(sample)]
    if sample.size == 0:
        raise ValueError("cannot fit a codebook to an empty sample")
    if vocab_budget < 5:
        raise ValueError(f"vocabulary budget must be at least 5, got {vocab_budget}")
    lo, hi = float(bounds[0]), float(bounds[1])
    if not lo < 0.0 < hi:
        raise ValueError(f"bounds must straddle 0, got ({lo}, {hi})")

    q75, q25 = np.percentile(sample, [75.0, 25.0])
    fd_width = 2.0 * (q75 - q25) * sample.size ** (-1.0 / 3.0)
    floor_width = (hi - lo) / (vocab_budget - 2)
    width = max(fd_width, floor_width)
    half_budget = (vocab_budget - 3) // 2
    k = min(int(-lo / width), int(hi / width), half_budget)
    if k < 1:
        k = 1
        width = min(-lo, hi)
    centers = width * np.arange(-k, k + 1, dtype=np.float64)
    edges = (centers[:-1] + centers[1:]) / 2.0
    return Codebook(centers=centers, edges=edges, bounds=(lo, hi))


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
    tokens = codebook.value_offset + np.searchsorted(codebook.edges, safe, side="right")
    return np.where(missing, codebook.pad_id, tokens).astype(np.int64)


def dequantize(tokens: np.ndarray, codebook: Codebook) -> tuple[np.ndarray, np.ndarray]:
    """Map an array of token ids back to bin centers.

    Returns ``(values, missing)``: PAD tokens yield value 0.0 with the
    missing flag set. EOS or out-of-vocabulary ids are errors.
    """
    arr = np.asarray(tokens, dtype=np.int64)
    if np.any(arr == codebook.eos_id):
        raise ValueError("cannot dequantize the EOS token")
    bad = (arr < 0) | (arr >= codebook.vocab_size)
    if np.any(bad):
        raise ValueError(f"token id(s) {np.unique(arr[bad])!r} outside the vocabulary")
    missing = arr == codebook.pad_id
    idx = np.where(missing, 0, arr - codebook.value_offset)
    values = np.where(missing, 0.0, codebook.centers[idx])
    return values, missing


def _to_payload(codebook: Codebook) -> dict:
    return {
        "format": _FORMAT,
        "version": _VERSION,
        "centers": codebook.centers.tolist(),
        "edges": codebook.edges.tolist(),
        "bounds": list(codebook.bounds),
        "pad_id": codebook.pad_id,
        "eos_id": codebook.eos_id,
        "value_offset": codebook.value_offset,
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
    required = ("centers", "edges", "bounds", "pad_id", "eos_id", "value_offset")
    missing = [key for key in required if key not in payload]
    if missing:
        raise SchemaError(f"codebook file {path} is missing fields: {missing}")
    # invariant violations (e.g. non-monotone centers) surface as ValueError
    return Codebook(
        centers=np.array(payload["centers"], dtype=np.float64),
        edges=np.array(payload["edges"], dtype=np.float64),
        bounds=tuple(payload["bounds"]),
        pad_id=int(payload["pad_id"]),
        eos_id=int(payload["eos_id"]),
        value_offset=int(payload["value_offset"]),
    )
