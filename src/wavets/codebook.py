"""Quantization codebook: fitting, token/value mapping and persistence.

The vocabulary consists of ``B`` value tokens (one per bin center) plus the
one special token ``PAD`` (missing value). The token ids are fixed:
``Codebook.PAD_ID = 0`` and value tokens from ``Codebook.VALUE_OFFSET = 1``,
so the PAD id never depends on ``B``. A codebook file keeps both ids as
fields, and :func:`load_codebook` refuses a file whose ids differ from them.
:func:`fit_codebook` clips every codebook at ``BOUNDS``, in the units of
context-scaled coefficients.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from .exceptions import SchemaError

_FORMAT = "wavets.codebook"
_VERSION = 2
BOUNDS = (-30.0, 30.0)  # the clipping bounds of every fitted codebook


@dataclass(frozen=True)
class Codebook:
    """Sorted bin centers with interleaved edges and clipping bounds."""

    centers: np.ndarray
    edges: np.ndarray
    bounds: tuple[float, float]

    PAD_ID: ClassVar[int] = 0
    VALUE_OFFSET: ClassVar[int] = 1
    pad_id: ClassVar[int] = PAD_ID  # the lower-case name bench/ reads

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

    @property
    def n_bins(self) -> int:
        return len(self.centers)

    @property
    def vocab_size(self) -> int:
        return len(self.centers) + self.VALUE_OFFSET

    @property
    def bin_width(self) -> float:
        """Largest center spacing; equals the uniform width for FD codebooks."""
        return float(np.max(np.diff(self.centers)))


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
    centers = width * np.arange(-k, k + 1, dtype=np.float64)
    edges = (centers[:-1] + centers[1:]) / 2.0
    return Codebook(centers=centers, edges=edges, bounds=BOUNDS)


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
        "centers": codebook.centers.tolist(),
        "edges": codebook.edges.tolist(),
        "bounds": list(codebook.bounds),
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
    missing = [key for key in ("centers", "edges", "bounds", *_SPECIAL_IDS) if key not in payload]
    if missing:
        raise SchemaError(f"codebook file {path} is missing fields: {missing}")
    other = {key: payload[key] for key, fixed in _SPECIAL_IDS.items() if payload[key] != fixed}
    if other:
        raise SchemaError(f"codebook file {path} has special token ids {other}; the ids are "
                          f"fixed at {_SPECIAL_IDS}")
    # invariant violations (e.g. non-monotone centers) surface as ValueError
    return Codebook(
        centers=np.array(payload["centers"], dtype=np.float64),
        edges=np.array(payload["edges"], dtype=np.float64),
        bounds=tuple(payload["bounds"]),
    )
