"""Synthetic series generators and the training corpus.

The generator kinds cover the pattern families the pipeline should handle
well (exponential trends, sparse spikes, frequency content that switches
over time) plus the two training augmentations: convex mixtures of
generated series and draws from Gaussian processes with randomly combined
kernels. A spec sets only a kind, a length and a seed: each kind's shape
constants are fixed, and it draws the rest (spike positions, segment cuts,
kernels, mixture components) from the seed's stream. :func:`generate` is
deterministic under the spec's seed, and :func:`make_dataset` builds a
corpus of the two augmentations, a ``TSMIXUP_SHARE`` of mixtures in
expectation, that is deterministic under its own seed, for one BLAS thread
count. A Gaussian-process draw goes through ``np.linalg.cholesky``, whose
last bits depend on how many threads the BLAS library runs:
``make_dataset(128, seed=0)`` differs in 68 of its 128 series, by up to
2.3e-7, between ``OPENBLAS_NUM_THREADS=1`` and ``2``.

The stationary GP kernels (rbf, periodic) and their sums and products are
evaluated once per distinct lag ``t_i - t_j`` and expanded to the pair
matrix only for the Cholesky factorization, or where a linear kernel joins
them. The covariances, and so every draw, are bit-identical to evaluating
the same formulas on the dense lag matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from datetime import datetime

import numpy as np

from .data_io import Dataset, TimeSeries

KINDS = ("trend_exp", "sparse_spikes", "multi_freq_switch", "gp_kernel_mix", "tsmixup")
TSMIXUP_SHARE = 0.9  # probability that a corpus series is tsmixup, else gp_kernel_mix

_EPOCH = datetime(2020, 1, 1)
_FREQ = "h"  # every synthetic series is hourly


@dataclass(frozen=True)
class GeneratorSpec:
    """One synthetic series: a kind, a length and an RNG seed."""

    kind: str
    length: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}; expected one of {KINDS}")
        if self.length < 2:
            raise ValueError(f"series length must be at least 2, got {self.length}")


def _trend_exp(spec: GeneratorSpec, rng: np.random.Generator) -> np.ndarray:
    t = np.linspace(0.0, 1.0, spec.length)
    return np.exp(3.0 * t)


def _sparse_spikes(spec: GeneratorSpec, rng: np.random.Generator) -> np.ndarray:
    y = np.zeros(spec.length)
    hits = rng.random(spec.length) < 0.02
    n_hits = int(hits.sum())
    if n_hits:
        heights = rng.uniform(3.0, 10.0, n_hits) * rng.choice([-1.0, 1.0], n_hits)
        y[hits] += heights
    return y


def _multi_freq_switch(spec: GeneratorSpec, rng: np.random.Generator) -> np.ndarray:
    n_segments, n_freqs = 3, 2
    if n_segments > spec.length:
        raise ValueError(f"n_segments={n_segments} exceeds the series length {spec.length}")
    cuts = np.sort(rng.choice(np.arange(1, spec.length), size=n_segments - 1, replace=False))
    bounds = np.concatenate([[0], cuts, [spec.length]])
    t = np.arange(spec.length, dtype=np.float64)
    y = np.zeros(spec.length)
    for s0, s1 in zip(bounds[:-1], bounds[1:]):
        freqs = rng.uniform(2.0, 24.0, n_freqs) / spec.length
        phases = rng.uniform(0.0, 2.0 * np.pi, n_freqs)
        seg = sum(np.sin(2.0 * np.pi * f * t[s0:s1] + p) for f, p in zip(freqs, phases))
        y[s0:s1] = seg / n_freqs
    return y


_LAG_BLOCK = 64


def _distinct(x: np.ndarray) -> np.ndarray:
    """Sorted distinct values of ``x``. ``np.unique`` would take its
    hash-set path for floats, which adds about 1.2 MB to the process's peak
    resident memory; a sort does not."""
    x = np.sort(x, axis=None)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


@functools.lru_cache(maxsize=8)
def _lags(length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The grid ``t`` of ``length`` points on [0, 1], its sorted distinct
    lags, and each pair's index into them: ``lags[where]`` equals
    ``t[:, None] - t[None, :]`` exactly.

    A stationary kernel depends only on the lag, and a grid has far fewer
    distinct lags than pairs (3,915 of 331,776 at 576 points). So a kernel
    evaluated per distinct lag and expanded through ``where`` applies the
    same operations to the same doubles as the dense formula, and is
    bit-identical to it. ``where`` has the smallest unsigned dtype that
    holds the indices (``uint16``, 0.66 MB, at 576 points); it is built in
    blocks of rows, so no full-size float or ``int64`` temporary exists.
    Building it takes about 25 ms at 576 points, once per process and length.
    The arrays are shared by every caller and read-only.
    """
    t = np.linspace(0.0, 1.0, length)
    blocks = range(0, length, _LAG_BLOCK)
    lags = _distinct(np.concatenate([_distinct(t[i:i + _LAG_BLOCK, None] - t) for i in blocks]))
    where = np.empty((length, length), dtype=np.min_scalar_type(lags.size - 1))
    for i in blocks:
        where[i:i + _LAG_BLOCK] = np.searchsorted(lags, t[i:i + _LAG_BLOCK, None] - t)
    for array in (t, lags, where):
        array.setflags(write=False)
    return t, lags, where


def _gp_kernel_mix(spec: GeneratorSpec, rng: np.random.Generator) -> np.ndarray:
    n_kernels = int(rng.integers(1, 4))
    t, lags, where = _lags(spec.length)

    def draw_kernel() -> np.ndarray:
        """A kernel per distinct lag (1-D) if stationary, else per pair (2-D)."""
        name = rng.choice(["rbf", "periodic", "linear"])
        if name == "rbf":
            scale = rng.uniform(0.05, 0.5)
            return np.exp(-0.5 * (lags / scale) ** 2)
        if name == "periodic":
            period = rng.uniform(0.1, 0.5)
            scale = rng.uniform(0.5, 2.0)
            return np.exp(-2.0 * np.sin(np.pi * np.abs(lags) / period) ** 2 / scale**2)
        center = rng.uniform(0.0, 1.0)
        return (t[:, None] - center) * (t[None, :] - center)

    cov = draw_kernel()
    for _ in range(n_kernels - 1):
        op = np.add if rng.random() < 0.5 else np.multiply
        kernel = draw_kernel()
        if cov.ndim < kernel.ndim:
            cov = cov[where]
        elif kernel.ndim < cov.ndim:
            kernel = kernel[where]
        op(cov, kernel, out=cov)
    if cov.ndim == 1:
        cov = cov[where]
    cov.flat[::spec.length + 1] += 1e-8
    chol = np.linalg.cholesky(cov)
    return chol @ rng.standard_normal(spec.length)


def _tsmixup(spec: GeneratorSpec, rng: np.random.Generator) -> np.ndarray:
    n_parts = int(rng.integers(1, 4))
    base_kinds = [k for k in KINDS if k != "tsmixup"]
    components = [GeneratorSpec(kind=str(rng.choice(base_kinds)), length=spec.length,
                                seed=int(rng.integers(0, 2**63)))
                  for _ in range(n_parts)]
    weights = rng.dirichlet(np.ones(len(components)))
    stacked = np.stack([generate(c).values for c in components])
    return weights @ stacked


_GENERATORS = {
    "trend_exp": _trend_exp,
    "sparse_spikes": _sparse_spikes,
    "multi_freq_switch": _multi_freq_switch,
    "gp_kernel_mix": _gp_kernel_mix,
    "tsmixup": _tsmixup,
}


def generate(spec: GeneratorSpec) -> TimeSeries:
    """Materialize one series; identical specs yield identical series under
    one BLAS thread count (see the module docstring)."""
    rng = np.random.default_rng(spec.seed)
    return TimeSeries(
        item_id=f"{spec.kind}-{spec.seed}",
        start=_EPOCH,
        values=_GENERATORS[spec.kind](spec, rng),
    )


def make_dataset(
    n_series: int,
    context_length: int = 512,
    horizon: int = 64,
    seed: int = 0,
) -> Dataset:
    """Synthetic hourly corpus of full-length series (context plus
    horizon), suitable for the file formats and the held-out-tail split.

    Each series is ``tsmixup`` with probability ``TSMIXUP_SHARE`` and
    ``gp_kernel_mix`` otherwise, drawn from a picker stream seeded by
    ``seed``. Series ``i`` is generated at length
    ``context_length + horizon`` from the seed of the ``i``-th child of
    ``SeedSequence(seed)``.

    The corpus is deterministic under ``seed`` only for one BLAS thread
    count: the Cholesky factor of a Gaussian-process draw changes in its
    last bits with it, so ``make_dataset(128, seed=0)`` hashes differently
    under ``OPENBLAS_NUM_THREADS=1`` and ``2``.
    """
    if n_series < 1:
        raise ValueError(f"need at least one series, got {n_series}")
    picker = np.random.default_rng(np.random.SeedSequence(seed).generate_state(1)[0])
    kinds = ["tsmixup" if picker.random() < TSMIXUP_SHARE else "gp_kernel_mix"
             for _ in range(n_series)]
    children = np.random.SeedSequence(seed).spawn(n_series)
    series = []
    for i, (kind, child) in enumerate(zip(kinds, children)):
        spec = GeneratorSpec(kind=kind, length=context_length + horizon,
                             seed=int(child.generate_state(1)[0]))
        series.append(replace(generate(spec), item_id=f"synth-{i:05d}"))
    return Dataset(series=series, freq=_FREQ)
