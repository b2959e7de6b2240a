"""Synthetic series generators and the training corpus.

The generator kinds cover the pattern families the pipeline should handle
well (exponential trends, sparse spikes, frequency content that switches
over time) plus the two training augmentations: convex mixtures of
generated series and draws from Gaussian processes with randomly combined
kernels. :func:`generate` is deterministic under the spec's seed, and
:func:`make_dataset` builds a corpus of the two augmentations that is
deterministic under its own seed.

The stationary GP kernels (rbf, periodic) and their sums and products are
evaluated once per distinct lag ``t_i - t_j`` and expanded to the pair
matrix only for the Cholesky factorization, or where a linear kernel joins
them. The covariances, and so every draw, are bit-identical to evaluating
the same formulas on the dense lag matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from .data_io import Dataset, TimeSeries

KINDS = ("trend_exp", "sparse_spikes", "multi_freq_switch", "gp_kernel_mix", "tsmixup")

_EPOCH = datetime(2020, 1, 1)


@dataclass(frozen=True)
class GeneratorSpec:
    """One synthetic series: a kind, its parameters and an RNG seed.

    ``noise_level`` adds i.i.d. Gaussian noise of that standard deviation
    on top of the clean pattern.
    """

    kind: str
    length: int
    noise_level: float = 0.0
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}; expected one of {KINDS}")
        if self.length < 2:
            raise ValueError(f"series length must be at least 2, got {self.length}")
        if self.noise_level < 0:
            raise ValueError(f"noise level must be non-negative, got {self.noise_level}")


def _trend_exp(spec: GeneratorSpec, rng: np.random.Generator) -> np.ndarray:
    a = float(spec.params.get("a", 1.0))
    b = float(spec.params.get("b", 3.0))
    t = np.linspace(0.0, 1.0, spec.length)
    return a * np.exp(b * t)


def _sparse_spikes(spec: GeneratorSpec, rng: np.random.Generator) -> np.ndarray:
    baseline = float(spec.params.get("baseline", 0.0))
    rate = float(spec.params.get("rate", 0.02))
    lo, hi = spec.params.get("height_range", (3.0, 10.0))
    y = np.full(spec.length, baseline)
    hits = rng.random(spec.length) < rate
    n_hits = int(hits.sum())
    if n_hits:
        heights = rng.uniform(lo, hi, n_hits) * rng.choice([-1.0, 1.0], n_hits)
        y[hits] += heights
    return y


def _multi_freq_switch(spec: GeneratorSpec, rng: np.random.Generator) -> np.ndarray:
    n_segments = int(spec.params.get("n_segments", 3))
    n_freqs = int(spec.params.get("n_freqs", 2))
    if n_segments < 1 or n_freqs < 1:
        raise ValueError("n_segments and n_freqs must be positive")
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
    n_kernels = int(spec.params.get("n_kernels", rng.integers(1, 4)))
    if n_kernels < 1:
        raise ValueError(f"gp_kernel_mix needs at least one kernel, got n_kernels={n_kernels}")
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
    components = spec.params.get("components")
    if components is None:
        n_parts = int(spec.params.get("n_components", rng.integers(1, 4)))
        base_kinds = [k for k in KINDS if k != "tsmixup"]
        components = [
            GeneratorSpec(
                kind=str(rng.choice(base_kinds)),
                length=spec.length,
                noise_level=0.0,
                seed=int(rng.integers(0, 2**63)),
            )
            for _ in range(n_parts)
        ]
    if not 1 <= len(components) <= 3:
        raise ValueError(f"tsmixup takes 1-3 components, got {len(components)}")
    if any(c.length != spec.length for c in components):
        raise ValueError("tsmixup components must share the mixture's length")
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
    """Materialize one series; identical specs yield identical series."""
    rng = np.random.default_rng(spec.seed)
    values = _GENERATORS[spec.kind](spec, rng)
    if spec.noise_level > 0:
        values = values + spec.noise_level * rng.standard_normal(spec.length)
    return TimeSeries(
        item_id=f"{spec.kind}-{spec.seed}",
        start=_EPOCH,
        freq="h",
        values=values,
    )


def make_dataset(
    n_series: int,
    mix: tuple[float, float] = (0.9, 0.1),
    context_length: int = 512,
    horizon: int = 64,
    seed: int = 0,
    freq: str = "h",
) -> Dataset:
    """Synthetic training corpus of full-length series (context plus
    horizon), suitable for the file formats and the held-out-tail split.

    Each series is ``tsmixup`` with probability ``mix[0]`` and
    ``gp_kernel_mix`` with probability ``mix[1]``, drawn from a picker
    stream seeded by ``seed``. Series ``i`` is generated at length
    ``context_length + horizon`` from the seed of the ``i``-th child of
    ``SeedSequence(seed)``.
    """
    if n_series < 1:
        raise ValueError(f"need at least one series, got {n_series}")
    if any(p < 0 for p in mix):
        raise ValueError(f"mixture probabilities must be non-negative, got {mix}")
    if not np.isclose(sum(mix), 1.0):
        raise ValueError(f"mixture probabilities must sum to 1, got {mix}")
    picker = np.random.default_rng(np.random.SeedSequence(seed).generate_state(1)[0])
    kinds = ["tsmixup" if picker.random() < mix[0] else "gp_kernel_mix" for _ in range(n_series)]
    children = np.random.SeedSequence(seed).spawn(n_series)
    series = []
    for i, (kind, child) in enumerate(zip(kinds, children)):
        spec = GeneratorSpec(kind=kind, length=context_length + horizon,
                             seed=int(child.generate_state(1)[0]))
        series.append(
            TimeSeries(item_id=f"synth-{i:05d}", start=_EPOCH, freq=freq,
                       values=generate(spec).values)
        )
    return Dataset(series=series, freq=freq)
