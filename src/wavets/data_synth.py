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
expectation, that is deterministic under its own seed. No BLAS or LAPACK
routine runs, so the bits do not depend on the host's thread count.

A generator returns a base series and a list of Gaussian-process terms
``(w, r, z)``; the series is ``base + sum(w * x)``, where ``x`` is the
draw ``cholesky(toeplitz(r)) @ z`` of a stationary autocovariance ``r``
from standard normals ``z``. A kernel mix expands to such terms exactly.
On the grid ``t`` of ``[0, 1]``, rbf and periodic kernels are
``(1, kernel(t))`` and the linear kernel ``(t - c)(t' - c)`` is
``(t - c, ones)``. Independent draws add, so ``+`` concatenates the
terms, merging the unweighted ones by adding their ``r``; ``*`` by a
kernel multiplies every term's ``w`` and ``r`` by the kernel's. Three
kernels give at most three terms, each with its own row of ``z``, and
each with the ``1e-8`` jitter at lag 0. Against one jitter on the summed
covariance, that adds ``1e-8 * (sum(w**2) - 1)`` to its diagonal; a
stationary mix, whose terms merge into one, is unchanged.

:func:`_toeplitz_draws` draws every term of a corpus in one batched pass
of the Durbin-Levinson recursion (Levinson 1947; Durbin 1960). It costs
O(n²) elementwise products and row sums per term, builds no ``(n, n)``
matrix, and gives each row the same bits alone as in a batch, so every
corpus series equals :func:`generate` of its spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .data_io import Dataset, TimeSeries

KINDS = ("trend_exp", "sparse_spikes", "multi_freq_switch", "gp_kernel_mix", "tsmixup")
TSMIXUP_SHARE = 0.9  # probability that a corpus series is tsmixup, else gp_kernel_mix

# a base series and its Gaussian-process terms (weight, autocovariance, normals)
_Drawn = tuple[np.ndarray, list[tuple[np.ndarray | float, np.ndarray, np.ndarray]]]

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


def _trend_exp(spec: GeneratorSpec, rng: np.random.Generator) -> _Drawn:
    t = np.linspace(0.0, 1.0, spec.length)
    return np.exp(3.0 * t), []


def _sparse_spikes(spec: GeneratorSpec, rng: np.random.Generator) -> _Drawn:
    y = np.zeros(spec.length)
    hits = rng.random(spec.length) < 0.02
    n_hits = int(hits.sum())
    if n_hits:
        heights = rng.uniform(3.0, 10.0, n_hits) * rng.choice([-1.0, 1.0], n_hits)
        y[hits] += heights
    return y, []


def _multi_freq_switch(spec: GeneratorSpec, rng: np.random.Generator) -> _Drawn:
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
    return y, []


def _toeplitz_draws(r: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``cholesky(toeplitz(r[b])) @ z[b]`` for every row ``b`` of the
    ``(B, n)`` arrays, in the innovations form of the Durbin-Levinson
    recursion: ``x[k] = sum(phi_k[j] * x[k - 1 - j]) + sqrt(v_k) * z[k]``,
    where ``phi_k`` predicts ``x[k]`` from the ``k`` values before it and
    ``v_k`` is that prediction's error variance. Step ``k`` updates
    ``phi`` and ``v`` from step ``k - 1`` alone. Raises ``ValueError``,
    naming the row and the step, where some ``v_k`` is not positive: that
    ``toeplitz(r[b])`` is not positive definite in float64."""
    x = np.empty_like(z)
    phi = np.zeros_like(r)
    v = r[:, 0].copy()
    for k in range(r.shape[1]):
        if k:
            prev = phi[:, :k - 1]
            a = (r[:, k] - (prev * r[:, k - 1:0:-1]).sum(axis=1)) / v
            prev -= a[:, None] * prev[:, ::-1]
            phi[:, k - 1] = a
            v = v * (1.0 - a * a)
        if not np.all(v > 0):
            row = int(np.argmin(v > 0))
            raise ValueError(f"row {row}: innovation variance {v[row]:.3g} at step {k}; "
                             "the Toeplitz covariance is not positive definite")
        x[:, k] = (phi[:, :k] * x[:, :k][:, ::-1]).sum(axis=1) + np.sqrt(v) * z[:, k]
    return x


def _gp_kernel_mix(spec: GeneratorSpec, rng: np.random.Generator) -> _Drawn:
    n_kernels = int(rng.integers(1, 4))
    t = np.linspace(0.0, 1.0, spec.length)

    def draw_kernel() -> tuple[np.ndarray | None, np.ndarray]:
        """A kernel as one term ``(w, r)``; ``w`` is None if stationary."""
        name = rng.choice(["rbf", "periodic", "linear"])
        if name == "rbf":
            scale = rng.uniform(0.05, 0.5)
            return None, np.exp(-0.5 * (t / scale) ** 2)
        if name == "periodic":
            period = rng.uniform(0.1, 0.5)
            scale = rng.uniform(0.5, 2.0)
            return None, np.exp(-2.0 * np.sin(np.pi * t / period) ** 2 / scale**2)
        center = rng.uniform(0.0, 1.0)
        return t - center, np.ones(spec.length)

    terms = [draw_kernel()]  # the unweighted term, if any, comes first
    for _ in range(n_kernels - 1):
        plus = rng.random() < 0.5
        w2, r2 = draw_kernel()
        if not plus:
            terms = [(w2 if w is None else w if w2 is None else w * w2, r * r2) for w, r in terms]
        elif w2 is None and terms[0][0] is None:
            terms[0] = (None, terms[0][1] + r2)
        else:
            terms = [(w2, r2), *terms] if w2 is None else [*terms, (w2, r2)]
    for _, r in terms:
        r[0] += 1e-8
    z = rng.standard_normal((len(terms), spec.length))
    terms = [(1.0 if w is None else w, r, row) for (w, r), row in zip(terms, z)]
    return np.zeros(spec.length), terms


def _tsmixup(spec: GeneratorSpec, rng: np.random.Generator) -> _Drawn:
    n_parts = int(rng.integers(1, 4))
    base_kinds = [k for k in KINDS if k != "tsmixup"]
    components = [GeneratorSpec(kind=str(rng.choice(base_kinds)), length=spec.length,
                                seed=int(rng.integers(0, 2**63)))
                  for _ in range(n_parts)]
    weights = rng.dirichlet(np.ones(len(components)))
    base, terms = np.zeros(spec.length), []
    for weight, component in zip(weights, components):
        part, part_terms = _draw(component)
        base += weight * part
        terms += [(weight * w, r, z) for w, r, z in part_terms]
    return base, terms


_GENERATORS = {
    "trend_exp": _trend_exp,
    "sparse_spikes": _sparse_spikes,
    "multi_freq_switch": _multi_freq_switch,
    "gp_kernel_mix": _gp_kernel_mix,
    "tsmixup": _tsmixup,
}


def _draw(spec: GeneratorSpec) -> _Drawn:
    """The spec's base series and its Gaussian-process terms ``(w, r, z)``."""
    return _GENERATORS[spec.kind](spec, np.random.default_rng(spec.seed))


def _realize(drawn: list[_Drawn]) -> list[np.ndarray]:
    """Each ``base + sum(w * x)`` of :func:`_draw`'s outputs, all of one
    length, with every term's ``x`` from one :func:`_toeplitz_draws` call."""
    terms = [term for _, series_terms in drawn for term in series_terms]
    if not terms:
        return [base for base, _ in drawn]
    x = iter(_toeplitz_draws(np.array([r for _, r, _ in terms]),
                             np.array([z for _, _, z in terms])))
    values = []
    for base, series_terms in drawn:
        for w, _, _ in series_terms:
            base = base + w * next(x)
        values.append(base)
    return values


def generate(spec: GeneratorSpec) -> TimeSeries:
    """Materialize one series; identical specs yield identical series."""
    values, = _realize([_draw(spec)])
    return TimeSeries(item_id=f"{spec.kind}-{spec.seed}", start=_EPOCH, values=values)


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
    ``SeedSequence(seed)``, and equals :func:`generate` of that spec bit
    for bit. The Gaussian-process terms of all series are drawn in one
    batched recursion, whose steps every series shares.
    """
    if n_series < 1:
        raise ValueError(f"need at least one series, got {n_series}")
    picker = np.random.default_rng(np.random.SeedSequence(seed).generate_state(1)[0])
    kinds = ["tsmixup" if picker.random() < TSMIXUP_SHARE else "gp_kernel_mix"
             for _ in range(n_series)]
    children = np.random.SeedSequence(seed).spawn(n_series)
    specs = [GeneratorSpec(kind=kind, length=context_length + horizon,
                           seed=int(child.generate_state(1)[0]))
             for kind, child in zip(kinds, children)]
    values = _realize([_draw(spec) for spec in specs])
    return Dataset(series=[TimeSeries(item_id=f"synth-{i:05d}", start=_EPOCH, values=v)
                           for i, v in enumerate(values)], freq=_FREQ)
