"""Synthetic datasets: seeded, reproducible, and shaped as requested."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wavets import data_synth
from wavets.data_synth import KINDS, GeneratorSpec, generate, make_dataset


def values(dataset):
    return np.stack([s.values for s in dataset.series])


def test_make_dataset_repeats_under_the_same_seed():
    first, second = make_dataset(6, seed=3), make_dataset(6, seed=3)
    assert [s.item_id for s in first.series] == [s.item_id for s in second.series]
    np.testing.assert_array_equal(values(first), values(second))


def test_make_dataset_differs_under_another_seed():
    a, b = values(make_dataset(6, seed=3)), values(make_dataset(6, seed=4))
    assert a.shape == b.shape
    assert not np.any(np.all(a == b, axis=1))


def test_make_dataset_shape_and_labels():
    dataset = make_dataset(3, context_length=40, horizon=8, seed=0)
    assert [s.item_id for s in dataset.series] == ["synth-00000", "synth-00001", "synth-00002"]
    assert values(dataset).shape == (3, 48)
    assert np.all(np.isfinite(values(dataset)))
    assert dataset.freq == "h"


@pytest.mark.parametrize("kind", KINDS)
def test_generate_is_deterministic_per_spec(kind):
    spec = GeneratorSpec(kind=kind, length=64, seed=5)
    first, second = generate(spec), generate(spec)
    np.testing.assert_array_equal(first.values, second.values)
    assert len(first) == 64 and np.all(np.isfinite(first.values))
    other = generate(GeneratorSpec(kind=kind, length=64, seed=6))
    # every kind but the exponential trend draws from its seed's stream
    assert np.array_equal(first.values, other.values) == (kind == "trend_exp")


def test_spec_rejects_unknown_kind_and_bad_sizes():
    with pytest.raises(ValueError, match="unknown generator kind"):
        GeneratorSpec(kind="sine", length=10)
    with pytest.raises(ValueError, match="at least 2"):
        GeneratorSpec(kind="trend_exp", length=1)


def test_generators_refuse_bad_parameters():
    # multi_freq_switch cuts a series into 3 segments, so it needs 3 points
    with pytest.raises(ValueError, match="n_segments=3 exceeds the series length 2"):
        generate(GeneratorSpec(kind="multi_freq_switch", length=2))
    assert len(generate(GeneratorSpec(kind="multi_freq_switch", length=3))) == 3


def dense_gp_kernel_mix(spec, rng, drawn):
    """The dense reference covariance, without jitter: every kernel
    evaluated on the full ``t_i - t_j`` matrix. Appends the kernel names
    and operators it draws to ``drawn``."""
    n_kernels = int(rng.integers(1, 4))
    t = np.linspace(0.0, 1.0, spec.length)
    diff = t[:, None] - t[None, :]

    def draw_kernel():
        name = rng.choice(["rbf", "periodic", "linear"])
        drawn.append(str(name))
        if name == "rbf":
            scale = rng.uniform(0.05, 0.5)
            return np.exp(-0.5 * (diff / scale) ** 2)
        if name == "periodic":
            period = rng.uniform(0.1, 0.5)
            scale = rng.uniform(0.5, 2.0)
            return np.exp(-2.0 * np.sin(np.pi * np.abs(diff) / period) ** 2 / scale**2)
        center = rng.uniform(0.0, 1.0)
        return (t[:, None] - center) * (t[None, :] - center)

    cov = draw_kernel()
    for _ in range(n_kernels - 1):
        if rng.random() < 0.5:
            drawn.append("+")
            cov = cov + draw_kernel()
        else:
            drawn.append("*")
            cov = cov * draw_kernel()
    return cov


def toeplitz(r):
    lag = np.abs(np.subtract.outer(np.arange(len(r)), np.arange(len(r))))
    return r[lag]


@pytest.mark.parametrize("length", [2, 3, 65, 576])
def test_gp_kernel_mix_terms_sum_to_the_dense_covariance(length):
    mixes = []
    for seed in range(36):
        spec = GeneratorSpec(kind="gp_kernel_mix", length=length, seed=seed)
        drawn, rng = [], np.random.default_rng(seed)
        expected = dense_gp_kernel_mix(spec, rng, drawn)
        base, terms = data_synth._gp_kernel_mix(spec, np.random.default_rng(seed))
        assert not base.any() and 1 <= len(terms) <= 3
        cov = np.zeros((length, length))
        for w, r, z in terms:
            w = np.broadcast_to(w, length)
            cov += w[:, None] * toeplitz(r - 1e-8 * (np.arange(length) == 0)) * w
        np.testing.assert_allclose(cov, expected, rtol=0, atol=1e-12, err_msg=str((seed, drawn)))
        # the first row of normals is the vector the dense draw took
        np.testing.assert_array_equal(terms[0][2], rng.standard_normal(length))
        mixes.append(drawn)
    # the seeds draw 1, 2 and 3 kernels, each kind comes first, both
    # operators occur, and a linear kernel joins stationary ones from
    # either side
    assert {len(drawn[::2]) for drawn in mixes} == {1, 2, 3}
    stationary = {"rbf", "periodic"}
    assert {drawn[0] for drawn in mixes} == stationary | {"linear"}
    assert {"+", "*"} <= {op for drawn in mixes for op in drawn[1::2]}
    assert any(drawn[0] == "linear" and stationary & set(drawn) for drawn in mixes)
    assert any(drawn[0] in stationary and "linear" in drawn for drawn in mixes)


@pytest.mark.parametrize("seed", range(8))
def test_tsmixup_is_the_convex_mixture_of_its_components(seed):
    rng = np.random.default_rng(seed)
    n_parts = int(rng.integers(1, 4))
    base_kinds = [k for k in KINDS if k != "tsmixup"]
    components = [GeneratorSpec(kind=str(rng.choice(base_kinds)), length=96,
                                seed=int(rng.integers(0, 2**63)))
                  for _ in range(n_parts)]
    weights = rng.dirichlet(np.ones(n_parts))
    expected = sum(w * generate(c).values for w, c in zip(weights, components))
    got = generate(GeneratorSpec(kind="tsmixup", length=96, seed=seed)).values
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)


def well_conditioned_rows(length):
    lags = np.arange(length) / max(length - 1, 1)
    spike = (np.arange(length) == 0).astype(float)
    return np.array([
        spike,  # white noise: the draw is z itself
        np.exp(-lags / 0.2),  # Ornstein-Uhlenbeck
        np.exp(-0.5 * (lags / 0.02) ** 2) + 0.1 * spike,
        np.exp(-2.0 * np.sin(np.pi * lags / 0.3) ** 2) + 0.5 * spike,
    ])


@pytest.mark.parametrize("length", [1, 2, 7, 64, 300])
def test_toeplitz_draws_equal_the_cholesky_draw(length):
    r = well_conditioned_rows(length)
    z = np.random.default_rng(length).standard_normal(r.shape)
    x = data_synth._toeplitz_draws(r, z)
    for row_r, row_z, row_x in zip(r, z, x):
        np.testing.assert_allclose(row_x, np.linalg.cholesky(toeplitz(row_r)) @ row_z,
                                   rtol=0, atol=1e-9)
    np.testing.assert_array_equal(x[0], z[0])


def test_toeplitz_draws_give_a_row_the_same_bits_alone_as_in_a_batch():
    r = np.concatenate([well_conditioned_rows(96)] * 3)
    z = np.random.default_rng(0).standard_normal(r.shape)
    batch = data_synth._toeplitz_draws(r, z)
    for i in range(len(r)):
        alone = data_synth._toeplitz_draws(r[i:i + 1], z[i:i + 1])
        assert alone.tobytes() == batch[i:i + 1].tobytes(), i
    assert data_synth._toeplitz_draws(r[:0], z[:0]).shape == (0, 96)


def test_toeplitz_draws_refuse_an_indefinite_covariance():
    # toeplitz([1, 1, 1]) is singular: x[1] is fully predicted by x[0]
    with pytest.raises(ValueError, match=r"row 0: innovation variance 0 at step 1"):
        data_synth._toeplitz_draws(np.array([[1.0, 1.0, 1.0]]), np.ones((1, 3)))
    r = np.array([[1.0, 0.5, 0.25], [1.0, 0.9, 0.2], [-1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match=r"row 1: innovation variance -\S+ at step 2"):
        data_synth._toeplitz_draws(r[:2], np.ones((2, 3)))
    with pytest.raises(ValueError, match=r"row 2: innovation variance -1 at step 0"):
        data_synth._toeplitz_draws(r, np.ones((3, 3)))


@pytest.mark.parametrize("seed", range(4))
def test_make_dataset_series_equal_generate_of_their_specs(seed):
    n_series = 16
    picker = np.random.default_rng(np.random.SeedSequence(seed).generate_state(1)[0])
    kinds = ["tsmixup" if picker.random() < data_synth.TSMIXUP_SHARE else "gp_kernel_mix"
             for _ in range(n_series)]
    children = np.random.SeedSequence(seed).spawn(n_series)
    dataset = make_dataset(n_series, seed=seed)
    for series, kind, child in zip(dataset.series, kinds, children):
        spec = GeneratorSpec(kind=kind, length=576, seed=int(child.generate_state(1)[0]))
        assert series.values.tobytes() == generate(spec).values.tobytes(), series.item_id


def test_make_dataset_does_not_depend_on_the_blas_thread_count():
    code = ("import hashlib, numpy as np; from wavets.data_synth import make_dataset; "
            "d = make_dataset(128, seed=0); "
            "print(hashlib.sha256(np.stack([s.values for s in d.series]).tobytes()).hexdigest())")
    src = str(Path(data_synth.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True)
        digests.add(proc.stdout.strip())
    assert len(digests) == 1, digests


def test_data_synth_calls_no_blas_or_lapack_routine():
    tree = ast.parse(Path(data_synth.__file__).read_text())
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)]
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not names & {"linalg", "dot", "matmul", "einsum", "inner", "tensordot", "vdot"}
