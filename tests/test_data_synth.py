"""Synthetic datasets: seeded, reproducible, and shaped as requested."""

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
    dataset = make_dataset(3, context_length=40, horizon=8, seed=0, freq="d")
    assert [s.item_id for s in dataset.series] == ["synth-00000", "synth-00001", "synth-00002"]
    assert values(dataset).shape == (3, 48)
    assert np.all(np.isfinite(values(dataset)))
    assert dataset.freq == "d"
    assert all(s.freq == "d" for s in dataset.series)


@pytest.mark.parametrize("kind", KINDS)
def test_generate_is_deterministic_per_spec(kind):
    spec = GeneratorSpec(kind=kind, length=64, noise_level=0.1, seed=5)
    first, second = generate(spec), generate(spec)
    np.testing.assert_array_equal(first.values, second.values)
    assert len(first) == 64 and np.all(np.isfinite(first.values))
    other = generate(GeneratorSpec(kind=kind, length=64, noise_level=0.1, seed=6))
    assert not np.array_equal(first.values, other.values)


def test_spec_rejects_unknown_kind_and_bad_sizes():
    with pytest.raises(ValueError, match="unknown generator kind"):
        GeneratorSpec(kind="sine", length=10)
    with pytest.raises(ValueError, match="at least 2"):
        GeneratorSpec(kind="trend_exp", length=1)
    with pytest.raises(ValueError, match="non-negative"):
        GeneratorSpec(kind="trend_exp", length=10, noise_level=-1.0)


def test_generators_refuse_bad_parameters():
    for n_kernels in (0, -3):
        with pytest.raises(ValueError, match=f"n_kernels={n_kernels}"):
            generate(GeneratorSpec(kind="gp_kernel_mix", length=16, params={"n_kernels": n_kernels}))
    with pytest.raises(ValueError, match="n_segments=11 exceeds the series length 10"):
        generate(GeneratorSpec(kind="multi_freq_switch", length=10, params={"n_segments": 11}))
    assert len(generate(GeneratorSpec(kind="multi_freq_switch", length=10,
                                      params={"n_segments": 10}))) == 10
    with pytest.raises(ValueError, match="non-negative"):
        make_dataset(2, mix=(1.5, -0.5))


def dense_gp_kernel_mix(spec, rng, drawn):
    """The dense reference: every kernel evaluated on the full
    ``t_i - t_j`` matrix. Appends the kernel names and operators it draws
    to ``drawn``."""
    n_kernels = int(spec.params.get("n_kernels", rng.integers(1, 4)))
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
    cov = cov + 1e-8 * np.eye(spec.length)
    chol = np.linalg.cholesky(cov)
    return chol @ rng.standard_normal(spec.length)


@pytest.mark.parametrize("length", [2, 3, 65, 576])
def test_gp_kernel_mix_is_bit_identical_to_the_dense_formula(length):
    mixes = []
    for n_kernels in (1, 2, 3):
        for seed in range(12):
            spec = GeneratorSpec(kind="gp_kernel_mix", length=length, seed=seed,
                                 params={"n_kernels": n_kernels})
            drawn = []
            expected = dense_gp_kernel_mix(spec, np.random.default_rng(seed), drawn)
            got = data_synth._gp_kernel_mix(spec, np.random.default_rng(seed))
            assert got.tobytes() == expected.tobytes(), (n_kernels, seed, drawn)
            mixes.append(drawn)
    # each kind comes first, both operators occur, and a linear kernel
    # joins stationary ones from either side
    stationary = {"rbf", "periodic"}
    assert {drawn[0] for drawn in mixes} == stationary | {"linear"}
    assert {"+", "*"} <= {op for drawn in mixes for op in drawn[1::2]}
    assert any(drawn[0] == "linear" and stationary & set(drawn) for drawn in mixes)
    assert any(drawn[0] in stationary and "linear" in drawn for drawn in mixes)


@pytest.mark.parametrize("seed", range(4))
def test_make_dataset_is_bit_identical_to_the_dense_formula(seed, monkeypatch):
    ours = values(make_dataset(8, seed=seed))
    drawn = []
    monkeypatch.setitem(data_synth._GENERATORS, "gp_kernel_mix",
                        lambda spec, rng: dense_gp_kernel_mix(spec, rng, drawn))
    assert ours.tobytes() == values(make_dataset(8, seed=seed)).tobytes()
    assert drawn, "no series drew a Gaussian process"


@pytest.mark.parametrize("length, dtype", [(2, np.uint8), (3, np.uint8), (65, np.uint8),
                                           (576, np.uint16)])
def test_lags_index_every_pair_exactly(length, dtype):
    t, lags, where = data_synth._lags(length)
    np.testing.assert_array_equal(t, np.linspace(0.0, 1.0, length))
    assert np.all(np.diff(lags) > 0)
    assert where.dtype == dtype == np.min_scalar_type(lags.size - 1)
    assert lags[where].tobytes() == (t[:, None] - t[None, :]).tobytes()
    assert not (t.flags.writeable or lags.flags.writeable or where.flags.writeable)
