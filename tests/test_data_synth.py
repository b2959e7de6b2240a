"""Synthetic datasets: seeded, reproducible, and shaped as requested."""

import numpy as np
import pytest

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
    assert (dataset.freq, dataset.prediction_length) == ("d", 8)
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
