"""Decomposition/reconstruction correctness and layout arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavets.dwt import (
    CoefficientPyramid,
    _strided_filter,
    _synthesis_step,
    coefficient_layout,
    decompose,
    max_level,
    reconstruct,
)
from wavets.families import available_families, get_family

SQRT2 = math.sqrt(2.0)


def test_haar_constant_pairs():
    p = decompose(np.array([2.0, 2.0, 4.0, 4.0]), get_family("haar"), 1)
    np.testing.assert_allclose(p.approx, [2 * SQRT2, 4 * SQRT2], atol=1e-15)
    np.testing.assert_allclose(p.details[0], [0.0, 0.0], atol=1e-15)


def test_haar_hand_convolution():
    # oracle: a_k = (x_{2k} + x_{2k+1})/sqrt(2), d_k = (x_{2k} - x_{2k+1})/sqrt(2)
    p = decompose(np.array([1.0, 2.0, 3.0, 4.0]), get_family("haar"), 1)
    np.testing.assert_allclose(p.approx, [3 / SQRT2, 7 / SQRT2], atol=1e-15)
    np.testing.assert_allclose(p.details[0], [-1 / SQRT2, -1 / SQRT2], atol=1e-15)
    energy = np.sum(p.approx**2) + np.sum(p.details[0] ** 2)
    assert abs(energy - 30.0) <= 1e-12


def test_bior22_lengths():
    b = get_family("bior2.2")
    p = decompose(np.arange(512.0), b, 1)
    assert [len(band) for band in (p.approx, *p.details)] == [258, 258]


@pytest.mark.parametrize(
    "n,family,level,expected",
    [
        (512, "haar", 1, [256, 256]),
        (64, "bior2.2", 1, [34, 34]),
        (512, "haar", 3, [64, 64, 128, 256]),
        (512, "bior2.2", 1, [258, 258]),
    ],
)
def test_coefficient_layout_frozen(n, family, level, expected):
    assert coefficient_layout(n, get_family(family), level) == expected


def test_layout_matches_decompose_shapes():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(8, 700))
        family = get_family(rng.choice(available_families()))
        mode = rng.choice(["symmetric", "periodization"])
        top = max_level(n, family, mode)
        if top == 0:
            continue
        level = int(rng.integers(1, min(top, 4) + 1))
        p = decompose(rng.standard_normal(n), family, level, mode)
        assert [band.shape[-1] for band in (p.approx, *p.details)] == coefficient_layout(
            n, family, level, mode)


@pytest.mark.parametrize("mode", ["symmetric", "periodization"])
@pytest.mark.parametrize("name", ["haar", "db2", "db4", "bior2.2"])
def test_round_trip(name, mode):
    rng = np.random.default_rng(11)
    family = get_family(name)
    for n in list(range(2, 40)) + [63, 64, 100, 255, 511, 512, 1000]:
        x = rng.standard_normal(n)
        for level in range(1, min(5, max_level(n, family, mode)) + 1):
            rec = reconstruct(decompose(x, family, level, mode), family, n, mode)
            assert np.max(np.abs(rec - x)) <= 1e-9, (name, mode, n, level)


def test_round_trip_bior_non_power_of_two():
    b = get_family("bior2.2")
    rng = np.random.default_rng(5)
    x = rng.standard_normal(100)
    rec = reconstruct(decompose(x, b, 2), b, 100, "symmetric")
    assert np.max(np.abs(rec - x)) <= 1e-9


def test_details_zeroed_haar_is_block_mean():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(32)
    f = get_family("haar")
    p = decompose(x, f, 2)
    zeroed = CoefficientPyramid(p.approx, tuple(np.zeros_like(d) for d in p.details))
    rec = reconstruct(zeroed, f, 32, "symmetric")
    blocks = x.reshape(-1, 4).mean(axis=1).repeat(4)
    np.testing.assert_allclose(rec, blocks, atol=1e-12)


def test_linearity():
    rng = np.random.default_rng(2)
    x, y = rng.standard_normal(100), rng.standard_normal(100)
    for name in available_families():
        f = get_family(name)
        pa = decompose(2.5 * x - 1.5 * y, f, 2)
        px, py = decompose(x, f, 2), decompose(y, f, 2)
        np.testing.assert_allclose(pa.approx, 2.5 * px.approx - 1.5 * py.approx, atol=1e-9)
        for da, dx, dy in zip(pa.details, px.details, py.details):
            np.testing.assert_allclose(da, 2.5 * dx - 1.5 * dy, atol=1e-9)


def test_parseval_periodization_orthogonal():
    # circular transform of an orthogonal family is an orthonormal map for
    # even stage lengths, so coefficient energy equals signal energy
    rng = np.random.default_rng(4)
    for name in ("haar", "db2", "db4"):
        f = get_family(name)
        for level in (1, 2, 3):
            for m in (2, 5, 16):
                n = m * 2**level
                if max_level(n, f, "periodization") < level:
                    continue
                x = rng.standard_normal(n)
                p = decompose(x, f, level, "periodization")
                energy = np.sum(p.approx**2) + sum(np.sum(d**2) for d in p.details)
                assert abs(energy - np.sum(x**2)) / np.sum(x**2) <= 1e-10


def test_periodization_exact_length_layout():
    f = get_family("bior2.2")
    assert coefficient_layout(512, f, 1, "periodization") == [256, 256]
    assert coefficient_layout(64, f, 2, "periodization") == [16, 16, 32]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=256),
    level=st.integers(min_value=1, max_value=4),
    name=st.sampled_from(["haar", "db2", "db4", "bior2.2"]),
    mode=st.sampled_from(["symmetric", "periodization"]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_round_trip_property(n, level, name, mode, seed):
    family = get_family(name)
    if level > max_level(n, family, mode):
        return
    x = np.random.default_rng(seed).standard_normal(n)
    rec = reconstruct(decompose(x, family, level, mode), family, n, mode)
    assert np.max(np.abs(rec - x)) <= 1e-9


@pytest.mark.parametrize("mode", ["symmetric", "periodization"])
@pytest.mark.parametrize("name", ["haar", "db2", "db4", "bior2.2"])
def test_stacked_signals_decompose_like_each_row(name, mode):
    # 5 rows of 64 or 67 samples: an extension along the wrong axis fails
    family = get_family(name)
    rng = np.random.default_rng(19)
    for n in (64, 67):
        x = rng.standard_normal((5, n))
        for level in (1, 2, 3):
            stacked = decompose(x, family, level, mode)
            assert len(stacked.details) == level
            for i, row in enumerate(x):
                alone = decompose(row, family, level, mode)
                for got, want in zip((stacked.approx, *stacked.details),
                                     (alone.approx, *alone.details)):
                    assert got[i].tobytes() == want.tobytes(), (n, level, i)


def test_errors():
    f = get_family("db4")
    with pytest.raises(ValueError, match="too short"):
        decompose(np.ones(4), f, 1)
    with pytest.raises(ValueError, match="non-finite"):
        decompose(np.array([1.0, np.nan, 2.0, 3.0] * 8), f, 1)
    with pytest.raises(ValueError, match="level"):
        decompose(np.ones(64), f, 0)
    with pytest.raises(ValueError, match="boundary mode"):
        decompose(np.ones(64), f, 1, "wraparound")


def test_inconsistent_pyramid_rejected():
    f = get_family("haar")
    p = decompose(np.arange(16.0), f, 2)
    short_approx = CoefficientPyramid(p.approx[:-1], p.details)
    with pytest.raises(ValueError, match=r"inconsistent pyramid: bands of 3 and 4 "
                                         r"coefficients cannot make 8 samples"):
        reconstruct(short_approx, f, 16, "symmetric")
    # a short finer band sets the coarser stage a short target, which the
    # finer stage then cannot grow to the signal length
    short_fine = CoefficientPyramid(p.approx, (p.details[0], p.details[1][:-1]))
    with pytest.raises(ValueError, match=r"inconsistent pyramid: bands of 7 and 7 "
                                         r"coefficients cannot make 16 samples"):
        reconstruct(short_fine, f, 16, "symmetric")
    with pytest.raises(ValueError, match=r"inconsistent pyramid: bands of 8 and 8 "
                                         r"coefficients cannot make 17 samples"):
        reconstruct(p, f, 17, "symmetric")


def test_max_level_values():
    assert max_level(1024, get_family("haar")) == 10
    assert max_level(2, get_family("haar")) == 1
    assert max_level(4, get_family("db4")) == 0
    assert max_level(64, get_family("bior2.2")) == 3


def _oracle_analysis(x, taps, mode):
    """One analysis level from np.pad + np.convolve: output k is the full
    convolution of the extended signal at sample 2k + 1 of the original."""
    if mode == "periodization" and len(x) % 2 == 1:
        x = np.append(x, x[-1])
    n, pad = len(x), len(taps)
    out_len = (n + pad - 1) // 2 if mode == "symmetric" else n // 2
    extended = np.pad(x, pad, mode="symmetric" if mode == "symmetric" else "wrap")
    return np.convolve(extended, taps)[pad + 1 : pad + 1 + 2 * out_len : 2]


@pytest.mark.parametrize("mode", ["symmetric", "periodization"])
@pytest.mark.parametrize("name", ["haar", "db2", "db4", "bior2.2"])
def test_decompose_matches_padded_convolution(name, mode):
    family = get_family(name)
    step = max(family.filter_length - 1, 1)
    rng = np.random.default_rng(13)
    lengths = {step, step + 1, step + 2, 2 * step, 2 * step + 1, 4 * step + 3, 8 * step, 37, 64}
    for n in sorted(lengths):
        x = rng.standard_normal(n)
        for level in range(1, min(3, max_level(n, family, mode)) + 1):
            p = decompose(x, family, level, mode)
            approx, details = x, []
            for _ in range(level):
                details.insert(0, _oracle_analysis(approx, family.dec_hi, mode))
                approx = _oracle_analysis(approx, family.dec_lo, mode)
            np.testing.assert_allclose(p.approx, approx, rtol=0, atol=1e-12, err_msg=f"{n} {level}")
            for got, want in zip(p.details, details, strict=True):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=f"{n} {level}")


@pytest.mark.parametrize("name", ["haar", "db2", "db4", "bior2.2"])
def test_periodization_fold_adds_in_index_order_like_bincount(name):
    # the fold of each stacked row is bit-identical to a bincount of its
    # full convolution, which adds the samples of an output in index order
    family = get_family(name)
    filt_len = family.filter_length
    rng = np.random.default_rng(5)
    for n_band in (1, 2, 3, 8, 33):
        approx, detail = rng.standard_normal((2, 4, n_band))
        got = _synthesis_step(approx, detail, family, 2 * n_band, "periodization")
        period = 2 * n_band
        for row in range(4):
            up = np.zeros((2, period + 2 * filt_len - 2))
            up[:, filt_len - 1 : filt_len - 1 + period : 2] = approx[row], detail[row]
            full = (_strided_filter(up[0], family.rec_lo, 1)
                    + _strided_filter(up[1], family.rec_hi, 1))
            want = np.bincount((np.arange(len(full)) - (filt_len - 2)) % period,
                               weights=full, minlength=period)
            np.testing.assert_array_equal(got[row], want, err_msg=f"{n_band} {row}")

