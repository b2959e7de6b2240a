"""Filter-bank definitions and property checks."""

import math
import pickle

import numpy as np
import pytest

from wavets.exceptions import UnknownFamilyError
from wavets.families import available_families, get_family

SQRT2 = math.sqrt(2.0)

# Published filter tables (major open-source wavelet toolboxes agree on
# these values); dec filters are the time-reversed rec filters.
BIOR22_TABLE = {
    "dec_lo": [0.0, -0.17677669529663689, 0.35355339059327379, 1.06066017177982119,
               0.35355339059327379, -0.17677669529663689],
    "dec_hi": [0.0, 0.35355339059327379, -0.70710678118654757, 0.35355339059327379, 0.0, 0.0],
    "rec_lo": [0.0, 0.35355339059327379, 0.70710678118654757, 0.35355339059327379, 0.0, 0.0],
    "rec_hi": [0.0, 0.17677669529663689, 0.35355339059327379, -1.06066017177982119,
               0.35355339059327379, 0.17677669529663689],
}
DB2_TABLE_DEC_LO = [-0.12940952255092145, 0.22414386804185735, 0.836516303737469,
                    0.48296291314469025]
DB4_TABLE_DEC_LO = [-0.010597401785069032, 0.0328830116668852, 0.030841381835560764,
                    -0.18703481171909309, -0.027983769416859854, 0.6308807679298589,
                    0.7148465705529157, 0.2303778133088965]


def test_available_families():
    assert available_families() == ["bior2.2", "db2", "db4", "haar"]


def test_haar_filters():
    h = get_family("haar")
    inv = 1.0 / SQRT2
    np.testing.assert_allclose(h.dec_lo, [inv, inv], atol=0)
    # toolbox convention: the analysis high-pass is the time-reversed
    # synthesis high-pass, so convolution computes (x[2k] - x[2k+1])/sqrt(2)
    np.testing.assert_allclose(h.dec_hi, [-inv, inv], atol=0)
    np.testing.assert_allclose(h.rec_lo, [inv, inv], atol=0)
    np.testing.assert_allclose(h.rec_hi, [inv, -inv], atol=0)
    assert h.orthogonal and h.vanishing_moments == (1, 1)


def test_bior22_matches_published_tables():
    f = get_family("bior2.2")
    for name, expected in BIOR22_TABLE.items():
        np.testing.assert_allclose(getattr(f, name), expected, atol=1e-15)
    assert not f.orthogonal


def test_bior22_closed_form():
    # every tap is a rational multiple of sqrt(2)
    f = get_family("bior2.2")
    np.testing.assert_allclose(f.dec_lo * 8 / SQRT2, [0, -1, 2, 6, 2, -1], atol=1e-12)
    np.testing.assert_allclose(f.rec_lo * 8 / SQRT2, [0, 2, 4, 2, 0, 0], atol=1e-12)


def test_daubechies_match_published_tables():
    np.testing.assert_allclose(get_family("db2").dec_lo, DB2_TABLE_DEC_LO, atol=1e-12)
    np.testing.assert_allclose(get_family("db4").dec_lo, DB4_TABLE_DEC_LO, atol=1e-12)


@pytest.mark.parametrize("name", ["haar", "db2", "db4", "bior2.2"])
def test_filter_sums(name):
    f = get_family(name)
    assert abs(f.dec_lo.sum() - SQRT2) <= 1e-12
    assert abs(f.rec_lo.sum() - SQRT2) <= 1e-12
    assert abs(f.dec_hi.sum()) <= 1e-12
    assert abs(f.rec_hi.sum()) <= 1e-12


@pytest.mark.parametrize("name", ["haar", "db2", "db4"])
def test_orthogonal_structure(name):
    f = get_family(name)
    np.testing.assert_allclose(f.dec_lo, f.rec_lo[::-1], atol=1e-15)
    np.testing.assert_allclose(f.dec_hi, f.rec_hi[::-1], atol=1e-15)
    assert abs(np.sum(f.dec_lo**2) - 1.0) <= 1e-12
    # orthonormality of even translates
    L = f.filter_length
    for shift in range(2, L, 2):
        assert abs(np.sum(f.dec_lo[:-shift] * f.dec_lo[shift:])) <= 1e-12


@pytest.mark.parametrize("name", ["haar", "db2", "db4", "bior2.2"])
def test_vanishing_moments(name):
    # p-th discrete moments of the high-pass filters vanish up to the
    # declared number of vanishing moments
    f = get_family(name)
    k = np.arange(f.filter_length, dtype=np.float64)
    analysis, synthesis = f.vanishing_moments
    for p in range(analysis):
        assert abs(np.sum(f.dec_hi * k**p)) <= 1e-10, (name, "dec_hi", p)
    for p in range(synthesis):
        assert abs(np.sum(f.rec_hi * k**p)) <= 1e-10, (name, "rec_hi", p)


def test_unknown_family_error():
    with pytest.raises(UnknownFamilyError, match="sym13"):
        get_family("sym13")


def test_unknown_family_error_survives_pickle():
    error = UnknownFamilyError("nope")
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is UnknownFamilyError
    assert str(copy) == str(error)
    assert copy.args == error.args
    assert copy.name == "nope"


def test_family_name_case_insensitive():
    assert get_family("BIOR2.2").name == "bior2.2"
