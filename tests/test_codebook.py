"""Codebook fitting, token/value mapping and persistence."""

import json
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavets.codebook import (
    Codebook,
    codebook_hash,
    dequantize,
    fit_codebook,
    load_codebook,
    quantize,
    save_codebook,
)
from wavets.exceptions import SchemaError


def small_codebook():
    return Codebook(bin_width=1.0, n_bins=3)  # centers -1, 0, 1; edges -0.5, 0.5


class TestFit:
    def test_freedman_diaconis_width(self):
        # linspace(0, 2, 1000) has IQR exactly 1, so h = 2 * 1000^(-1/3) = 0.2
        sample = np.linspace(0.0, 2.0, 1000)
        cb = fit_codebook(sample, 1024)
        assert abs(cb.bin_width - 0.2) <= 1e-9

    def test_budget_and_zero_center(self):
        rng = np.random.default_rng(0)
        cb = fit_codebook(rng.standard_normal(5000), 1024)
        assert cb.n_bins <= 1022
        assert cb.vocab_size <= 1024
        assert np.any(cb.centers == 0.0)
        assert cb.n_bins % 2 == 1

    def test_degenerate_iqr_falls_back_to_budget_width(self):
        cb = fit_codebook(np.zeros(100), 1024)
        assert abs(cb.bin_width - 60.0 / 1022) <= 1e-12

    def test_deterministic_and_permutation_invariant(self):
        rng = np.random.default_rng(7)
        sample = rng.standard_normal(4000)
        cb1 = fit_codebook(sample, 512)
        cb2 = fit_codebook(sample[::-1].copy(), 512)
        assert cb1 == cb2
        assert codebook_hash(cb1) == codebook_hash(cb2)

    def test_centers_and_edges_follow_from_the_width_and_the_bin_count(self):
        rng = np.random.default_rng(3)
        cb = fit_codebook(rng.standard_normal(3000), 1024)
        k = (cb.n_bins - 1) // 2
        assert type(cb.bin_width) is float and type(cb.n_bins) is int
        np.testing.assert_array_equal(cb.centers,
                                      cb.bin_width * np.arange(-k, k + 1, dtype=np.float64))
        np.testing.assert_array_equal(cb.edges, (cb.centers[:-1] + cb.centers[1:]) / 2.0)
        assert cb.centers[k] == 0.0 and cb.centers[-1] <= 30.0

    def test_a_codebook_is_its_width_and_bin_count(self):
        assert [f.name for f in fields(Codebook)] == ["bin_width", "n_bins"]

    def test_errors(self):
        with pytest.raises(ValueError):
            fit_codebook(np.array([]), 1024)
        with pytest.raises(ValueError):
            fit_codebook(np.ones(10), 4)


def token(value, cb):
    """The token of one value, through a one-element array."""
    (tok,) = quantize(np.array([value]), cb)
    return tok


def center(tok, cb):
    """The value of one token, through a one-element array."""
    (value,) = dequantize(np.array([tok]), cb)
    return value


class TestMapping:
    def test_edge_logic(self):
        cb = small_codebook()
        assert token(0.3, cb) == Codebook.VALUE_OFFSET + 1  # middle bin
        assert token(0.7, cb) == Codebook.VALUE_OFFSET + 2
        assert center(token(0.7, cb), cb) == 1.0
        # half-open bins: the left edge belongs to the upper bin
        assert token(0.5, cb) == Codebook.VALUE_OFFSET + 2
        assert token(-0.5, cb) == Codebook.VALUE_OFFSET + 1

    def test_clamping(self):
        cb = small_codebook()
        assert token(1e6, cb) == Codebook.VALUE_OFFSET + cb.n_bins - 1
        assert token(-1e6, cb) == Codebook.VALUE_OFFSET

    def test_pad_round_trip(self):
        cb = small_codebook()
        assert token(float("nan"), cb) == Codebook.PAD_ID
        assert center(Codebook.PAD_ID, cb) == 0.0

    def test_zero_center_exact(self):
        cb = small_codebook()
        assert center(token(0.0, cb), cb) == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            token(float("inf"), small_codebook())

    def test_oov_rejected(self):
        cb = small_codebook()
        with pytest.raises(ValueError,
                           match=rf"^token id\(s\) \[{cb.vocab_size}\] outside the vocabulary$"):
            center(cb.vocab_size, cb)

    def test_special_ids_disjoint(self):
        cb = small_codebook()
        value_tokens = set(range(Codebook.VALUE_OFFSET, cb.vocab_size))
        assert Codebook.PAD_ID not in value_tokens
        assert len(value_tokens) == cb.n_bins
        assert cb.pad_id == Codebook.PAD_ID  # the lower-case name still resolves

    def test_special_ids_are_not_settable(self):
        # a settable offset let quantize emit ids outside the vocabulary
        with pytest.raises(TypeError, match="value_offset"):
            Codebook(1.0, 3, value_offset=3)

    @settings(max_examples=100, deadline=None)
    @given(w=st.floats(min_value=-30.0, max_value=30.0))
    def test_round_trip_half_width(self, w):
        rng = np.random.default_rng(0)
        cb = fit_codebook(rng.uniform(-10, 10, 2000), 256)
        value = center(token(w, cb), cb)
        if cb.centers[0] <= w <= cb.centers[-1]:
            assert abs(value - w) <= cb.bin_width / 2 + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.floats(min_value=-40.0, max_value=40.0),
        b=st.floats(min_value=-40.0, max_value=40.0),
    )
    def test_monotone(self, a, b):
        cb = small_codebook()
        lo, hi = sorted((a, b))
        assert token(lo, cb) <= token(hi, cb)


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        cb = fit_codebook(rng.standard_normal(3000), 1024)
        path = tmp_path / "cb.json"
        save_codebook(cb, path)
        loaded = load_codebook(path)
        assert loaded == cb
        assert np.array_equal(cb.centers, loaded.centers)
        assert np.array_equal(cb.edges, loaded.edges)
        assert codebook_hash(cb) == codebook_hash(loaded)

    def test_the_file_holds_the_width_the_bin_count_and_the_ids(self, tmp_path):
        path = tmp_path / "cb.json"
        save_codebook(small_codebook(), path)
        assert json.loads(path.read_text()) == {
            "format": "wavets.codebook", "version": 3, "bin_width": 1.0, "n_bins": 3,
            "pad_id": 0, "value_offset": 1}

    @pytest.mark.parametrize("key, value, refused", [
        ("n_bins", 4, "need an odd number of bins >= 3, got 4"),
        ("bin_width", "1.0", "bin width must be a finite, positive float, got '1.0'"),
        ("bin_width", 31.0, "outermost center 31.0 exceeds the bounds (-30.0, 30.0)"),
    ], ids=["even-count", "text-width", "beyond-bounds"])
    def test_a_width_or_bin_count_out_of_range_is_refused(self, tmp_path, key, value, refused):
        path = tmp_path / "cb.json"
        save_codebook(small_codebook(), path)
        payload = json.loads(path.read_text())
        payload[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
            load_codebook(path)

    def test_missing_field_is_schema_error(self, tmp_path):
        path = tmp_path / "cb.json"
        save_codebook(small_codebook(), path)
        payload = json.loads(path.read_text())
        del payload["pad_id"]
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="pad_id"):
            load_codebook(path)

    @pytest.mark.parametrize("key, value", [("value_offset", 3), ("pad_id", 1)])
    def test_other_special_ids_are_refused(self, tmp_path, key, value):
        path = tmp_path / "cb.json"
        save_codebook(small_codebook(), path)
        payload = json.loads(path.read_text())
        payload[key] = value
        path.write_text(json.dumps(payload))
        refused = re.escape(f"codebook file {path} has special token ids {{'{key}': {value}}}")
        with pytest.raises(SchemaError, match=f"^{refused}; the ids are fixed at "):
            load_codebook(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "cb.json"
        save_codebook(small_codebook(), path)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="version"):
            load_codebook(path)

    def test_a_version_1_file_is_refused_by_name(self, tmp_path):
        # version 1 also held an EOS token at id 1, and its value ids started at 2
        path = tmp_path / "cb.json"
        save_codebook(small_codebook(), path)
        payload = json.loads(path.read_text())
        payload.update(version=1, eos_id=1, value_offset=2)
        path.write_text(json.dumps(payload))
        refused = re.escape(f"codebook version mismatch in {path}: found 1, expected 3")
        with pytest.raises(SchemaError, match=f"^{refused}$"):
            load_codebook(path)

    def test_a_version_2_file_is_refused_by_version(self, tmp_path):
        # version 2 listed every center and edge, and the bounds
        path = tmp_path / "cb.json"
        path.write_text(json.dumps({
            "format": "wavets.codebook", "version": 2, "centers": [-1.0, 0.0, 1.0],
            "edges": [-0.5, 0.5], "bounds": [-30.0, 30.0], "pad_id": 0, "value_offset": 1}))
        refused = re.escape(f"codebook version mismatch in {path}: found 2, expected 3")
        with pytest.raises(SchemaError, match=f"^{refused}$"):
            load_codebook(path)

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "cb.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError, match="corrupt"):
            load_codebook(path)


class TestInvariants:
    def test_even_center_count_rejected(self):
        with pytest.raises(ValueError, match="^need an odd number of bins >= 3, got 4$"):
            Codebook(bin_width=0.5, n_bins=4)

    @pytest.mark.parametrize("n_bins", [1, -3, True, 3.0, "3"])
    def test_the_bin_count_must_be_an_odd_int_of_at_least_3(self, n_bins):
        refused = f"need an odd number of bins >= 3, got {n_bins!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
            Codebook(bin_width=0.5, n_bins=n_bins)

    @pytest.mark.parametrize("bin_width", [0.0, -0.5, float("nan"), float("inf"), 1, None])
    def test_the_bin_width_must_be_a_finite_positive_float(self, bin_width):
        refused = f"bin width must be a finite, positive float, got {bin_width!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
            Codebook(bin_width=bin_width, n_bins=3)

    def test_the_outermost_centers_must_lie_within_the_bounds(self):
        assert Codebook(bin_width=15.0, n_bins=5).centers[-1] == 30.0
        refused = "outermost center 32.0 exceeds the bounds (-30.0, 30.0)"
        with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
            Codebook(bin_width=16.0, n_bins=5)
