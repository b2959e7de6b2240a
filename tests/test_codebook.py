"""Codebook fitting, token/value mapping and persistence."""

import re

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
    return Codebook(
        centers=np.array([-1.0, 0.0, 1.0]),
        edges=np.array([-0.5, 0.5]),
        bounds=(-30.0, 30.0),
    )


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
        assert np.array_equal(cb1.centers, cb2.centers)
        assert codebook_hash(cb1) == codebook_hash(cb2)

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
            Codebook(np.array([-1.0, 0.0, 1.0]), np.array([-0.5, 0.5]), (-30, 30), value_offset=3)

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
        assert np.array_equal(cb.centers, loaded.centers)
        assert np.array_equal(cb.edges, loaded.edges)
        assert cb.bounds == loaded.bounds
        assert codebook_hash(cb) == codebook_hash(loaded)

    def test_non_monotone_centers_rejected(self, tmp_path):
        path = tmp_path / "cb.json"
        save_codebook(small_codebook(), path)
        payload = path.read_text().replace("-1.0", "2.0")
        path.write_text(payload)
        with pytest.raises(ValueError, match="increasing"):
            load_codebook(path)

    def test_missing_field_is_schema_error(self, tmp_path):
        import json

        path = tmp_path / "cb.json"
        save_codebook(small_codebook(), path)
        payload = json.loads(path.read_text())
        del payload["pad_id"]
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="pad_id"):
            load_codebook(path)

    @pytest.mark.parametrize("key, value", [("value_offset", 3), ("pad_id", 1)])
    def test_other_special_ids_are_refused(self, tmp_path, key, value):
        import json

        path = tmp_path / "cb.json"
        save_codebook(small_codebook(), path)
        payload = json.loads(path.read_text())
        payload[key] = value
        path.write_text(json.dumps(payload))
        refused = re.escape(f"codebook file {path} has special token ids {{'{key}': {value}}}")
        with pytest.raises(SchemaError, match=f"^{refused}; the ids are fixed at "):
            load_codebook(path)

    def test_version_mismatch(self, tmp_path):
        import json

        path = tmp_path / "cb.json"
        save_codebook(small_codebook(), path)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="version"):
            load_codebook(path)

    def test_a_version_1_file_is_refused_by_name(self, tmp_path):
        # version 1 also held an EOS token at id 1, and its value ids started at 2
        import json

        path = tmp_path / "cb.json"
        save_codebook(small_codebook(), path)
        payload = json.loads(path.read_text())
        payload.update(version=1, eos_id=1, value_offset=2)
        path.write_text(json.dumps(payload))
        refused = re.escape(f"codebook version mismatch in {path}: found 1, expected 2")
        with pytest.raises(SchemaError, match=f"^{refused}$"):
            load_codebook(path)

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "cb.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError, match="corrupt"):
            load_codebook(path)


class TestInvariants:
    def test_even_center_count_rejected(self):
        with pytest.raises(ValueError):
            Codebook(np.array([-1.0, 0.0, 0.5, 1.0]), np.array([-0.5, 0.25, 0.75]), (-30, 30))

    def test_zero_center_required(self):
        with pytest.raises(ValueError):
            Codebook(np.array([-1.0, 0.1, 1.0]), np.array([-0.5, 0.5]), (-30, 30))

    def test_edges_must_interleave(self):
        with pytest.raises(ValueError):
            Codebook(np.array([-1.0, 0.0, 1.0]), np.array([-0.5, -0.6]), (-30, 30))
