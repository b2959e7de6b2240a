"""Forward tokenization and exact inversion."""

import numpy as np
import pytest

from wavets.codebook import fit_codebook, quantize
from wavets.dwt import CoefficientPyramid, coefficient_layout, decompose, reconstruct
from wavets.families import available_families, get_family
from wavets.thresholding import METHODS, ThresholdSpec, apply_threshold, estimate_sigma, fdrc_lambda
from wavets.tokenizer import (
    ScaleStats,
    TokenizerConfig,
    TokenStream,
    coefficients,
    compute_scale,
    detokenize,
    fill_missing,
    pad_to_length,
    tokenize,
    tokenize_pair,
)

BIOR22_SYNTHESIS_GAIN = 2.1214  # max abs row sum of the synthesis map, level 1


def fitted_codebook(x, config, budget=1024):
    """Codebook fitted to the window's own scaled coefficients, so the
    signal is guaranteed in-range."""
    family = get_family(config.family)
    scale = compute_scale(x)
    z = (fill_missing(np.asarray(x, dtype=np.float64)) - scale.mu) / scale.sigma
    p = decompose(z, family, config.level, config.boundary_mode)
    return fit_codebook(np.concatenate([p.approx, *p.details]), budget)


class TestScale:
    def test_basic(self):
        s = compute_scale(np.array([2.0, 4.0, 6.0]))
        assert s.mu == 4.0 and s.sigma == 2.0
        np.testing.assert_allclose((np.array([2.0, 4.0, 6.0]) - s.mu) / s.sigma, [-1, 0, 1])

    def test_constant_series(self):
        s = compute_scale(np.array([5.0, 5.0, 5.0]))
        assert s.mu == 5.0 and s.sigma == 1.0
        s = compute_scale(np.full(8, 1e200))  # no spread to overflow
        assert s.mu == 1e200 and s.sigma == 1.0

    def test_missing_excluded(self):
        s = compute_scale(np.array([2.0, np.nan, 6.0]))
        assert s.mu == 4.0

    def test_all_missing(self):
        message = "^cannot scale a window with no observed values$"
        with pytest.raises(ValueError, match=message):
            compute_scale(np.array([np.nan, np.nan]))
        with pytest.raises(ValueError, match=message):  # one such row refuses a stack
            compute_scale(np.array([[1.0, 2.0], [np.nan, np.nan]]))

    @pytest.mark.parametrize("x", [
        np.tile([1e200, -1e200], 8),  # the squares overflow
        np.repeat([1.7e308, -1.7e308], [10, 6]),  # the sum overflows
        np.tile([1.7e308, -1.7e308, 0, 0, 0, 0, 0, 0], 16),  # partial sums of inf - inf
    ])
    def test_overflow_is_refused_without_a_warning(self, x):
        with pytest.raises(ValueError, match="mean or deviation overflows"):
            compute_scale(x)
        with pytest.raises(ValueError, match="mean or deviation overflows"):
            compute_scale(np.stack([np.arange(len(x), dtype=float), x]))


class TestFillMissing:
    def test_interior_interpolation(self):
        out = fill_missing(np.array([1.0, np.nan, 3.0]))
        np.testing.assert_allclose(out, [1.0, 2.0, 3.0])

    def test_ends_held(self):
        out = fill_missing(np.array([np.nan, 2.0, np.nan]))
        np.testing.assert_allclose(out, [2.0, 2.0, 2.0])

    def test_a_complete_stack_comes_back_as_it_is_and_a_gappy_one_as_a_new_array(self):
        complete = np.random.default_rng(0).normal(size=(3, 16))
        bits = complete.tobytes()
        out = fill_missing(complete)
        assert out is complete and out.tobytes() == bits
        gappy = complete.copy()
        gappy[1, 4:9] = np.nan
        gappy_bits = gappy.tobytes()
        out = fill_missing(gappy)
        assert not np.shares_memory(out, gappy) and gappy.tobytes() == gappy_bits
        assert np.isfinite(out).all() and out[[0, 2]].tobytes() == complete[[0, 2]].tobytes()
        np.testing.assert_allclose(out[1, 4:9], np.interp(np.arange(4, 9), [3, 9],
                                                          complete[1, [3, 9]]))


class TestForward:
    def test_constant_window_all_zero_center(self):
        config = TokenizerConfig(family="haar", level=1)
        x = np.full(64, 7.0)
        cb = fit_codebook(np.linspace(-1, 1, 101), 256)
        stream = tokenize(x, compute_scale(x), config, cb)
        zero_token = cb.VALUE_OFFSET + int(np.where(cb.centers == 0.0)[0][0])
        assert np.all(stream.tokens == zero_token)

    def test_bior_512_layout(self):
        config = TokenizerConfig(family="bior2.2", level=1)
        x = np.random.default_rng(0).standard_normal(512)
        stream = tokenize(x, compute_scale(x), config, fitted_codebook(x, config))
        assert coefficient_layout(512, get_family("bior2.2"), 1) == [258, 258]
        assert len(stream.tokens) == 516

    def test_segment_order_matches_layout(self):
        config = TokenizerConfig(family="db2", level=3)
        x = np.random.default_rng(1).standard_normal(400)
        scale, cb = compute_scale(x), fitted_codebook(x, config)
        stream = tokenize(x, scale, config, cb)
        pyramid = decompose((x - scale.mu) / scale.sigma, get_family("db2"), 3)
        bands = (pyramid.approx, *pyramid.details)  # [a_3, d_3, d_2, d_1]
        layout = coefficient_layout(400, get_family("db2"), 3)
        assert [len(band) for band in bands] == layout
        np.testing.assert_array_equal(stream.tokens, quantize(np.concatenate(bands), cb))


def stacked_windows(config, n=83):
    """Rows of every kind the forward path treats apart: a noise row on
    which fdrc finds nothing, a spike fdrc keeps, a constant row and a
    step (for haar, their finest details have zero spread), gappy rows
    with 1, 12, 20 and 20 missing values, a trend and a row with one
    observed value."""
    family = get_family(config.family)
    for seed in range(100):
        quiet = np.random.default_rng(seed).standard_normal(n)
        scale = compute_scale(quiet)
        z = (quiet - scale.mu) / scale.sigma
        details = decompose(z, family, config.level, config.boundary_mode).details
        if np.isinf(fdrc_lambda(np.concatenate(details), estimate_sigma(details[-1]))[0]):
            break
    rng = np.random.default_rng(23)
    spike = rng.standard_normal(n)
    spike[n // 2] += 40.0
    gappy, edges = rng.standard_normal(n), rng.standard_normal(n) + 3.0
    gappy[10:30] = np.nan
    edges[:7], edges[-5:] = np.nan, np.nan
    trend = np.linspace(-5.0, 20.0, n) + rng.standard_normal(n)
    step = np.where(np.arange(n) < 41, 4.0, 9.0)
    hole, late_gap, lone = rng.standard_normal(n), rng.standard_normal(n) * 5.0, np.full(n, np.nan)
    hole[40], late_gap[50:70], lone[n // 3] = np.nan, np.nan, -2.5
    return np.array([quiet, spike, np.full(n, 4.0), step, gappy, edges, trend, hole, late_gap,
                     lone])


class TestStackedForward:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("mode", ["symmetric", "periodization"])
    @pytest.mark.parametrize("name", available_families())
    def test_each_row_tokenizes_as_alone(self, name, mode, method):
        cb = fit_codebook(np.linspace(-6.0, 6.0, 4001), 4096)
        family = get_family(name)
        for level in (1, 2, 3):
            config = TokenizerConfig(family=name, level=level, boundary_mode=mode,
                                     threshold=ThresholdSpec(method=method))
            windows = stacked_windows(config)
            scales = [compute_scale(row) for row in windows]
            scale = compute_scale(windows)  # one call, grouped by observed count
            assert scale.mu.tobytes() == np.array([s.mu for s in scales]).tobytes()
            assert scale.sigma.tobytes() == np.array([s.sigma for s in scales]).tobytes()
            stacked = tokenize(windows, scale, config, cb)
            z = (fill_missing(windows) - scale.mu[:, None]) / scale.sigma[:, None]
            pyramid = apply_threshold(decompose(z, family, level, mode), config.threshold)
            assert len(stacked.rows()) == len(windows)
            for i, (row, row_scale, stream) in enumerate(zip(windows, scales, stacked.rows())):
                alone = tokenize(row, row_scale, config, cb)
                assert stream.tokens.tobytes() == alone.tokens.tobytes(), (level, i)
                assert stream.scale == alone.scale == row_scale
                # the coefficients, not just their bins, are bit-identical
                z_row = (fill_missing(row) - row_scale.mu) / row_scale.sigma
                single = apply_threshold(decompose(z_row, family, level, mode), config.threshold)
                for got, want in zip((pyramid.approx, *pyramid.details),
                                     (single.approx, *single.details)):
                    assert got[i].tobytes() == want.tobytes(), (level, i)
            if method == "fdrc":
                # no discovery on the quiet row: every detail becomes +0.0
                assert all(np.all(d[0] == 0.0) and not np.signbit(d[0]).any()
                           for d in pyramid.details)
                # a row whose finest details have zero spread passes unchanged
                raw = decompose(z, family, level, mode)
                zero_spread = estimate_sigma(raw.details[-1][3]) == 0.0
                assert zero_spread or name != "haar"
                if zero_spread:
                    assert any(d[3].any() for d in raw.details)
                    for got, want in zip(pyramid.details, raw.details):
                        assert got[3].tobytes() == want[3].tobytes()


def test_coefficients_count_the_observed_mask_only_for_a_stack_with_a_missing_value(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return decompose(*args)

    monkeypatch.setattr("wavets.tokenizer.decompose", counted)
    config = TokenizerConfig(family="db2", level=2)
    windows = np.random.default_rng(4).standard_normal((3, 40))
    complete = coefficients(windows, compute_scale(windows), config)
    assert len(calls) == 1 and not any(np.isnan(band).any() for band in
                                       (complete.approx, *complete.details))
    windows[1, 7] = np.nan
    coefficients(windows, compute_scale(windows), config)
    assert len(calls) == 3


class TestRoundTrip:
    def test_haar_rmse_bound(self):
        config = TokenizerConfig(family="haar", level=1)
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.standard_normal(512) * rng.uniform(0.5, 20) + rng.uniform(-50, 50)
            cb = fitted_codebook(x, config)
            stream = tokenize(x, compute_scale(x), config, cb)
            recon = detokenize(stream, 512, config, cb)
            rmse = np.sqrt(np.mean((recon - x) ** 2))
            assert rmse <= (cb.bin_width / 2) * stream.scale.sigma + 1e-12

    def test_bior_rmse_bound_with_gain(self):
        config = TokenizerConfig(family="bior2.2", level=1)
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = rng.standard_normal(512) * 5.0
            cb = fitted_codebook(x, config)
            stream = tokenize(x, compute_scale(x), config, cb)
            recon = detokenize(stream, 512, config, cb)
            rmse = np.sqrt(np.mean((recon - x) ** 2))
            assert rmse <= BIOR22_SYNTHESIS_GAIN * (cb.bin_width / 2) * stream.scale.sigma

    def test_lattice_signals_reconstruct_exactly(self):
        # horizon whose scaled coefficients sit exactly on bin centers
        config = TokenizerConfig(family="haar", level=1)
        rng = np.random.default_rng(5)
        context = rng.standard_normal(64) * 2.0 + 1.0
        scale = compute_scale(context)
        cb = fit_codebook(np.linspace(-3, 3, 601), 1024)
        family = get_family("haar")
        layout = coefficient_layout(32, family, 1)
        coeffs = rng.choice(cb.centers, size=sum(layout))
        parts = np.split(coeffs, np.cumsum(layout)[:-1])
        pyramid = CoefficientPyramid(parts[0], tuple(parts[1:]))
        horizon = reconstruct(pyramid, family, 32, "symmetric") * scale.sigma + scale.mu
        _, hor_stream = tokenize_pair(context, horizon, config, cb)
        recon = detokenize(hor_stream, 32, config, cb)
        assert np.max(np.abs(recon - horizon)) <= 1e-9


class TestInvariances:
    def test_shift_and_scale(self):
        config = TokenizerConfig(family="bior2.2", level=1)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(256)
        cb = fitted_codebook(x, config)
        base = tokenize(x, compute_scale(x), config, cb).tokens
        for moved in (x + 1234.5, x * 99.25):
            assert np.array_equal(base, tokenize(moved, compute_scale(moved), config, cb).tokens)


class TestPairs:
    def test_horizon_layout(self):
        config = TokenizerConfig(family="bior2.2", level=1)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(576)
        cb = fitted_codebook(x[:512], config)
        ctx, hor = tokenize_pair(x[:512], x[512:], config, cb)
        assert coefficient_layout(64, get_family("bior2.2"), 1) == [34, 34]
        assert len(hor.tokens) == 68
        assert hor.scale == ctx.scale

    def test_constant_pair_zero_center(self):
        config = TokenizerConfig(family="haar", level=1)
        cb = fit_codebook(np.linspace(-1, 1, 101), 256)
        ctx, hor = tokenize_pair(np.full(32, 3.0), np.full(16, 3.0), config, cb)
        zero_token = cb.VALUE_OFFSET + int(np.where(cb.centers == 0.0)[0][0])
        assert np.all(hor.tokens[:-1] == zero_token)

    def test_horizon_in_range_monte_carlo(self):
        # horizon drawn from the context's distribution stays inside a
        # codebook fitted on pooled context coefficients
        config = TokenizerConfig(family="haar", level=1)
        rng = np.random.default_rng(8)
        family = get_family("haar")
        contexts = [rng.standard_normal(128) for _ in range(100)]
        pool = []
        for c in contexts:
            s = compute_scale(c)
            p = decompose((c - s.mu) / s.sigma, family, 1)
            pool += [p.approx, *p.details]
        cb = fit_codebook(np.concatenate(pool), 1024)
        lo, hi = cb.edges[0], cb.edges[-1]
        clamped = 0
        total = 0
        for c in contexts:
            s = compute_scale(c)
            h = rng.standard_normal(32)
            p = decompose((h - s.mu) / s.sigma, family, 1)
            coeffs = np.concatenate([p.approx, *p.details])
            clamped += int(np.sum((coeffs < lo) | (coeffs >= hi)))
            total += coeffs.size
        assert 1 - clamped / total >= 0.99


class TestMissing:
    def test_fully_missing_region_emits_pad(self):
        config = TokenizerConfig(family="haar", level=1)
        rng = np.random.default_rng(9)
        x = rng.standard_normal(128)
        cb = fitted_codebook(np.nan_to_num(x), config)
        x[:40] = np.nan
        stream = tokenize(x, compute_scale(x), config, cb)
        # level-1 coefficients 0..19 of both bands cover only missing samples
        n_pad = int(np.sum(stream.tokens == cb.PAD_ID))
        assert n_pad == 40

    def test_all_pad_stream_inverts_to_mean(self):
        config = TokenizerConfig(family="haar", level=1)
        cb = fit_codebook(np.linspace(-1, 1, 101), 256)
        layout = coefficient_layout(32, get_family("haar"), 1)
        stream = TokenStream(tokens=np.full(sum(layout), cb.PAD_ID, dtype=np.int64),
                             scale=ScaleStats(mu=5.5, sigma=2.0))
        recon = detokenize(stream, 32, config, cb)
        np.testing.assert_allclose(recon, 5.5, atol=1e-12)

    @pytest.mark.parametrize("mode", ["symmetric", "periodization"])
    @pytest.mark.parametrize("name", ["haar", "db2", "db4", "bior2.2"])
    def test_stacked_streams_invert_like_each_row(self, name, mode):
        # PAD tokens included; each row has its own scale
        family = get_family(name)
        cb = fit_codebook(np.linspace(-3, 3, 301), 64)
        rng = np.random.default_rng(17)
        for n in (64, 67):
            for level in (1, 2, 3):
                config = TokenizerConfig(family=name, level=level, boundary_mode=mode)
                layout = coefficient_layout(n, family, level, mode)
                tokens = rng.integers(cb.VALUE_OFFSET, cb.vocab_size, size=(5, sum(layout)))
                tokens[rng.random(tokens.shape) < 0.1] = cb.PAD_ID
                mu, sigma = rng.normal(size=5), rng.uniform(0.5, 2.0, size=5)

                got = detokenize(TokenStream(tokens, ScaleStats(mu=mu, sigma=sigma)), n, config, cb)
                assert got.shape == (5, n)
                for row, m, sd, values in zip(tokens, mu, sigma, got):
                    want = detokenize(TokenStream(row, ScaleStats(mu=float(m), sigma=float(sd))),
                                      n, config, cb)
                    np.testing.assert_array_equal(values, want, err_msg=f"{n} {level}")

    @pytest.mark.parametrize("mode", ["symmetric", "periodization"])
    @pytest.mark.parametrize("name", ["haar", "db2", "db4", "bior2.2"])
    def test_band_observed_matches_folded_support(self, name, mode):
        # brute force: a coefficient is observed when any sample of its
        # boundary-folded filter support one stage finer is observed
        family = get_family(name)
        filt_len = family.filter_length
        rng = np.random.default_rng(21)
        for n in (61, 97, 129):
            for p_observed in (0.1, 0.5, 0.9):
                mask = rng.random(n) < p_observed
                if not mask.any():  # fill_missing refuses an all-missing window
                    continue
                for level in (1, 2, 3):
                    config = TokenizerConfig(family=name, level=level, boundary_mode=mode)
                    pyramid = coefficients(np.where(mask, 1.0, np.nan),
                                           ScaleStats(mu=0.0, sigma=1.0), config)
                    got = [~np.isnan(band) for band in (pyramid.approx, *pyramid.details)]
                    current, per_level = mask, []
                    for _ in range(level):
                        if mode == "periodization" and len(current) % 2 == 1:
                            current = np.append(current, current[-1])
                        m = len(current)
                        out_len = (m + filt_len - 1) // 2 if mode == "symmetric" else m // 2
                        folded = np.pad(current, filt_len,
                                        mode="symmetric" if mode == "symmetric" else "wrap")
                        current = np.array([
                            any(folded[filt_len + 2 * k + 1 - j] for j in range(filt_len))
                            for k in range(out_len)
                        ])
                        per_level.insert(0, current)
                    want = [per_level[0]] + per_level
                    assert len(got) == len(want) == level + 1
                    for g, w in zip(got, want):
                        np.testing.assert_array_equal(g, w, err_msg=f"{n} {p_observed} {level}")


class TestErrors:
    def test_inconsistent_segments(self):
        # a length-32 haar window has the layout [16, 16]; 10 tokens cannot
        # fill it, nor 31, one approximation coefficient short: reconstruct
        # takes the layout that detokenize checks
        config = TokenizerConfig(family="haar", level=1)
        cb = fit_codebook(np.linspace(-1, 1, 101), 256)
        for n_tokens in (10, 31):
            stream = TokenStream(np.full(n_tokens, cb.VALUE_OFFSET), ScaleStats(0.0, 1.0))
            with pytest.raises(ValueError, match=rf"^{n_tokens} tokens do not match "
                                                 r"the layout \[16, 16\] of a length-32 window$"):
                detokenize(stream, 32, config, cb)

    def test_token_count_must_match_segments(self):
        config = TokenizerConfig(family="haar", level=1)
        cb = fit_codebook(np.linspace(-1, 1, 101), 256)
        for n_tokens in (33, 9):
            stream = TokenStream(np.full(n_tokens, cb.VALUE_OFFSET), ScaleStats(0.0, 1.0))
            with pytest.raises(ValueError, match=r"do not match the layout \[16, 16\] of a "
                                                 r"length-32 window"):
                detokenize(stream, 32, config, cb)


def test_pad_to_length():
    out = pad_to_length(np.array([1.0, 2.0]), 4)
    assert np.isnan(out[0]) and np.isnan(out[1])
    np.testing.assert_allclose(out[2:], [1.0, 2.0])
    out2 = pad_to_length(np.arange(6.0), 4)
    np.testing.assert_allclose(out2, [2.0, 3.0, 4.0, 5.0])
