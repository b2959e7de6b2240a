"""Thresholding schemes: exact worked values and statistical behavior."""

import math
from statistics import NormalDist

import numpy as np
import pytest

from wavets.dwt import decompose
from wavets.families import get_family
from wavets.thresholding import (
    FDRC_Q,
    ThresholdSpec,
    apply_threshold,
    cdf_cutoff_fraction,
    cdf_threshold,
    estimate_sigma,
    fdrc_lambda,
    hard_threshold,
    soft_threshold,
    visu_lambda,
)

MAD_SCALE = 0.6744897501960817


def fdrc_hard(details, sigma):
    """Hard-threshold ``details`` at their own step-up-selected level."""
    return hard_threshold(details, fdrc_lambda(details, sigma)[0])


class TestVisuLambda:
    def test_unit_sigma_frozen_value(self):
        # magnitudes with median exactly MAD_SCALE give sigma_hat = 1,
        # so lambda = sqrt(2 ln 1024) = 3.7233 to 4 d.p.
        details = np.array([-MAD_SCALE, MAD_SCALE, -MAD_SCALE, MAD_SCALE])
        lam = visu_lambda(details, 1024)
        assert abs(lam - 3.7233) <= 1e-4
        assert abs(lam - math.sqrt(2 * math.log(1024))) <= 1e-12

    def test_zero_spread(self):
        assert visu_lambda(np.zeros(4), 1024) == 0.0

    def test_mad_consistency_monte_carlo(self):
        sample = np.random.default_rng(0).standard_normal(100_000)
        assert abs(estimate_sigma(sample) - 1.0) <= 0.02

    def test_empty_input(self):
        with pytest.raises(ValueError):
            visu_lambda(np.array([]), 1024)


class TestShrinkOperators:
    def test_soft_clamps_at_zero(self):
        out = soft_threshold(np.array([-3.0, -0.5, 0.0, 0.5, 3.0]), 1.0)
        np.testing.assert_allclose(out, [-2.0, 0.0, 0.0, 0.0, 2.0])

    def test_hard_keeps_at_threshold(self):
        out = hard_threshold(np.array([-3.0, -0.5, 1.0, 3.0]), 1.0)
        np.testing.assert_allclose(out, [-3.0, 0.0, 1.0, 3.0])


class TestCdfThreshold:
    def test_bottom_half_zeroed(self):
        # fraction 0.5 at the finest of a single level with base 0.5
        out = cdf_threshold(np.array([10.0, -10.0, 0.1, -0.1]), 1, 1)
        np.testing.assert_allclose(out, [10.0, -10.0, 0.0, 0.0])

    def test_finer_levels_pruned_harder(self):
        fracs = [cdf_cutoff_fraction(j, 3) for j in (1, 2, 3)]
        assert fracs == [0.5, 0.25, 0.125]

    def test_fraction_zeroed_ordering_in_pyramid(self):
        rng = np.random.default_rng(8)
        p = decompose(rng.standard_normal(512), get_family("haar"), 3)
        out = apply_threshold(p, ThresholdSpec(method="cdf"))
        # details stored coarsest-first: index 0 is the coarsest level
        zero_frac = [np.mean(d == 0.0) for d in out.details]
        assert zero_frac[-1] > zero_frac[0]


class TestFdrc:
    def test_worked_example(self):
        # coefficients engineered to have two-sided p-values
        # [0.001, 0.2, 0.5, 0.9]; only the first passes its step-up bound
        p_values = np.array([0.001, 0.2, 0.5, 0.9])
        details = np.array([NormalDist().inv_cdf(1.0 - p / 2.0) for p in p_values])
        lam, i0 = fdrc_lambda(details, sigma=1.0)
        assert i0 == 1
        assert abs(lam - 3.2905) <= 1e-3

    @staticmethod
    def _reference(details, sigma, q=FDRC_Q):
        """Step-up over two-sided p-values ``erfc(|d| / (sigma sqrt 2))``."""
        magnitudes = sorted((abs(d) for d in details), reverse=True)
        m = len(magnitudes)
        passing = [k for k in range(1, m + 1)
                   if math.erfc(magnitudes[k - 1] / (sigma * math.sqrt(2.0))) <= k * q / m]
        i0 = max(passing, default=0)
        return (magnitudes[i0 - 1] if i0 else math.inf), i0

    @pytest.mark.parametrize("m", [1, 2, 3, 447])
    def test_matches_a_p_value_step_up(self, m):
        rng = np.random.default_rng(m)
        rows = rng.standard_normal((60, m)) * rng.uniform(0.5, 3.0, (60, 1))
        rows[::3, : max(m // 10, 1)] *= 8.0  # a few spikes to discover
        rows[1::2] = np.round(rows[1::2], 1)  # tied magnitudes
        sigma = rng.uniform(0.5, 2.0, 60)
        lam, i0 = fdrc_lambda(rows, sigma)
        expected = [self._reference(row, s) for row, s in zip(rows, sigma.tolist())]
        assert list(zip(lam.tolist(), i0.tolist())) == expected
        assert 0 < i0.sum() < rows.size

    def test_all_zero_details(self):
        out = fdrc_hard(np.zeros(3), sigma=1.0)
        np.testing.assert_allclose(out, 0.0)
        lam, i0 = fdrc_lambda(np.zeros(3), sigma=1.0)
        assert i0 == 0 and math.isinf(lam)

    def test_single_spike_survives(self):
        details = np.zeros(100)
        details[37] = 100.0
        out = fdrc_hard(details, sigma=1.0)
        assert out[37] == 100.0
        assert np.all(out[np.arange(100) != 37] == 0.0)
        lam, i0 = fdrc_lambda(details, sigma=1.0)
        assert i0 == 1 and 0.0 < lam <= 100.0

    def test_global_null_retention(self):
        rng = np.random.default_rng(123)
        retained = [
            np.mean(fdrc_hard(rng.standard_normal(1024), 1.0) != 0.0)
            for _ in range(100)
        ]
        assert np.mean(retained) <= 2 * FDRC_Q

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            fdrc_hard(np.ones(4), sigma=0.0)


class TestApplyThreshold:
    @staticmethod
    def _pyramid(n=1024, level=1, seed=0):
        rng = np.random.default_rng(seed)
        return decompose(rng.standard_normal(n), get_family("haar"), level)

    def test_none_is_bitwise_identity(self):
        p = self._pyramid()
        out = apply_threshold(p, ThresholdSpec(method="none"))
        assert np.array_equal(out.approx, p.approx)
        for a, b in zip(out.details, p.details):
            assert np.array_equal(a, b)

    def test_approx_untouched_by_all_methods(self):
        p = self._pyramid(level=3)
        for method in ("cdf", "visu_soft", "visu_hard", "fdrc"):
            out = apply_threshold(p, ThresholdSpec(method=method))
            assert np.array_equal(out.approx, p.approx)
            assert [d.shape for d in out.details] == [d.shape for d in p.details]

    def test_visu_hard_on_zero_details(self):
        p = self._pyramid()
        zeroed = type(p)(p.approx, tuple(np.zeros_like(d) for d in p.details))
        out = apply_threshold(zeroed, ThresholdSpec(method="visu_hard"))
        for d in out.details:
            assert np.all(d == 0.0)

    def test_visu_noise_suppression(self):
        # pure noise details essentially all fall below the universal threshold
        p = self._pyramid(seed=5)
        out = apply_threshold(p, ThresholdSpec(method="visu_hard"))
        assert np.mean(out.details[0] == 0.0) >= 0.99

    def test_fdrc_null_fraction(self):
        fractions = [
            np.mean(
                np.concatenate(
                    apply_threshold(
                        self._pyramid(seed=s), ThresholdSpec(method="fdrc")
                    ).details
                )
                != 0.0
            )
            for s in range(100)
        ]
        assert np.mean(fractions) <= 0.02

    def test_fdrc_with_no_discovery_zeroes_every_detail_to_positive_zero(self):
        # unit magnitudes give sigma_hat = 1 / 0.6745, so every p-value is
        # 0.5 > q: fdrc_lambda returns inf and every detail becomes +0.0
        p = self._pyramid(level=2)
        signs = type(p)(p.approx, tuple(np.where(d < 0, -1.0, 1.0) for d in p.details))
        sigma = estimate_sigma(signs.details[-1])
        assert math.isinf(fdrc_lambda(np.concatenate(signs.details), sigma)[0])
        out = apply_threshold(signs, ThresholdSpec(method="fdrc"))
        for before, after in zip(signs.details, out.details):
            assert after.shape == before.shape and after.dtype == np.float64
            assert np.all(after == 0.0) and not np.any(np.signbit(after))
        assert np.array_equal(out.approx, p.approx)

    @pytest.mark.parametrize("method", ["visu_hard", "fdrc"])
    def test_hard_methods_idempotent(self, method):
        for seed in range(5):
            p = self._pyramid(level=2, seed=seed)
            spec = ThresholdSpec(method=method)
            once = apply_threshold(p, spec)
            twice = apply_threshold(once, spec)
            for a, b in zip(once.details, twice.details):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("method", ["cdf", "visu_soft", "visu_hard", "fdrc"])
    def test_support_shrinkage(self, method):
        p = self._pyramid(level=2, seed=9)
        out = apply_threshold(p, ThresholdSpec(method=method))
        for before, after in zip(p.details, out.details):
            assert np.all(before[after != 0.0] != 0.0)
        if method == "visu_soft":
            lam = visu_lambda(p.details[-1], sum(b.size for b in (p.approx, *p.details)))
            for before, after in zip(p.details, out.details):
                kept = after != 0.0
                if lam > 0:
                    assert np.all(np.abs(after[kept]) < np.abs(before[kept]))


class TestSpecValidation:
    def test_bad_method(self):
        with pytest.raises(ValueError):
            ThresholdSpec(method="sure")
