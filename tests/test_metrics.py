"""Scores on held-out horizons with missing truth values, the
seasonal-naive baseline on contexts with missing values, and the
aggregates across datasets: relative scores and average ranks."""

import numpy as np
import pytest

from wavets.metrics import (
    QUANTILE_LEVELS, aggregate_relative, average_rank, mase, sample_quantiles, seasonal_naive, vrse,
    wql,
)

RNG = np.random.default_rng(4)
TRUTH = RNG.normal(5.0, 2.0, size=(3, 16))
PATHS = RNG.normal(5.0, 2.0, size=(3, 20, 16))
CONTEXT = RNG.normal(5.0, 2.0, size=64)


def with_gaps(truth):
    gappy = truth.copy()
    gappy[0, 3] = gappy[2, 0] = gappy[2, 9] = np.nan
    return gappy, ~np.isnan(gappy)


def test_wql_scores_only_observed_steps():
    truth, observed = with_gaps(TRUTH)
    quantiles = np.stack([sample_quantiles(p) for p in PATHS], axis=1)
    assert wql(truth, quantiles) == wql(truth[observed], quantiles[:, observed])
    assert np.isfinite(wql(truth, quantiles))


@pytest.mark.parametrize("series", [0, 2])
def test_mase_and_vrse_score_only_observed_steps(series):
    truth, observed = with_gaps(TRUTH)
    truth, observed = truth[series], observed[series]
    median = sample_quantiles(PATHS[series])[QUANTILE_LEVELS.index(0.5)]
    assert mase(truth, median, CONTEXT, 7) == mase(truth[observed], median[observed], CONTEXT, 7)
    assert vrse(truth, median) == vrse(truth[observed], median[observed])
    assert np.isfinite(mase(truth, median, CONTEXT, 7)) and np.isfinite(vrse(truth, median))


def test_all_missing_truth_is_flagged():
    truth = np.full(16, np.nan)
    quantiles = np.ones((len(QUANTILE_LEVELS), 16))
    for score in (lambda: wql(truth, quantiles), lambda: mase(truth, np.ones(16), CONTEXT, 7),
                  lambda: vrse(truth, np.ones(16))):
        with pytest.warns(UserWarning, match="undefined"):
            assert np.isnan(score())


def test_seasonal_naive_fills_missing_phases_from_earlier_seasons():
    nan = np.nan
    # season 3; phase 0 is missing in the last two seasons, phase 2 in
    # every season, so it takes the last observed value (7.0)
    context = np.array([1.0, 2.0, nan, 4.0, 5.0, nan, nan, 6.0, nan, nan, 7.0, nan])
    point, quantiles = seasonal_naive(context, 3, 7)
    np.testing.assert_array_equal(point, [4.0, 7.0, 7.0, 4.0, 7.0, 7.0, 4.0])
    assert quantiles.shape == (len(QUANTILE_LEVELS), 7) and (quantiles == point).all()
    # the earliest, partial season holds phase 2 only
    point, _ = seasonal_naive(np.array([9.0, 1.0, 2.0, nan, 4.0, 5.0, nan]), 3, 3)
    np.testing.assert_array_equal(point, [4.0, 5.0, 9.0])
    with pytest.raises(ValueError, match="no observed values"):
        seasonal_naive(np.full(5, nan), 2, 3)


def test_mase_scale_uses_pairs_with_both_values_observed():
    context = np.array([1.0, 3.0, np.nan, 2.0, 6.0, 4.0, np.nan])
    truth, forecast = np.array([1.0, 2.0]), np.array([2.0, 4.0])
    # of the five lag-2 pairs only (1, 3) and (3, 5) are observed:
    # |3 - 2| + |2 - 4| = 3, against an absolute error sum of 3 over 2 steps
    assert mase(truth, forecast, context, 2) == pytest.approx(2 / 2 * 3 / 3, rel=1e-15)
    with pytest.warns(UserWarning, match="no observed seasonal pair"):
        assert np.isnan(mase(truth, forecast, np.array([1.0, np.nan, np.nan, 2.0]), 2))


def test_left_padding_scores_like_the_observed_values():
    observed = RNG.normal(5.0, 2.0, size=50)
    padded = np.concatenate([np.full(14, np.nan), observed])
    for season in (1, 7, 24):
        assert (seasonal_naive(padded, season, 16)[0] == seasonal_naive(observed, season, 16)[0]).all()
        assert mase(TRUTH[0], TRUTH[1], padded, season) == mase(TRUTH[0], TRUTH[1], observed, season)


def test_average_rank_shares_tied_ranks():
    table = np.array([
        [1.0, 2.0, 5.0, 3.0],
        [2.0, 2.0, 5.0, 1.0],
        [3.0, 1.0, 5.0, 2.0],
    ])
    # per dataset: [1, 2, 3], [2.5, 2.5, 1], [2, 2, 2], [3, 1, 2]
    np.testing.assert_array_equal(average_rank(table), [2.125, 1.875, 2.0])
    np.testing.assert_array_equal(average_rank(table[:1]), [1.0])


@pytest.mark.parametrize("table", [
    [[1.0, np.nan], [2.0, 3.0]],
    [[1.0, np.inf], [2.0, 3.0]],
    [1.0, 2.0],
    np.ones((2, 2, 2)),
])
def test_average_rank_refuses_missing_entries_and_tables_that_are_not_2d(table):
    with pytest.raises(ValueError):
        average_rank(table)


def test_aggregate_relative_is_the_geometric_mean_of_the_ratios():
    assert aggregate_relative([2.0, 8.0], [1.0, 2.0]) == pytest.approx(8.0 ** 0.5)
    assert aggregate_relative([3.0], [2.0]) == pytest.approx(1.5)


def test_aggregate_relative_warns_and_excludes_non_positive_ratios():
    with pytest.warns(UserWarning, match="excluding 2 non-positive score ratio"):
        assert aggregate_relative([0.0, 2.0, -1.0, 8.0], [1.0, 1.0, 1.0, 2.0]) == pytest.approx(
            8.0 ** 0.5)


def test_aggregate_relative_is_nan_when_every_ratio_is_excluded():
    with pytest.warns(UserWarning, match="excluding 2 non-positive score ratio"):
        assert np.isnan(aggregate_relative([0.0, -1.0], [1.0, 2.0]))


def test_aggregate_relative_refuses_mismatched_or_non_positive_baselines():
    with pytest.raises(ValueError, match="same datasets"):
        aggregate_relative([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="must be positive"):
        aggregate_relative([1.0, 2.0], [1.0, 0.0])
