"""Scores on held-out horizons with missing truth values, the
seasonal-naive baseline on contexts with missing values, and the
aggregates across datasets: relative scores and average ranks."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # NaN marks the score; the caller reports it
        assert np.isnan(wql(truth, quantiles))
        assert np.isnan(mase(truth, np.ones(16), CONTEXT, 7))
        assert np.isnan(vrse(truth, np.ones(16)))
        assert np.isnan(wql(np.zeros(16), quantiles))


def test_seasonal_naive_fills_missing_phases_from_earlier_seasons():
    nan = np.nan
    # season 3; phase 0 is missing in the last two seasons, phase 2 in
    # every season, so it takes the last observed value (7.0)
    context = np.array([1.0, 2.0, nan, 4.0, 5.0, nan, nan, 6.0, nan, nan, 7.0, nan])
    point = seasonal_naive(context, 3, 7)
    np.testing.assert_array_equal(point, [4.0, 7.0, 7.0, 4.0, 7.0, 7.0, 4.0])
    # the earliest, partial season holds phase 2 only
    point = seasonal_naive(np.array([9.0, 1.0, 2.0, nan, 4.0, 5.0, nan]), 3, 3)
    np.testing.assert_array_equal(point, [4.0, 5.0, 9.0])
    with pytest.raises(ValueError, match="no observed values"):
        seasonal_naive(np.full(5, nan), 2, 3)


def test_mase_scale_uses_pairs_with_both_values_observed():
    context = np.array([1.0, 3.0, np.nan, 2.0, 6.0, 4.0, np.nan])
    truth, forecast = np.array([1.0, 2.0]), np.array([2.0, 4.0])
    # of the five lag-2 pairs only (1, 3) and (3, 5) are observed:
    # |3 - 2| + |2 - 4| = 3, against an absolute error sum of 3 over 2 steps
    assert mase(truth, forecast, context, 2) == pytest.approx(2 / 2 * 3 / 3, rel=1e-15)
    assert np.isnan(mase(truth, forecast, np.array([1.0, np.nan, np.nan, 2.0]), 2))


def test_left_padding_scores_like_the_observed_values():
    observed = RNG.normal(5.0, 2.0, size=50)
    padded = np.concatenate([np.full(14, np.nan), observed])
    for season in (1, 7, 24):
        assert (seasonal_naive(padded, season, 16) == seasonal_naive(observed, season, 16)).all()
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


@pytest.mark.parametrize("undefined", [np.nan, np.inf])
def test_average_rank_leaves_out_a_dataset_with_a_non_finite_score(undefined):
    table = np.array([[1.0, undefined, 4.0], [2.0, 3.0, 1.0], [3.0, 1.0, 2.0]])
    np.testing.assert_array_equal(average_rank(table), average_rank(table[:, [0, 2]]))
    np.testing.assert_array_equal(average_rank(table), [2.0, 1.5, 2.5])
    assert np.isnan(average_rank(table[:, 1:2])).all() and len(average_rank(table[:, 1:2])) == 3


@pytest.mark.parametrize("table", [[1.0, 2.0], np.ones((2, 2, 2))])
def test_average_rank_refuses_tables_that_are_not_2d(table):
    with pytest.raises(ValueError):
        average_rank(table)


def test_aggregate_relative_is_the_geometric_mean_of_the_ratios():
    assert aggregate_relative([2.0, 8.0], [1.0, 2.0]) == pytest.approx(8.0 ** 0.5)
    assert aggregate_relative([3.0], [2.0]) == pytest.approx(1.5)


def test_aggregate_relative_excludes_non_positive_and_nan_ratios():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert aggregate_relative([0.0, 2.0, -1.0, np.nan, 8.0],
                                  [1.0, 1.0, 1.0, 1.0, 2.0]) == pytest.approx(8.0 ** 0.5)
        # a baseline that is not positive leaves its ratio undefined, even 0 / 0
        assert aggregate_relative([2.0, 1.0, 0.0, 1.0, 8.0],
                                  [1.0, 0.0, 0.0, np.nan, 2.0]) == pytest.approx(8.0 ** 0.5)
        assert np.isnan(aggregate_relative([0.0], [0.0]))


def test_aggregate_relative_is_nan_when_every_ratio_is_excluded():
    assert np.isnan(aggregate_relative([0.0, -1.0], [1.0, 2.0]))


def test_aggregate_relative_refuses_mismatched_datasets():
    with pytest.raises(ValueError, match="same datasets"):
        aggregate_relative([1.0, 2.0], [1.0])


def stacked_rows():
    """Truth, forecast and context rows: clean, gappy, all-missing truth,
    zero-energy truth, a perfectly seasonal context, a context with no
    observed seasonal pair, and a truth with one observed step."""
    rng = np.random.default_rng(9)
    truth, forecast = rng.normal(5.0, 2.0, (8, 16)), rng.normal(5.0, 2.0, (8, 16))
    context = rng.normal(5.0, 2.0, (8, 64))
    truth[1, [0, 5, 6, 15]] = context[1, [3, 40]] = np.nan
    truth[2] = np.nan
    truth[3] = 0.0
    context[4] = np.tile(rng.normal(size=2), 32)
    context[5, ::2] = np.nan
    context[5, 1::4] = np.nan
    truth[6, 1:] = np.nan
    truth[7, 2:12] = np.nan
    return truth, forecast, context


def same_bits(got, expected):
    got, expected = np.asarray(got, dtype=np.float64), np.asarray(expected, dtype=np.float64)
    return got.shape == expected.shape and got.tobytes() == expected.tobytes()


def test_stacked_rows_are_bit_identical_to_one_row_calls():
    truth, forecast, context = stacked_rows()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an undefined row is NaN; the caller reports it
        mase_rows, vrse_rows = mase(truth, forecast, context, 2), vrse(truth, forecast)
        alone = [(mase(t, f, c, 2), vrse(t, f)) for t, f, c in zip(truth, forecast, context)]
    assert all(m.shape == v.shape == () for m, v in alone)
    assert same_bits(mase_rows, [m for m, _ in alone])
    assert same_bits(vrse_rows, [v for _, v in alone])
    assert np.isnan(mase_rows[[2, 4, 5]]).all() and np.isnan(vrse_rows[[2, 3, 6]]).all()
    assert np.isfinite(mase_rows[[0, 1, 3, 6, 7]]).all() and np.isfinite(vrse_rows[[0, 1, 7]]).all()
    nested = mase(truth.reshape(2, 4, 16), forecast.reshape(2, 4, 16),  # any leading axes
                  context.reshape(2, 4, 64), 2)
    assert same_bits(nested, mase_rows.reshape(2, 4))

    paths = np.random.default_rng(2).normal(size=(8, 20, 16))
    paths[3] = 0.0
    quantiles = sample_quantiles(paths)
    assert quantiles.shape == (len(QUANTILE_LEVELS), 8, 16)
    for i in range(8):
        assert same_bits(quantiles[:, i], sample_quantiles(paths[i]))

    context[6] = np.nan  # left padding: fewer observed values than a season
    context[6, -3:] = [1.0, np.nan, 2.0]
    point = seasonal_naive(context, 7, 16)
    assert point.shape == (8, 16)
    for i in range(8):
        assert same_bits(point[i], seasonal_naive(context[i], 7, 16))
    with pytest.raises(ValueError, match="1 context row"):
        seasonal_naive(np.vstack([context, np.full(64, np.nan)]), 7, 16)


# few distinct values, so columns hold ties, and NaN, +-inf and both zeros
SAMPLE_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5, np.nan, np.inf, -np.inf]),
                          st.floats(-1e300, 1e300))


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.lists(st.integers(1, 3), max_size=2), st.integers(1, 25), st.integers(1, 4))
       .flatmap(lambda dims: hnp.arrays(np.float64, (*dims[0], dims[1], dims[2]),
                                        elements=SAMPLE_VALUES)))
def test_sample_quantiles_equal_numpys_linear_quantiles_bit_for_bit(samples):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf, as numpy's own
        got = sample_quantiles(samples)
        expected = np.quantile(samples, QUANTILE_LEVELS, axis=-2, method="linear")
    # a sort and a partition alike leave the order of 0.0 and -0.0 arbitrary
    zero, negative = samples == 0.0, np.signbit(samples)
    keep = ~((zero & negative).any(axis=-2) & (zero & ~negative).any(axis=-2))
    assert got.shape == expected.shape and same_bits(got[:, keep], expected[:, keep])
