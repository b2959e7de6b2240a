"""Dataset files and the held-out-tail split: jsonl and long-CSV round
trips with missing values, and the shapes ``split_last_h`` returns."""

from datetime import datetime

import numpy as np
import pytest

from wavets.data_io import Dataset, TimeSeries, load_dataset, save_dataset, split_last_h

START = datetime(2021, 3, 1, 6)


def gappy_dataset():
    """Two hourly series with missing values at the start, inside and at
    the end, and values whose shortest decimal form is long."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal(30)
    a[[0, 7, 8, 29]] = np.nan
    b = rng.standard_normal(12) * 1e-9
    b[5] = np.nan
    return Dataset(
        series=[TimeSeries("a", START, "h", a), TimeSeries("b", START, "h", b)],
        freq="h", prediction_length=4, meta={"source": "test"},
    )


def assert_same_series(got, expected):
    assert [s.item_id for s in got.series] == [s.item_id for s in expected.series]
    for g, e in zip(got.series, expected.series):
        assert (g.start, g.freq) == (e.start, e.freq)
        np.testing.assert_array_equal(g.values, e.values)  # NaN positions included
    assert got.freq == expected.freq


@pytest.mark.parametrize("name", ["data.jsonl", "data.jsonl.gz"])
def test_jsonl_round_trip_keeps_missing_values_and_meta(tmp_path, name):
    dataset = gappy_dataset()
    save_dataset(dataset, tmp_path / name)
    loaded = load_dataset(tmp_path / name, prediction_length=4)
    assert_same_series(loaded, dataset)
    assert loaded.meta == {"source": "test"}
    assert loaded.prediction_length == 4


@pytest.mark.parametrize("name", ["data.csv", "data.csv.gz"])
def test_long_csv_round_trip_keeps_missing_values(tmp_path, name):
    dataset = gappy_dataset()
    save_dataset(dataset, tmp_path / name)
    assert_same_series(load_dataset(tmp_path / name), dataset)


def test_long_csv_writes_an_empty_field_for_a_missing_value(tmp_path):
    save_dataset(gappy_dataset(), tmp_path / "data.csv")
    lines = (tmp_path / "data.csv").read_text().splitlines()
    assert lines[0] == "item_id,timestamp,value"
    assert lines[1] == "a,2021-03-01T06:00:00,"
    assert lines[2].startswith("a,2021-03-01T07:00:00,")
    assert len(lines) == 1 + 30 + 12


def test_split_last_h_shapes():
    dataset = gappy_dataset()
    train, pairs = split_last_h(dataset, horizon=4, context_length=10)
    assert [p.item_id for p in pairs] == ["a", "b"]
    assert [(len(p.context), len(p.horizon)) for p in pairs] == [(10, 4), (8, 4)]
    for series, pair, head in zip(dataset.series, pairs, train.series):
        np.testing.assert_array_equal(pair.horizon, series.values[-4:])
        np.testing.assert_array_equal(pair.context, series.values[-14:-4][-10:])
        np.testing.assert_array_equal(head.values, series.values[:-4])
    assert (train.freq, train.prediction_length, train.meta) == ("h", 4, {"source": "test"})


def test_split_last_h_without_context_length_keeps_the_whole_head():
    _, pairs = split_last_h(gappy_dataset(), horizon=4)
    assert [len(p.context) for p in pairs] == [26, 8]


def test_split_last_h_returns_copies():
    dataset = gappy_dataset()
    before = dataset.series[0].values.copy()
    train, pairs = split_last_h(dataset, horizon=4, context_length=10)
    pairs[0].context[:] = 0.0
    pairs[0].horizon[:] = 0.0
    train.series[0].values[:] = 0.0
    np.testing.assert_array_equal(dataset.series[0].values, before)


def test_split_last_h_skips_series_without_a_context():
    dataset = gappy_dataset()
    with pytest.warns(UserWarning, match="'b' has length 12 <= horizon 12"):
        train, pairs = split_last_h(dataset, horizon=12, context_length=10)
    assert [p.item_id for p in pairs] == ["a"]
    assert [s.item_id for s in train.series] == ["a"]
    assert (len(pairs[0].context), len(pairs[0].horizon)) == (10, 12)


def test_split_last_h_rejects_a_non_positive_horizon():
    with pytest.raises(ValueError, match="horizon must be positive"):
        split_last_h(gappy_dataset(), horizon=0)
