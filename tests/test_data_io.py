"""Dataset files and the held-out-tail split: jsonl and long-CSV round
trips with missing values, the frequency table the CSV reader and writer
share, and the shapes ``split_last_h`` returns."""

import gzip
import json
import re
import struct
import sys
from datetime import datetime, timedelta

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavets.data_io import (Dataset, TimeSeries, load_dataset, read_jsonl, save_dataset,
                            season_length, split_last_h, write_jsonl)

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
        series=[TimeSeries("a", START, a), TimeSeries("b", START, b)],
        freq="h", meta={"source": "test"},
    )


def assert_same_series(got, expected):
    assert [s.item_id for s in got.series] == [s.item_id for s in expected.series]
    for g, e in zip(got.series, expected.series):
        assert g.start == e.start
        np.testing.assert_array_equal(g.values, e.values)  # NaN positions included
    assert got.freq == expected.freq


@pytest.mark.parametrize("name", ["data.jsonl", "data.jsonl.gz"])
def test_jsonl_round_trip_keeps_missing_values_and_meta(tmp_path, name):
    dataset = gappy_dataset()
    save_dataset(dataset, tmp_path / name)
    loaded = load_dataset(tmp_path / name)
    assert_same_series(loaded, dataset)
    assert loaded.meta == {"source": "test"}


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


CANONICAL = {"min": 1440, "15min": 96, "30min": 48, "h": 24, "d": 7, "w": 1, "m": 12, "q": 4,
             "y": 1}
ALIASES = {"hourly": "h", "daily": "d", "weekly": "w", "monthly": "m", "quarterly": "q",
           "yearly": "y", "a": "y", "H": "h", "Monthly": "m", "MIN": "min"}


@pytest.mark.parametrize("start", [datetime(2020, 1, 31, 6), datetime(2020, 2, 29)],
                         ids=["month-end", "leap-day"])
@pytest.mark.parametrize("tag", [*CANONICAL, *ALIASES])
def test_long_csv_round_trips_every_tag_under_its_canonical_name(tmp_path, tag, start):
    values = np.arange(30.0)
    values[4] = np.nan
    dataset = Dataset([TimeSeries("a", start, values), TimeSeries("b", start, values[:7])], tag)
    save_dataset(dataset, tmp_path / "data.csv")
    loaded = load_dataset(tmp_path / "data.csv")
    canonical = ALIASES.get(tag, tag)
    assert loaded.freq == canonical
    assert season_length(tag) == season_length(canonical) == CANONICAL[canonical]
    for got, expected in zip(loaded.series, dataset.series):
        assert (got.item_id, got.start) == (expected.item_id, start)
        np.testing.assert_array_equal(got.values, expected.values)
    save_dataset(loaded, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "data.csv").read_bytes()


def test_long_csv_steps_calendar_months_from_the_start_clamping_to_the_month_end(tmp_path):
    start = datetime(2020, 1, 31)
    save_dataset(Dataset([TimeSeries("a", start, np.arange(4.0))], "m"), tmp_path / "m.csv")
    assert (tmp_path / "m.csv").read_text().splitlines()[1:] == [
        "a,2020-01-31T00:00:00,0.0", "a,2020-02-29T00:00:00,1.0", "a,2020-03-31T00:00:00,2.0",
        "a,2020-04-30T00:00:00,3.0"]
    save_dataset(Dataset([TimeSeries("a", start, np.arange(2.0))], "q"), tmp_path / "q.csv")
    assert (tmp_path / "q.csv").read_text().splitlines()[2] == "a,2020-04-30T00:00:00,1.0"


@pytest.mark.parametrize("stamps, tag", [
    (["2021-01-01T00:00:00", "2021-01-01T02:00:00", "2021-01-01T04:00:00"], "7200s"),
    (["2020-01-01T00:00:00", "2020-01-31T00:00:00", "2020-03-01T00:00:00"], "2592000s"),
])
def test_long_csv_reads_a_step_outside_the_table_in_seconds_without_a_season(tmp_path, stamps,
                                                                             tag):
    path = tmp_path / "data.csv"
    path.write_text("item_id,timestamp,value\n" + "".join(f"a,{t},{i}.5\n"
                                                        for i, t in enumerate(stamps)))
    dataset = load_dataset(path)
    assert (dataset.freq, season_length(tag)) == (tag, None)
    save_dataset(dataset, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("stamps", [
    ["2021-01-01T00:00:00", "2021-01-01T00:00:00.500000", "2021-01-01T00:00:01"],
    ["2021-01-01T00:00:00", "2021-01-01T01:00:00", "2021-01-01T03:00:00"],
    ["2021-01-31T00:00:00", "2021-02-28T00:00:00", "2021-03-30T00:00:00"],  # m steps to Mar 31
])
def test_long_csv_refuses_a_series_that_no_tag_steps_through(tmp_path, stamps):
    path = tmp_path / "data.csv"
    path.write_text("item_id,timestamp,value\n" + "".join(f"a,{t},1.0\n" for t in stamps))
    with pytest.raises(ValueError, match="series 'a' has irregular timestamps"):
        load_dataset(path)


def test_long_csv_refuses_one_instant_written_two_ways_naming_both_lines(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("item_id,timestamp,value\na,2020-01-01T00:00:00,1\nb,2020-01-01T00:00:00,1\n"
                    "a,2020-01-01 00:00:00,2\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:4: duplicate \(item_id, "
                                         r"timestamp\) \('a', '2020-01-01T00:00:00'\); first "
                                         r"occurrence at line 2$"):
        load_dataset(path)


@pytest.mark.parametrize("tag", ["5min", "u", "0s"])
def test_save_dataset_refuses_a_tag_without_a_step_before_writing_a_byte(tmp_path, tag):
    dataset = Dataset([TimeSeries("a", START, [1.0]), TimeSeries("b", START, [1.0, 2.0])], tag)
    with pytest.raises(ValueError, match=f"cannot generate timestamps for frequency tag '{tag}'"):
        save_dataset(dataset, tmp_path / "data.csv")
    assert not (tmp_path / "data.csv").exists()
    assert season_length(tag) is None


def test_long_csv_of_single_row_series_round_trips_under_tag_u(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("item_id,timestamp,value\na,2021-01-01T00:00:00,1.5\nb,2021-06-01T12:00:00,\n")
    dataset = load_dataset(path)
    assert dataset.freq == "u"
    save_dataset(dataset, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_split_last_h_shapes():
    dataset = gappy_dataset()
    train, pairs = split_last_h(dataset, horizon=4, context_length=10)
    assert [p.item_id for p in pairs] == ["a", "b"]
    assert [(len(p.context), len(p.horizon)) for p in pairs] == [(10, 4), (8, 4)]
    for series, pair, head in zip(dataset.series, pairs, train.series):
        np.testing.assert_array_equal(pair.horizon, series.values[-4:])
        np.testing.assert_array_equal(pair.context, series.values[-14:-4][-10:])
        np.testing.assert_array_equal(head.values, series.values[:-4])
    assert (train.freq, train.meta) == ("h", {"source": "test"})


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


@pytest.mark.parametrize("lines, where", [
    (['{"item_id": "a", "start": "2021-01-01", "freq": "h", "target": [1.0, Infinity]}'], 1),
    (['{"__meta__": {}}', '{"item_id": "a", "start": "2021-01-01", "freq": "h", '
      '"target": [null, -Infinity, 2.0]}'], 2),
    (['{"item_id": "a", "start": "2021-01-01", "freq": "h", "target": [1.0, 2.0]}',
      '{"item_id": "b", "start": "2021-01-01", "freq": "h", "target": [1e400]}'], 2),
])
def test_jsonl_refuses_an_infinite_value_naming_its_line(tmp_path, lines, where):
    path = tmp_path / "data.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{where}: infinite value in target"):
        load_dataset(path)


@pytest.mark.parametrize("value", ["inf", "-Infinity", "1e400"])
def test_long_csv_refuses_an_infinite_value_naming_its_line(tmp_path, value):
    path = tmp_path / "data.csv"
    path.write_text("item_id,timestamp,value\na,2021-01-01T00:00:00,1.5\n"
                    f"a,2021-01-01T01:00:00,{value}\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: infinite value '{value}'$"):
        load_dataset(path)


@pytest.mark.parametrize("target, message", [
    ("[1.0, {}, 3.0]", "bad target"),
    ("[[1.0, 2.0], [3.0]]", "bad target"),
    ('["x"]', "bad target"),
    ("[[1.0, 2.0]]", "target must be a flat array of numbers, got 2 dimension"),
    ("4.0", "target must be a flat array of numbers, got 0 dimension"),
    ('["1.5", true, "nan", 3]', "target must be a flat array of numbers, got bool, str$"),
    ("[1.0, false, null]", "target must be a flat array of numbers, got bool$"),
])
def test_jsonl_refuses_a_target_that_is_no_flat_array_of_numbers(tmp_path, target, message):
    path = tmp_path / "data.jsonl"
    path.write_text('{"item_id": "a", "start": "2021-01-01", "freq": "h", "target": [1.0]}\n'
                    f'{{"item_id": "b", "start": "2021-01-01", "freq": "h", "target": {target}}}\n')
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: {message}"):
        load_dataset(path)


def test_jsonl_reads_nulls_as_missing_and_integers_as_floats(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"item_id": "a", "start": "2021-01-01", "freq": "h", '
                    '"target": [1, null, -0.0, 2.5, null]}\n')
    values = load_dataset(path).series[0].values
    assert values.dtype == np.float64
    np.testing.assert_array_equal(values, [1.0, np.nan, 0.0, 2.5, np.nan])
    assert np.signbit(values[2])


def test_save_dataset_writes_the_bytes_of_an_orjson_reference(tmp_path):
    values = np.array([np.nan, -0.0, 0.0, 1e308, -1e-308, 0.1, 1 / 3, np.nan, 5e-324])
    dataset = Dataset([TimeSeries("a", START, values)], "h", meta={"k": 1})
    save_dataset(dataset, tmp_path / "data.jsonl")
    target = [None if np.isnan(v) else float(v) for v in values]
    record = {"item_id": "a", "start": START.isoformat(), "freq": "h", "target": target}
    expected = b"".join(orjson.dumps(r, option=orjson.OPT_SORT_KEYS) + b"\n"
                        for r in ({"__meta__": {"k": 1}}, record))
    assert (tmp_path / "data.jsonl").read_bytes() == expected
    assert b'"target":[null,-0.0,0.0,1e308,-1e-308,0.1,0.3333333333333333,null,5e-324]}' in expected
    save_dataset(dataset, tmp_path / "data.csv")
    csv_values = [line.rsplit(",", 1)[1] for line in
                  (tmp_path / "data.csv").read_text().splitlines()[1:]]
    assert csv_values == ["" if np.isnan(v) else repr(float(v)) for v in values]
    assert_same_series(load_dataset(tmp_path / "data.jsonl"), dataset)


@pytest.mark.parametrize("name", ["data.jsonl", "data.jsonl.gz", "data.csv"])
def test_save_dataset_refuses_an_infinite_value_before_writing_a_byte(tmp_path, name):
    dataset = Dataset([TimeSeries("a", START, [1.0, 2.0]),
                       TimeSeries("b", START, [1.0, np.nan, -np.inf])], "h")
    with pytest.raises(ValueError, match=r"^series 'b': infinite value at index 2$"):
        save_dataset(dataset, tmp_path / name)
    assert not (tmp_path / name).exists()


@pytest.mark.parametrize("line, message", [
    ("5", "expected a JSON object, got int"),
    ("[1, 2]", "expected a JSON object, got list"),
    ('"text"', "expected a JSON object, got str"),
    ("{not json", "bad JSON: Expecting property name enclosed in double quotes"),
    ('{"__meta__": 5}', "the __meta__ header must be a JSON object"),
])
def test_jsonl_refuses_a_line_that_is_not_a_json_object_naming_it(tmp_path, line, message):
    path = tmp_path / "data.jsonl"
    path.write_text('{"item_id": "a", "start": "2021-01-01", "freq": "h", "target": [1.0]}\n'
                    f"\n{line}\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: {re.escape(message)}"):
        load_dataset(path)


@pytest.mark.parametrize("name", ["records.jsonl", "records.jsonl.gz"])
def test_jsonl_codec_round_trips_the_header_and_numbers_each_line(tmp_path, name):
    records = [{"b": [1.5, None], "a": "x"}, {"a": "y"}]
    write_jsonl(tmp_path / name, {"fingerprint": "f"}, iter(records))
    meta, lines = read_jsonl(tmp_path / name)
    assert (meta, list(lines)) == ({"fingerprint": "f"}, [(2, records[0]), (3, records[1])])
    write_jsonl(tmp_path / name, {}, records)  # an empty header is left out
    meta, lines = read_jsonl(tmp_path / name)
    assert (meta, list(lines)) == ({}, [(1, records[0]), (2, records[1])])
    if not name.endswith(".gz"):
        assert (tmp_path / name).read_text() == '{"a":"x","b":[1.5,null]}\n{"a":"y"}\n'


def read_lines(path) -> list[bytes]:
    with (gzip.open(path, "rb") if path.suffix == ".gz" else open(path, "rb")) as fh:
        return fh.read().splitlines()


@pytest.mark.parametrize("name", ["records.jsonl", "records.jsonl.gz"])
def test_jsonl_codec_writes_floats_that_read_back_bit_for_bit(tmp_path, name):
    values = [-0.0, 5e-324, 1e308, 1e-7, 1e16, 1 / 3, None, float("nan"), -float("inf")]
    write_jsonl(tmp_path / name, {"k": values}, [{"v": values}])
    meta, lines = read_jsonl(tmp_path / name)
    (_, record), = lines
    written = [exact(v) for v in values[:-2]] + [exact(None)] * 2  # non-finite: null
    assert [exact(v) for v in meta["k"]] == [exact(v) for v in record["v"]] == written
    header, line = read_lines(tmp_path / name)
    assert [exact(v) for v in json.loads(line)["v"]] == written
    assert line == b'{"v":[-0.0,5e-324,1e308,1e-7,1e16,0.3333333333333333,null,null,null]}'


@pytest.mark.parametrize("name", ["records.jsonl", "records.jsonl.gz"])
def test_jsonl_codec_writes_a_record_orjson_refuses_through_json_in_one_layout(tmp_path, name):
    records = [{"item_id": "\ud800", "v": [1.5, None]}, {"n": 2**70, "\u00e9": 1e-7},
               {"item_id": "\u00e9", "v": [1e-7]}]
    for record in records[:2]:
        with pytest.raises(orjson.JSONEncodeError):
            orjson.dumps(record)
    write_jsonl(tmp_path / name, {"source": "\ud800"}, records)
    assert read_lines(tmp_path / name) == [
        b'{"__meta__":{"source":"\\ud800"}}', b'{"item_id":"\\ud800","v":[1.5,null]}',
        b'{"n":1180591620717411303424,"\\u00e9":1e-07}', '{"item_id":"\u00e9","v":[1e-7]}'.encode()]
    meta, lines = read_jsonl(tmp_path / name)
    got = [record for _, record in lines]
    assert (meta, got[0], got[2]) == ({"source": "\ud800"}, records[0], records[2])
    assert exact(got[1]["n"]) == exact(2.0**70)  # orjson reads an int beyond 64 bits as a float
    assert got[1]["\u00e9"] == 1e-7
    assert [json.loads(line) for line in read_lines(tmp_path / name)[1:]] == records


def test_jsonl_reads_each_record_only_when_asked_and_refuses_a_later_header(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text('\n{"__meta__": {"k": 1}}\n{"a": 1}\n{"__meta__": {"k": 2}}\n{not json\n')
    meta, lines = read_jsonl(path)  # nothing past the header is read yet
    assert meta == {"k": 1} and next(lines) == (3, {"a": 1})
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:4: the __meta__ header must "
                                         "be a JSON object on the first line$"):
        next(lines)


def exact(value):
    """A float by its bits, so ``-0.0`` and ``0.0`` differ; any other value as it is."""
    return (type(value), struct.pack("<d", value) if isinstance(value, float) else value)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.none(),
                          st.integers(-2**63, 2**64 - 1)), max_size=30))
@example([-0.0, 0.0, 5e-324, -1e-310, -2.2250738585072014e-308, 1e-06, sys.float_info.max,
          -sys.float_info.max, None, -2**63, 2**64 - 1])
def test_jsonl_codec_gives_back_finite_floats_nulls_and_ints_bit_for_bit(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("codec") / "records.jsonl"
    write_jsonl(path, {"k": values}, [{"v": values}])
    meta, lines = read_jsonl(path)
    (lineno, record), = lines
    assert lineno == 2
    assert [exact(v) for v in meta["k"]] == [exact(v) for v in values]
    assert [exact(v) for v in record["v"]] == [exact(v) for v in values]


@pytest.mark.parametrize("line", [
    '{"target": [1.0, NaN]}',
    '{"target": [Infinity, 2.0]}',
    '{"target": [-Infinity]}',
    '{"target": [1e400, -1e400]}',
    '{"item_id": "\\ud800", "target": []}',
    "{not json",
    '{"a": 01}',
    '{"a": 1} x',
    '{"a": "\x01"}',
], ids=["nan", "infinity", "minus-infinity", "beyond-float64", "lone-surrogate", "not-json",
        "leading-zero", "extra-data", "control-character"])
def test_jsonl_reads_or_refuses_a_line_orjson_refuses_as_json_does(tmp_path, line):
    with pytest.raises(orjson.JSONDecodeError):
        orjson.loads(line)
    path = tmp_path / "records.jsonl"
    path.write_text('{"a": 1}\n' + line + "\n")
    _, lines = read_jsonl(path)
    assert next(lines) == (1, {"a": 1})
    try:
        expected = json.loads(line)
    except json.JSONDecodeError as exc:
        with pytest.raises(ValueError) as refused:
            next(lines)
        assert str(refused.value) == f"{path}:2: bad JSON: {exc}"
    else:
        assert repr(next(lines)) == repr((2, expected))  # repr, as nan != nan


def test_a_target_integer_beyond_64_bits_reads_as_the_float64_json_gives(tmp_path):
    target = "[1.5, 123456789012345678901234567890, -9223372036854775809, 18446744073709551616]"
    path = tmp_path / "data.jsonl"
    path.write_text(f'{{"item_id": "a", "start": "2021-01-01", "freq": "h", "target": {target}}}\n')
    _, lines = read_jsonl(path)
    assert [type(v) for v in next(lines)[1]["target"]] == [float] * 4  # json reads 3 ints
    values = load_dataset(path).series[0].values
    assert values.tobytes() == np.array(json.loads(target), dtype=np.float64).tobytes()


@pytest.mark.parametrize("name", ["data.jsonl", "data.csv"])
def test_the_dataset_tag_is_the_one_written_and_read_back(tmp_path, name):
    values = np.arange(5.0)
    dataset = Dataset([TimeSeries("a", START, values), TimeSeries("b", START, values)], "d")
    save_dataset(dataset, tmp_path / name)
    assert load_dataset(tmp_path / name).freq == "d"
    if name.endswith(".jsonl"):
        _, records = read_jsonl(tmp_path / name)
        assert [record["freq"] for _, record in records] == ["d", "d"]
    else:  # every series is stepped by the dataset's tag
        assert (tmp_path / name).read_text().splitlines()[5:7] == [
            "a,2021-03-05T06:00:00,4.0", "b,2021-03-01T06:00:00,0.0"]


@pytest.mark.parametrize("name", ["data.csv", "data.csv.gz"])
def test_long_csv_quotes_an_id_holding_a_comma_a_quote_or_a_line_break(tmp_path, name):
    ids = ["plain id", "a,b", 'a"b', "a,b\"c", "line\nbreak", "carriage\rreturn"]
    dataset = Dataset([TimeSeries(i, START, [1.5, np.nan]) for i in ids], "h")
    save_dataset(dataset, tmp_path / name)
    assert_same_series(load_dataset(tmp_path / name), dataset)
    if name == "data.csv":
        assert (tmp_path / name).read_bytes().decode().split("\n")[1:5] == [
            "plain id,2021-03-01T06:00:00,1.5", "plain id,2021-03-01T07:00:00,",
            '"a,b",2021-03-01T06:00:00,1.5', '"a,b",2021-03-01T07:00:00,']
        assert '\n"a""b",2021-03-01T06:00:00,1.5\n' in (tmp_path / name).read_text()
        # the writer quotes "\n" but not a lone "\r", at which the reader would end the row
        assert (tmp_path / name).read_bytes().decode().endswith(
            '\n"carriage\rreturn","2021-03-01T06:00:00","1.5"\n'
            '"carriage\rreturn","2021-03-01T07:00:00",""\n')


@pytest.mark.parametrize("name, text", [
    ("data.csv", "item_id,timestamp,value\n\n"),
    ("data.jsonl", '{"__meta__": {"k": 1}}\n\n'),
    ("data.jsonl", ""),
], ids=["csv", "jsonl-header-only", "jsonl-empty"])
def test_a_file_without_series_is_refused(tmp_path, name, text):
    (tmp_path / name).write_text(text)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(tmp_path / name))}: no series$"):
        load_dataset(tmp_path / name)


@pytest.mark.parametrize("name, text", [
    ("data.csv", "item_id,timestamp,value\na,2021-01-01T00:00:00,1\na,2021-01-01T01:00:00,2\n"
                 "b,2021-01-01T00:00:00,1\nb,2021-01-02T00:00:00,2\n"),
    ("data.jsonl", '{"item_id": "a", "start": "2021-01-01", "freq": "h", "target": [1.0]}\n'
                   '{"item_id": "b", "start": "2021-01-01", "freq": "d", "target": [1.0]}\n'),
], ids=["csv", "jsonl"])
def test_a_file_mixing_tags_is_refused(tmp_path, name, text):
    (tmp_path / name).write_text(text)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(tmp_path / name))}: mixed sampling "
                                         r"frequencies \['d', 'h'\]$"):
        load_dataset(tmp_path / name)


@pytest.mark.parametrize("rows", [
    ["a,2020-01-01T00:00:00,1", "a,2020-01-01T01:00:00+00:00,2"],
    ["a,2020-01-01T00:00:00+01:00,1", "b,2020-01-01T00:00:00,1", "a,2020-01-01T01:00:00,2"],
], ids=["naive-then-aware", "aware-then-naive"])
def test_long_csv_refuses_a_series_mixing_timestamps_with_and_without_an_offset(tmp_path, rows):
    path = tmp_path / "tz.csv"
    path.write_text("item_id,timestamp,value\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{len(rows) + 1}: series 'a' "
                                         "mixes timestamps with and without a UTC offset$"):
        load_dataset(path)


def test_long_csv_reads_series_that_differ_in_having_an_offset(tmp_path):
    path = tmp_path / "tz.csv"
    path.write_text("item_id,timestamp,value\na,2020-01-01T00:00:00,1\na,2020-01-01T01:00:00,2\n"
                    "b,2020-01-01T00:00:00+01:00,1\nb,2020-01-01T01:00:00+01:00,2\n")
    dataset = load_dataset(path)
    assert [s.start.utcoffset() for s in dataset.series] == [None, timedelta(hours=1)]
    assert dataset.freq == "h"


def test_long_csv_refuses_a_field_the_csv_module_cannot_read_naming_its_line(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text('item_id,timestamp,value\na,2020-01-01T00:00:00,1\na,"' + "x" * 200_000)
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: field larger than"):
        load_dataset(path)


@pytest.mark.parametrize("fields, message", [
    ('"start": "2021-01-01", "freq": ["h"]', "freq must be a string, got list"),
    ('"start": "2021-01-01", "freq": 1', "freq must be a string, got int"),
    ('"start": 5, "freq": "h"', "start must be a string, got int"),
], ids=["freq-list", "freq-int", "start-int"])
def test_jsonl_refuses_a_start_or_tag_that_is_no_string_naming_its_line(tmp_path, fields,
                                                                          message):
    path = tmp_path / "data.jsonl"
    path.write_text('{"item_id": "a", "start": "2021-01-01", "freq": "h", "target": [1.0]}\n'
                    f'{{"item_id": "b", {fields}, "target": [1.0]}}\n')
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: {re.escape(message)}$"):
        load_dataset(path)


@pytest.mark.parametrize("ids, line, first", [
    (['"a"', '"b"', '"a"'], 4, 1),
    (['"a"', None, '"series-1"'], 4, 2),  # a record without an id is series-N
], ids=["explicit", "default"])
def test_jsonl_refuses_a_duplicate_item_id_naming_both_lines(tmp_path, ids, line, first):
    path = tmp_path / "data.jsonl"
    records = [(f'"item_id": {i}, ' if i else "") + '"start": "2021-01-01", "freq": "h", '
               '"target": [1.0]' for i in ids]
    path.write_text(f"{{{records[0]}}}\n{{{records[1]}}}\n\n{{{records[2]}}}\n")
    item_id = json.loads(ids[2])
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{line}: duplicate item_id "
                                         rf"'{item_id}'; first occurrence at line {first}$"):
        load_dataset(path)


@pytest.mark.parametrize("item_id, type_name", [('["b"]', "list"), ("7", "int"),
                                                ("null", "NoneType")])
def test_jsonl_refuses_an_item_id_that_is_no_string_naming_its_line(tmp_path, item_id,
                                                                     type_name):
    path = tmp_path / "data.jsonl"
    path.write_text('{"item_id": "a", "start": "2021-01-01", "freq": "h", "target": [1.0]}\n'
                    f'{{"item_id": {item_id}, "start": "2021-01-01", "freq": "h", '
                    '"target": [1.0]}\n')
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: item_id must be a "
                                         rf"string, got {type_name}$"):
        load_dataset(path)


def test_jsonl_names_a_series_without_an_id_by_its_position(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"item_id": "a", "start": "2021-01-01", "freq": "h", "target": [1.0]}\n'
                    '{"start": "2021-01-01", "freq": "h", "target": [2.0]}\n')
    assert [s.item_id for s in load_dataset(path).series] == ["a", "series-1"]
