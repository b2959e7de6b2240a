"""Dataset ingestion, export and train/test window extraction.

A dataset has one frequency tag, ``Dataset.freq``; a series carries none.

Two on-disk formats are supported, optionally gzip-compressed. The format
always comes from the file name (``.csv``, ``.jsonl`` or ``.ndjson``, each
optionally followed by ``.gz``); any other name is rejected, and so is a
truncated or corrupted ``.gz`` file, naming it:

* ``long-csv``: header ``item_id,timestamp,value``, one observation per
  row, ISO-8601 timestamps stepped by the dataset's tag, empty value field
  = missing; fields are quoted as the ``csv`` module's default dialect does,
  and every field of a series whose ``item_id`` holds a carriage return.
* ``jsonl``: one record per series with fields ``item_id`` (unique;
  ``series-N`` for the N-th record if absent), ``start``, ``freq`` (the
  dataset's tag, in every record; the reader refuses records that
  disagree) and ``target`` (a flat array of numbers; ``null`` entries
  are missing, and a string or a boolean is refused). An optional
  ``{"__meta__": {...}}`` record on the first line carries provenance and
  is preserved in ``Dataset.meta``.

Infinite values are refused at ingestion, naming ``path:line``, and by
:func:`save_dataset` before it writes a byte, naming the series: a missing
value is written as missing, never as an infinity.

One table gives each frequency tag, in any case or as an alias such as
``hourly``, its step and its season (:func:`season_length`). The CSV reader
gives a series the first tag whose steps, taken from its first timestamp by
the writer's own stepping, give every timestamp, else ``Ns`` for a first step
of N seconds if that fits; a series no tag fits is irregular, and a CSV of
one-row series gets the tag ``u``.

:func:`read_jsonl` and :func:`write_jsonl` are the one JSON-lines codec of
the package, for datasets, token files, forecasts and inverted windows
alike: a ``__meta__`` header, then one JSON object per line. The reader
hands out each record as it reads its line, so a dataset is converted
record by record.

The reader decodes each line with orjson, which parses lines of floats
several times faster than ``json`` and gives the same values bit for bit.
A line orjson refuses is parsed again by ``json``, so ``NaN``,
``Infinity``, ``-Infinity``, a number beyond float64 range and a
lone-surrogate escape read as before, and a malformed line keeps json's
``bad JSON`` message. One difference remains: orjson reads an integer
outside ``[-2**63, 2**64)`` as a float where ``json`` reads an int. A
target holds the same float64 values either way; a token record holding
one is still refused, naming ``float64`` where it named ``object``.

The writer encodes each record with orjson, keys sorted, as UTF-8 without
a space after ``:`` or ``,``. A float takes its shortest round-tripping
form (``1e-6``, ``1e16``), so every value reads back bit for bit through
the reader or ``json.loads``, and a non-finite float is written as
``null``. A numpy array is written with the bytes of its list: orjson
encodes a C-contiguous one itself, without building a Python list, and
any other one through its ``tolist()``; a non-finite float in an array
is written as ``null`` either way. A record orjson refuses (a
lone-surrogate string, an integer outside ``[-2**63, 2**64)``, a key that
is no string) is written by ``json.dumps`` with the same separators
instead, which escapes non-ASCII as ``\\uXXXX`` and writes a non-finite
float outside an array as ``NaN`` or ``Infinity``; the reader reads
either back.
"""

from __future__ import annotations

import calendar
import contextlib
import csv
import gzip
import itertools
import json
import math
import warnings
import zlib
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path
from typing import Iterator

import numpy as np
import orjson


@dataclass
class TimeSeries:
    """One univariate series; NaN entries in ``values`` mark missing
    observations."""

    item_id: str
    start: datetime
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class Dataset:
    """Series sampled at one frequency, whose tag is ``freq`` alone."""

    series: list[TimeSeries]
    freq: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        ids = [s.item_id for s in self.series]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate series identifiers: {dupes}")

    def __len__(self) -> int:
        return len(self.series)


@dataclass
class SplitPair:
    """Evaluation window: the horizon is the held-out tail of a series."""

    item_id: str
    context: np.ndarray
    horizon: np.ndarray


#: Each tag's step (a ``timedelta``, or a count of calendar months) and season.
_FREQUENCIES = {
    "min": (timedelta(minutes=1), 1440),
    "15min": (timedelta(minutes=15), 96),
    "30min": (timedelta(minutes=30), 48),
    "h": (timedelta(hours=1), 24),
    "d": (timedelta(days=1), 7),
    "w": (timedelta(weeks=1), 1),
    "m": (1, 12),
    "q": (3, 4),
    "y": (12, 1),
}
_ALIASES = {"hourly": "h", "daily": "d", "weekly": "w", "monthly": "m", "quarterly": "q",
            "yearly": "y", "a": "y"}


def _frequency(freq: str):
    """``(step, season length)`` of a tag in any case, aliases resolved; a tag
    ``Ns`` steps N seconds and has no season. ``(None, None)`` for a tag with no step."""
    key = str(freq).lower()
    key = _ALIASES.get(key, key)
    if key in _FREQUENCIES:
        return _FREQUENCIES[key]
    if key.endswith("s") and key[:-1].isdigit() and int(key[:-1]) > 0:
        return timedelta(seconds=int(key[:-1])), None
    return None, None


def season_length(freq: str) -> int | None:
    """The season length of a frequency tag; ``None`` for a tag without one."""
    return _frequency(freq)[1]


def _advance(start: datetime, step, steps: int) -> datetime:
    """``start`` moved by ``steps`` steps of a ``timedelta`` or a count of calendar months."""
    if isinstance(step, timedelta):
        return start + step * steps
    months = start.year * 12 + (start.month - 1) + step * steps
    year, month = divmod(months, 12)
    day = min(start.day, calendar.monthrange(year, month + 1)[1])
    return start.replace(year=year, month=month + 1, day=day)


def _freq_tag(stamps: list[datetime]) -> str | None:
    """The first table tag, else the first step in seconds, whose :func:`_advance`
    steps from the first timestamp give every timestamp; ``None`` if none does."""
    seconds = f"{int((stamps[1] - stamps[0]).total_seconds())}s"
    for tag in (*_FREQUENCIES, seconds):
        step = _frequency(tag)[0]
        if step and all(_advance(stamps[0], step, i) == t for i, t in enumerate(stamps)):
            return tag
    return None


def _open_text(path, mode: str, newline: str | None):
    """``newline=""`` leaves line ends to the ``csv`` module."""
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8", newline=newline)
    return open(path, mode, encoding="utf-8", newline=newline)


@contextlib.contextmanager
def _read_text(path, newline: str | None):
    """``path`` open for reading; a truncated or corrupted ``.gz`` file is
    a ValueError naming it."""
    with _open_text(path, "r", newline) as fh:
        try:
            yield fh
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise ValueError(f"{path}: {exc}") from None


def _detect_format(path) -> str:
    name = Path(path).name
    if name.endswith(".gz"):
        name = name[:-3]
    if name.endswith(".csv"):
        return "long-csv"
    if name.endswith((".jsonl", ".ndjson")):
        return "jsonl"
    raise ValueError(f"cannot infer dataset format from file name {Path(path).name!r}")


def load_dataset(path) -> Dataset:
    """Read a dataset file; malformed rows are reported with line
    numbers, and series with differing sampling frequencies are
    rejected."""
    if _detect_format(path) == "long-csv":
        return _load_long_csv(path)
    return _load_jsonl(path)


def _dataset(path, series: list[TimeSeries], tags: set, meta: dict) -> Dataset:
    """The rule both readers end in: a file holds series, all at one tag
    (``u`` if none has two timestamps to give it one)."""
    if not series:
        raise ValueError(f"{path}: no series")
    if len(tags) > 1:
        raise ValueError(f"{path}: mixed sampling frequencies {sorted(tags)}")
    return Dataset(series=series, freq=tags.pop() if tags else "u", meta=meta)


def _csv_rows(path) -> Iterator[tuple[int, list[str]]]:
    """``(line number, fields)`` for each non-blank row past the header, as it is read."""
    with _read_text(path, "") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            if header[:3] != ["item_id", "timestamp", "value"]:
                raise ValueError(f"{path}: expected header 'item_id,timestamp,value', got "
                                 f"{','.join(header)!r}")
            yield from ((reader.line_num, row) for row in reader if row)
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None


def _load_long_csv(path) -> Dataset:
    rows: dict[str, dict[datetime, tuple[float, int]]] = {}  # item_id: {time: (value, line)}
    for lineno, row in _csv_rows(path):
        if len(row) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
        item_id, ts_text, value_text = row
        try:
            ts = datetime.fromisoformat(ts_text)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad timestamp {ts_text!r}: {exc}") from None
        by_time = rows.setdefault(item_id, {})
        if by_time and (next(iter(by_time)).tzinfo is None) != (ts.tzinfo is None):
            raise ValueError(f"{path}:{lineno}: series {item_id!r} mixes timestamps with and "
                             "without a UTC offset")
        if ts in by_time:  # keyed by the instant, however its text writes it
            raise ValueError(f"{path}:{lineno}: duplicate (item_id, timestamp) ({item_id!r}, "
                             f"{ts.isoformat()!r}); first occurrence at line {by_time[ts][1]}")
        try:
            value = float(value_text or "nan")  # an empty field is missing
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad value {value_text!r}") from None
        if math.isinf(value):
            raise ValueError(f"{path}:{lineno}: infinite value {value_text!r}")
        by_time[ts] = (value, lineno)

    series, tags = [], set()
    for item_id, by_time in rows.items():
        stamps = sorted(by_time)
        if len(stamps) > 1:
            tag = _freq_tag(stamps)
            if tag is None:
                raise ValueError(f"{path}: series {item_id!r} has irregular timestamps")
            tags.add(tag)
        series.append(TimeSeries(item_id, stamps[0], np.array([by_time[t][0] for t in stamps])))
    return _dataset(path, series, tags, {})


def _decode(line: str):
    """orjson's value of one JSON text, or json's where orjson refuses it."""
    try:
        return orjson.loads(line)
    except orjson.JSONDecodeError:  # NaN, Infinity, 1e400, a lone surrogate, or bad JSON
        return json.loads(line)


def _json_objects(path) -> Iterator[tuple[int, dict]]:
    """``(line number, object)`` for each non-blank line, as it is read."""
    with _read_text(path, None) as fh:
        first_line = True  # the one line a header may take
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = _decode(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: bad JSON: {exc}") from None
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{lineno}: expected a JSON object, got "
                                 f"{type(record).__name__}")
            if "__meta__" in record and not (first_line and isinstance(record["__meta__"], dict)):
                raise ValueError(f"{path}:{lineno}: the __meta__ header must be a JSON object "
                                 "on the first line")
            first_line = False
            yield lineno, record


def read_jsonl(path) -> tuple[dict, Iterator[tuple[int, dict]]]:
    """The ``__meta__`` header of a JSON-lines file (``{}`` without one),
    and an iterator that reads ``(line number, record)`` for each other
    non-blank line only when asked for it. A line that is not a JSON
    object, or a header that is no object or not on the first non-blank
    line, is refused, naming ``path:line``."""
    objects = _json_objects(path)
    first = next(objects, None)
    if first and "__meta__" in first[1]:
        return first[1]["__meta__"], objects
    return {}, itertools.chain([first] if first else [], objects)


def _listed(value):
    """An array as the list orjson writes for it, a non-finite float as
    ``None``: for an array orjson does not encode itself (say, a
    non-contiguous view) and for json's fallback."""
    if not isinstance(value, np.ndarray):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if value.dtype.kind == "f" and not np.isfinite(value).all():
        value = np.where(np.isfinite(value), value, None)
    return value.tolist()


def _encode(record) -> bytes:
    """One JSON-lines line: orjson's, or json's where orjson refuses the
    record, an array written as its list either way."""
    try:
        return orjson.dumps(record, default=_listed, option=orjson.OPT_SORT_KEYS
                            | orjson.OPT_APPEND_NEWLINE | orjson.OPT_SERIALIZE_NUMPY)
    except orjson.JSONEncodeError:
        return (json.dumps(record, sort_keys=True, separators=(",", ":"), default=_listed)
                + "\n").encode()


def write_jsonl(path, meta: dict, records) -> None:
    """Write the ``__meta__`` header, unless ``meta`` is empty, then one
    record per line, keys sorted. A numpy array is written as its list,
    a non-finite float in it as ``null``, with no Python list built where
    orjson encodes the array itself."""
    with gzip.open(path, "wb") if Path(path).suffix == ".gz" else open(path, "wb") as fh:
        if meta:
            fh.write(_encode({"__meta__": meta}))
        for record in records:
            fh.write(_encode(record))


def scalar_types(nested, ndim: int) -> set[type]:
    """The types of the scalars ``ndim`` levels down a nested list, where
    ``ndim`` is the dimension count ``np.array`` gave it."""
    for _ in range(ndim - 1):
        nested = itertools.chain.from_iterable(nested)
    return set(map(type, nested)) if ndim else {type(nested)}


def _load_jsonl(path) -> Dataset:
    meta, records = read_jsonl(path)
    series, tags, first = [], set(), {}  # first: item_id -> its line
    for lineno, record in records:
        for field_name in ("start", "freq", "target"):
            if field_name not in record:
                raise ValueError(f"{path}:{lineno}: record is missing field {field_name!r}")
        record.setdefault("item_id", f"series-{len(series)}")
        for field_name in ("item_id", "start", "freq"):
            if not isinstance(record[field_name], str):
                raise ValueError(f"{path}:{lineno}: {field_name} must be a string, got "
                                 f"{type(record[field_name]).__name__}")
        item_id = record["item_id"]
        if first.setdefault(item_id, lineno) != lineno:
            raise ValueError(f"{path}:{lineno}: duplicate item_id {item_id!r}; first occurrence "
                             f"at line {first[item_id]}")
        try:
            values = np.array(record["target"], dtype=np.float64)  # null -> NaN
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: bad target: {exc}") from None
        if values.ndim != 1:
            raise ValueError(f"{path}:{lineno}: target must be a flat array of numbers, "
                             f"got {values.ndim} dimension(s)")
        stray = scalar_types(record["target"], 1) - {float, int, type(None)}
        if stray:  # np.array parses "1.5" and takes true for 1.0
            raise ValueError(f"{path}:{lineno}: target must be a flat array of numbers, "
                             f"got {', '.join(sorted(t.__name__ for t in stray))}")
        if np.isinf(values).any():
            raise ValueError(f"{path}:{lineno}: infinite value in target at index "
                             f"{int(np.flatnonzero(np.isinf(values))[0])}")
        try:
            start = datetime.fromisoformat(record["start"])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad start timestamp: {exc}") from None
        tags.add(record["freq"])
        series.append(TimeSeries(item_id=item_id, start=start, values=values))
    return _dataset(path, series, tags, meta)


def save_dataset(dataset: Dataset, path) -> None:
    """Write a dataset; floats use their shortest round-tripping decimal
    form, a missing value is written as ``null`` or an empty field, and
    every record or timestamp follows ``dataset.freq``. A series holding an
    infinity is refused before a byte is written."""
    for s in dataset.series:
        if np.isinf(s.values).any():
            raise ValueError(f"series {s.item_id!r}: infinite value at index "
                             f"{int(np.flatnonzero(np.isinf(s.values))[0])}")
    if _detect_format(path) == "jsonl":
        write_jsonl(path, dataset.meta, (
            {"item_id": s.item_id, "start": s.start.isoformat(), "freq": dataset.freq,
             "target": s.values}
            for s in dataset.series))
        return
    step = _frequency(dataset.freq)[0] if any(len(s) > 1 for s in dataset.series) else timedelta(0)
    if step is None:  # refused before a byte is written; one-row series need no step
        raise ValueError(f"cannot generate timestamps for frequency tag {dataset.freq!r}")
    with _open_text(path, "w", "") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        # the writer quotes a field holding ",", '"' or "\n", but not a lone "\r"
        quote_all = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(("item_id", "timestamp", "value"))
        for s in dataset.series:
            rows = ((s.item_id, _advance(s.start, step, i).isoformat(), repr(v) if v == v else "")
                    for i, v in enumerate(s.values.tolist()))
            (quote_all if "\r" in s.item_id else writer).writerows(rows)


def split_last_h(
    dataset: Dataset,
    horizon: int,
    context_length: int | None = None,
) -> tuple[Dataset, list[SplitPair]]:
    """Hold out the final ``horizon`` points of every series.

    Returns the truncated training view plus one (context, horizon) pair
    per series, the context being at most ``context_length`` points
    immediately preceding the horizon. Series too short to have a
    non-empty context are skipped with a warning.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be positive, got {horizon}")
    train_series = []
    pairs = []
    for s in dataset.series:
        if len(s) <= horizon:
            warnings.warn(
                f"series {s.item_id!r} has length {len(s)} <= horizon {horizon}; skipping"
            )
            continue
        head = s.values[:-horizon]
        context = head if context_length is None else head[-context_length:]
        pairs.append(
            SplitPair(item_id=s.item_id, context=context.copy(), horizon=s.values[-horizon:].copy())
        )
        train_series.append(TimeSeries(s.item_id, s.start, head.copy()))
    return Dataset(train_series, dataset.freq, dict(dataset.meta)), pairs
