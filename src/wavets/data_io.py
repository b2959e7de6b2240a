"""Dataset ingestion, export and train/test window extraction.

Two on-disk formats are supported, optionally gzip-compressed. The format
always comes from the file name (``.csv``, ``.jsonl`` or ``.ndjson``, each
optionally followed by ``.gz``); any other name is rejected:

* ``long-csv``: header ``item_id,timestamp,value``, one observation per
  row, ISO-8601 timestamps, empty value field = missing.
* ``jsonl``: one record per series with fields ``item_id``, ``start``,
  ``freq`` and ``target`` (a flat array of numbers; ``null`` entries are
  missing). An optional ``{"__meta__": {...}}`` record on the first line
  carries provenance and is preserved in ``Dataset.meta``.

Infinite values are refused at ingestion, naming ``path:line``: a missing
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
"""

from __future__ import annotations

import calendar
import gzip
import itertools
import json
import math
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path
from typing import Iterator

import numpy as np


@dataclass
class TimeSeries:
    """One univariate series; NaN entries in ``values`` mark missing
    observations."""

    item_id: str
    start: datetime
    freq: str
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class Dataset:
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
    ``Ns`` steps N seconds and has no season. ``None`` for a tag with no step."""
    key = str(freq).lower()
    key = _ALIASES.get(key, key)
    if key in _FREQUENCIES:
        return _FREQUENCIES[key]
    if key.endswith("s") and key[:-1].isdigit() and int(key[:-1]) > 0:
        return timedelta(seconds=int(key[:-1])), None
    return None


def season_length(freq: str) -> int | None:
    """The season length of a frequency tag; ``None`` for a tag without one."""
    return (_frequency(freq) or (None, None))[1]


def _advance(start: datetime, freq: str, steps: int) -> datetime:
    if steps == 0:
        return start
    step, _ = _frequency(freq) or (None, None)
    if step is None:
        raise ValueError(f"cannot generate timestamps for frequency tag {freq!r}")
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
        if _frequency(tag) and all(_advance(stamps[0], tag, i) == t for i, t in enumerate(stamps)):
            return tag
    return None


def _open_text(path, mode: str):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


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


def _load_long_csv(path) -> Dataset:
    rows: dict[str, dict[datetime, tuple[float, int]]] = {}  # item_id: {time: (value, line)}
    with _open_text(path, "r") as fh:
        header = fh.readline().strip()
        if header.split(",")[:3] != ["item_id", "timestamp", "value"]:
            raise ValueError(f"{path}: expected header 'item_id,timestamp,value', got {header!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
            item_id, ts_text, value_text = parts
            try:
                ts = datetime.fromisoformat(ts_text)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad timestamp {ts_text!r}: {exc}") from None
            by_time = rows.setdefault(item_id, {})
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

    if not rows:
        raise ValueError(f"{path}: no data rows")
    series, tags = [], set()
    for item_id, by_time in rows.items():
        stamps = sorted(by_time)
        values = np.array([by_time[t][0] for t in stamps])
        if len(stamps) > 1:
            tag = _freq_tag(stamps)
            if tag is None:
                raise ValueError(f"{path}: series {item_id!r} has irregular timestamps")
            tags.add(tag)
        series.append(TimeSeries(item_id=item_id, start=stamps[0], freq="", values=values))
    if len(tags) > 1:
        raise ValueError(f"{path}: mixed sampling frequencies {sorted(tags)}")
    freq = tags.pop() if tags else "u"
    for s in series:
        s.freq = freq
    return Dataset(series=series, freq=freq)


def _json_objects(path) -> Iterator[tuple[int, dict]]:
    """``(line number, object)`` for each non-blank line, as it is read."""
    with _open_text(path, "r") as fh:
        first_line = True  # the one line a header may take
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
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


def write_jsonl(path, meta: dict, records) -> None:
    """Write the ``__meta__`` header, unless ``meta`` is empty, then one
    record per line, keys sorted."""
    with _open_text(path, "w") as fh:
        if meta:
            fh.write(json.dumps({"__meta__": meta}, sort_keys=True) + "\n")
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _load_jsonl(path) -> Dataset:
    meta, records = read_jsonl(path)
    series, freqs = [], set()
    for lineno, record in records:
        for field_name in ("start", "freq", "target"):
            if field_name not in record:
                raise ValueError(f"{path}:{lineno}: record is missing field {field_name!r}")
        try:
            values = np.array(record["target"], dtype=np.float64)  # null -> NaN
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: bad target: {exc}") from None
        if values.ndim != 1:
            raise ValueError(f"{path}:{lineno}: target must be a flat array of numbers, "
                             f"got {values.ndim} dimension(s)")
        if np.isinf(values).any():
            raise ValueError(f"{path}:{lineno}: infinite value in target at index "
                             f"{int(np.flatnonzero(np.isinf(values))[0])}")
        item_id = str(record.get("item_id", f"series-{len(series)}"))
        try:
            start = datetime.fromisoformat(record["start"])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad start timestamp: {exc}") from None
        freqs.add(record["freq"])
        series.append(TimeSeries(item_id=item_id, start=start, freq=record["freq"], values=values))
    if not series:
        raise ValueError(f"{path}: no series records")
    if len(freqs) > 1:
        raise ValueError(f"{path}: mixed sampling frequencies {sorted(freqs)}")
    return Dataset(series=series, freq=freqs.pop(), meta=meta)


def save_dataset(dataset: Dataset, path) -> None:
    """Write a dataset; floats use their shortest round-tripping decimal
    form."""
    if _detect_format(path) == "jsonl":
        write_jsonl(path, dataset.meta, (
            {"item_id": s.item_id, "start": s.start.isoformat(), "freq": s.freq,
             "target": [v if v == v else None for v in s.values.tolist()]}  # NaN != NaN
            for s in dataset.series))
        return
    for s in dataset.series:
        if len(s) > 1:
            _advance(s.start, s.freq, 1)  # refuse a tag with no step before writing a byte
    with _open_text(path, "w") as fh:
        fh.write("item_id,timestamp,value\n")
        for s in dataset.series:
            for i, v in enumerate(s.values.tolist()):
                ts = _advance(s.start, s.freq, i)
                text = repr(v) if v == v else ""
                fh.write(f"{s.item_id},{ts.isoformat()},{text}\n")


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
        train_series.append(
            TimeSeries(item_id=s.item_id, start=s.start, freq=s.freq, values=head.copy())
        )
    train = Dataset(
        series=train_series,
        freq=dataset.freq,
        meta=dict(dataset.meta),
    )
    return train, pairs
