"""Dataset ingestion, export and train/test window extraction.

Two on-disk formats are supported, optionally gzip-compressed. The format
always comes from the file name (``.csv``, ``.jsonl`` or ``.ndjson``, each
optionally followed by ``.gz``); any other name is rejected:

* ``long-csv``: header ``item_id,timestamp,value``, one observation per
  row, ISO-8601 timestamps, empty value field = missing.
* ``jsonl``: one record per series with fields ``item_id``, ``start``,
  ``freq`` and ``target`` (a flat array of numbers; ``null`` entries are
  missing). An optional leading ``{"__meta__": {...}}`` record carries
  provenance and is preserved in ``Dataset.meta``.

Infinite values are refused at ingestion, naming ``path:line``: a missing
value is written as missing, never as an infinity.
"""

from __future__ import annotations

import calendar
import gzip
import json
import math
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path

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


_DELTA_TAGS = [
    (timedelta(minutes=1), "min"),
    (timedelta(minutes=15), "15min"),
    (timedelta(minutes=30), "30min"),
    (timedelta(hours=1), "h"),
    (timedelta(days=1), "d"),
    (timedelta(weeks=1), "w"),
]

_STEP_BY_TAG = {tag: delta for delta, tag in _DELTA_TAGS}
_MONTH_STEPS = {"m": 1, "monthly": 1, "q": 3, "quarterly": 3, "y": 12, "a": 12, "yearly": 12}


def _freq_tag(delta: timedelta) -> str:
    for step, tag in _DELTA_TAGS:
        if delta == step:
            return tag
    days = delta.days
    if 28 <= days <= 31:
        return "m"
    if 89 <= days <= 93:
        return "q"
    if 365 <= days <= 366:
        return "y"
    return f"{int(delta.total_seconds())}s"


def _advance(start: datetime, freq: str, steps: int) -> datetime:
    if steps == 0:
        return start
    key = freq.lower()
    if key in _MONTH_STEPS:
        months = start.year * 12 + (start.month - 1) + _MONTH_STEPS[key] * steps
        year, month = divmod(months, 12)
        day = min(start.day, calendar.monthrange(year, month + 1)[1])
        return start.replace(year=year, month=month + 1, day=day)
    if key in _STEP_BY_TAG:
        return start + _STEP_BY_TAG[key] * steps
    if key.endswith("s") and key[:-1].isdigit():
        return start + timedelta(seconds=int(key[:-1])) * steps
    raise ValueError(f"cannot generate timestamps for frequency tag {freq!r}")


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
    rows: dict[str, list[tuple[datetime, float, int]]] = {}
    seen: dict[tuple[str, str], int] = {}
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
            key = (item_id, ts_text)
            if key in seen:
                raise ValueError(
                    f"{path}:{lineno}: duplicate (item_id, timestamp) {key}; "
                    f"first occurrence at line {seen[key]}"
                )
            seen[key] = lineno
            if value_text == "":
                value = float("nan")
            else:
                try:
                    value = float(value_text)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: bad value {value_text!r}") from None
                if math.isinf(value):
                    raise ValueError(f"{path}:{lineno}: infinite value {value_text!r}")
            rows.setdefault(item_id, []).append((ts, value, lineno))

    if not rows:
        raise ValueError(f"{path}: no data rows")
    series = []
    tags = set()
    for item_id, triples in rows.items():
        triples.sort(key=lambda t: t[0])
        stamps = [t[0] for t in triples]
        values = np.array([t[1] for t in triples])
        if len(stamps) > 1:
            deltas = {stamps[i + 1] - stamps[i] for i in range(len(stamps) - 1)}
            if len(deltas) > 1:
                raise ValueError(f"{path}: series {item_id!r} has irregular timestamps")
            tags.add(_freq_tag(deltas.pop()))
        series.append(TimeSeries(item_id=item_id, start=stamps[0], freq="", values=values))
    if len(tags) > 1:
        raise ValueError(f"{path}: mixed sampling frequencies {sorted(tags)}")
    freq = tags.pop() if tags else "u"
    for s in series:
        s.freq = freq
    return Dataset(series=series, freq=freq)


def _load_jsonl(path) -> Dataset:
    series = []
    meta: dict = {}
    freqs = set()
    with _open_text(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: bad JSON: {exc}") from None
            if "__meta__" in record:
                meta = record["__meta__"]
                continue
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
            series.append(
                TimeSeries(item_id=item_id, start=start, freq=record["freq"], values=values)
            )
    if not series:
        raise ValueError(f"{path}: no series records")
    if len(freqs) > 1:
        raise ValueError(f"{path}: mixed sampling frequencies {sorted(freqs)}")
    return Dataset(
        series=series, freq=freqs.pop(), meta=meta
    )


def save_dataset(dataset: Dataset, path) -> None:
    """Write a dataset; floats use their shortest round-tripping decimal
    form."""
    if _detect_format(path) == "long-csv":
        with _open_text(path, "w") as fh:
            fh.write("item_id,timestamp,value\n")
            for s in dataset.series:
                for i, v in enumerate(s.values.tolist()):
                    ts = _advance(s.start, s.freq, i)
                    text = repr(v) if v == v else ""
                    fh.write(f"{s.item_id},{ts.isoformat()},{text}\n")
    else:
        with _open_text(path, "w") as fh:
            if dataset.meta:
                fh.write(json.dumps({"__meta__": dataset.meta}, sort_keys=True) + "\n")
            for s in dataset.series:
                record = {
                    "item_id": s.item_id,
                    "start": s.start.isoformat(),
                    "freq": s.freq,
                    "target": [v if v == v else None for v in s.values.tolist()],  # NaN != NaN
                }
                fh.write(json.dumps(record, sort_keys=True) + "\n")


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
