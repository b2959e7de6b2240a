"""In-memory span tracing around calls into the ``wavets`` layers.

A :class:`Tracer` replaces a public function at every ``wavets.*`` module
attribute bound to it (so ``wavets.cli.tokenize_pair`` and
``wavets.tokenizer.tokenize_pair`` are both covered), records one span per
call and restores the originals afterwards. Spans hold a name, start and
end times and the index of the enclosing span. A call that raises keeps
its span under the name ``<name>.failed`` and re-raises.

Observers attached to a wrapper see the call's arguments and result, so
ratios such as the PAD rate are counted where the work happens. Spans are
timed on a clock that stops while an observer runs, or while other
benchmark code reports itself through :meth:`Tracer.exclude`, so that work
lands in no span's busy or self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.flagged: set[int] = set()  # span indices an observer marked
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._excluded_s = 0.0  # harness time taken off the span clock so far

    def now(self) -> float:
        """The span clock: ``perf_counter`` less the excluded harness time."""
        return time.perf_counter() - self._excluded_s

    def exclude(self, seconds: float) -> None:
        """Take ``seconds`` of harness work that just ran off the span clock."""
        self._excluded_s += seconds

    # -- recording -----------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(index)
        self.starts.append(self.now())
        return index

    def close(self, index: int, failed: bool = False) -> None:
        self.ends[index] = self.now()
        self._stack.pop()
        if failed:
            self.names[index] += ".failed"

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        index = self.open(name)
        try:
            yield index
        except BaseException:
            self.close(index, failed=True)
            raise
        self.close(index)

    def wrap(self, fn, name: str, observe=None):
        """``fn`` with a span per call; ``observe(tracer, index, arguments,
        result)`` runs after each successful call, with the arguments bound
        to their parameter names, and off the span clock."""
        signature = inspect.signature(fn) if observe is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # open/close inline rather than `span`: this runs once per sampled token
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(index, failed=True)
                raise
            self.close(index)
            if observe is not None:
                start = self.now()  # on the span clock, so time excluded meanwhile counts once
                observe(self, index, signature.bind(*args, **kwargs).arguments, result)
                self.exclude(self.now() - start)
            return result

        return wrapper

    # -- patching ------------------------------------------------------

    def patch_function(self, module_name: str, attr: str, name: str, observe=None) -> int:
        """Wrap ``module_name.attr`` wherever a loaded ``wavets`` module
        binds the same object; returns the number of bindings patched."""
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = self.wrap(original, name, observe)
        patched = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "wavets" or mod_name.startswith("wavets.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)
                    patched += 1
        return patched

    def patch_method(self, cls, attr: str, name: str) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name))

    def restore(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- output --------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"name": name, "start": self.starts[i],
                                     "end": self.ends[i], "parent": self.parents[i]}) + "\n")


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its child spans
    cover (overlapping children are counted once)."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i in range(len(starts)):
        lo, hi = starts[i], ends[i]
        covered = 0.0
        cursor = lo
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            a, b = max(starts[c], cursor), min(ends[c], hi)
            if b > a:
                covered += b - a
                cursor = b
        out.append((hi - lo) - covered)
    return out


def summarize(tracer: Tracer) -> dict[str, dict]:
    """Per span name: call count, busy (inclusive) seconds, self seconds
    and the list of durations."""
    own = self_times(tracer.starts, tracer.ends, tracer.parents)
    stats: dict[str, dict] = {}
    for i, name in enumerate(tracer.names):
        entry = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []})
        duration = tracer.ends[i] - tracer.starts[i]
        entry["calls"] += 1
        entry["busy_s"] += duration
        entry["self_s"] += own[i]
        entry["durations"].append(duration)
    return stats
