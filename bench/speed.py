"""Timing in reference seconds on a host whose speed drifts.

On shared machines the same pure-Python loop can take anywhere from 1x
to 1.6x its best time within a minute, in phases of several seconds, so
raw wall times of one workload spread by 20% from run to run.
:class:`SpeedClock` therefore samples a fixed probe at the start and
end of the timed block and every ``INTERVAL_S`` seconds in between (from
a ``SIGALRM`` handler, on the main thread, between bytecodes). Each stretch
of work between two probes is rescaled by ``REFERENCE_PROBE_S / mean(probe
before, probe after)``; the probes' own time is left out. The result is
the block's duration on a host where the probe takes ``REFERENCE_PROBE_S``.

The probe is the benchmark's own code and the timed program runs
single-threaded, so a change to the program cannot change the probe's
speed; only the host can.
"""

from __future__ import annotations

import json
import signal
import time

PROBE_ROUNDS = 30
REFERENCE_PROBE_S = 0.002
INTERVAL_S = 0.2
_PROBE_DATA = list(range(600))


def probe_s() -> float:
    """Seconds a fixed piece of pure-Python work takes right now.

    The work mixes what the CLI spends its time on (building tuples from
    generators, dict updates, list allocation, JSON encoding); it follows
    the host's speed changes about twice as closely as a bare arithmetic
    loop does.
    """
    counts: dict = {}
    start = time.perf_counter()
    for _ in range(PROBE_ROUNDS):
        key = tuple(int(x) for x in _PROBE_DATA)[-3:]
        counts[key] = counts.get(key, 0) + len([0.0] * 1024)
        json.dumps(_PROBE_DATA[:200])
    return time.perf_counter() - start


def work_seconds(samples) -> tuple[float, float]:
    """(raw, reference) seconds of the work between probe samples, each
    sample being (probe start, probe end, probe seconds)."""
    raw = scaled = 0.0
    for (_, end, before), (start, _, after) in zip(samples, samples[1:]):
        raw += start - end
        scaled += (start - end) * REFERENCE_PROBE_S / ((before + after) / 2.0)
    return raw, scaled


class SpeedClock:
    """Context manager timing its block in raw and reference seconds.

    Not reentrant: it owns ``SIGALRM`` while running, and works only on
    the main thread. ``on_probe(seconds)``, when given, is told how long
    each probe took, so a span clock can leave the probes out.
    """

    def __init__(self, on_probe=None):
        self.samples: list[tuple[float, float, float]] = []
        self._previous = None
        self._on_probe = on_probe

    def __enter__(self):
        self.samples = []
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def _sample(self, *_):
        start = time.perf_counter()
        seconds = probe_s()
        end = time.perf_counter()
        self.samples.append((start, end, seconds))
        if self._on_probe is not None:
            self._on_probe(end - start)

    @property
    def raw_s(self) -> float:
        return work_seconds(self.samples)[0]

    @property
    def seconds(self) -> float:
        return work_seconds(self.samples)[1]
