"""Estimators the campaign benchmark reports.

The host this benchmark was built on changes speed by tens of percent,
in bursts of 1-10 s and in drifts over minutes, so one campaign pass can
read 20% slower than the next for no reason in the code.  Two estimators
answer that:

* :class:`HostSpeed` times fixed reference work next to every measured
  interval and scales the interval to the speed of a nominal host, so a
  stretch in which the host is slow reads no slower;
* the benchmark runs whole passes and takes, for each shard, the median
  of its scaled times across the passes: the sum of those medians is the
  estimate.  A median, not a minimum: after scaling, the fastest value is
  mostly the one whose reference sample happened to read slow.
"""

from __future__ import annotations

import bisect
import json
import math
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Runs per reference sample; the sample is their median.
REFERENCE_LOOPS = 3
#: A pass takes a reference sample before a shard when the last one is
#: at least this old.
REFERENCE_INTERVAL_S = 0.2


def _interpreter_work() -> int:
    total = 0
    for i in range(10000):
        total += i * i % 7
    return total


_DOCUMENT = json.dumps(
    {"cells": [{"subject": f"d{i}", "values": list(range(i % 40)), "name": "x" * (i % 30)} for i in range(300)]}
)


def _json_work() -> None:
    for _ in range(3):
        json.loads(_DOCUMENT)


@dataclass(frozen=True)
class Reference:
    """Fixed work whose time tracks the host's speed for one kind of interval.

    Each was chosen by timing it between runs of the interval it scales,
    back to back for 2.5-3 minutes, and regressing log interval time on
    log reference time: a slope near 1 means the two slow down alike.
    """

    name: str
    work: Callable[[], Any]
    #: Seconds the work takes on the nominal host, the fast mode of the
    #: host described in the README.  Scaled times read as seconds there.
    nominal_s: float


#: For simulation and set-up.  Against 350 ms single-device campaigns:
#: slope 0.91-0.95, and campaign over reference spread 10% where the
#: campaign alone spread 28-37%.  A loop over dicts and ``heapq`` had
#: slope 0.56, and JSON decoding 0.70: both over-corrected.
INTERPRETER = Reference("interpreter", _interpreter_work, 0.00057)
#: For reports (store reads, JSON decoding, rendering).  Against 25 ms
#: reports: slope 0.98, spread 8.7% where the report alone spread 39%;
#: the interpreter reference had slope 1.31 and left 17%.
JSON_DECODE = Reference("json", _json_work, 0.0015)


def reference_sample(reference: Reference = INTERPRETER, loops: int = REFERENCE_LOOPS) -> float:
    """Seconds the reference work takes now: the median of ``loops`` runs."""
    times = []
    for _ in range(loops):
        started = time.perf_counter()
        reference.work()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


class HostSpeed:
    """Reference samples of one pass, and intervals scaled by them.

    An interval is scaled by the mean of the last sample taken before it
    and the first taken after it; the caller takes samples outside the
    intervals it measures, and one before and one after them all.
    ``pause`` is a CPU sampler (anything with a ``paused`` flag) that
    should not count the reference work.
    """

    def __init__(self, reference: Reference, pause: Any = None) -> None:
        self.reference = reference
        #: ``(start, end, seconds)`` per sample, in time order.
        self.samples: List[Tuple[float, float, float]] = []
        self._ends: List[float] = []
        self._starts: List[float] = []
        self._pause = pause

    def add(self, start: float, end: float, seconds: float) -> None:
        """Record a sample taken over ``[start, end]``; after all earlier ones."""
        self.samples.append((start, end, seconds))
        self._starts.append(start)
        self._ends.append(end)

    def sample(self) -> None:
        if self._pause is not None:
            self._pause.paused = True
        try:
            started = time.perf_counter()
            seconds = reference_sample(self.reference)
            self.add(started, time.perf_counter(), seconds)
        finally:
            if self._pause is not None:
                self._pause.paused = False

    def maybe_sample(self) -> None:
        """Take a sample if the last one is older than the interval."""
        if not self._ends or time.perf_counter() - self._ends[-1] >= REFERENCE_INTERVAL_S:
            self.sample()

    def spent(self, start: float, end: float) -> float:
        """Seconds of sampling inside ``[start, end]``."""
        lo = bisect.bisect_left(self._starts, start)
        return math.fsum(e - s for s, e, _ in self.samples[lo:] if e <= end)

    def factor(self, start: float, end: float) -> float:
        """Nominal over measured reference speed around ``[start, end]``."""
        around = []
        before = bisect.bisect_right(self._ends, start) - 1
        if before >= 0:
            around.append(self.samples[before][2])
        after = bisect.bisect_left(self._starts, end)
        if after < len(self.samples):
            around.append(self.samples[after][2])
        if not around:
            raise ValueError("no reference sample around the interval")
        return self.reference.nominal_s / statistics.fmean(around)

    def seconds(self, start: float, end: float) -> float:
        """``end - start`` on the nominal host."""
        return (end - start) * self.factor(start, end)


#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def per_key_median(passes: Sequence[Mapping[str, float]]) -> Dict[str, float]:
    """For every key seen in any pass, the median of its values across the passes."""
    seen: Dict[str, List[float]] = {}
    for sample in passes:
        for key, value in sample.items():
            seen.setdefault(key, []).append(value)
    return {key: statistics.median(values) for key, values in seen.items()}


def sum_of_medians(passes: Sequence[Mapping[str, float]]) -> float:
    """Sum over keys of each key's median across passes."""
    return math.fsum(per_key_median(passes).values())


def nearest_rank(values: Iterable[float], pct: float) -> float:
    """The nearest-rank ``pct`` percentile of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values: Sequence[float], beyond: int = TAIL_BEYOND) -> Optional[Tuple[int, float]]:
    """The highest whole percentile with at least ``beyond`` samples above it.

    Returns ``(pct, value)``, or ``None`` when there are fewer than
    ``2 * beyond`` samples: below that the "tail" would be the median or
    lower.
    """
    n = len(values)
    if n < 2 * beyond:
        return None
    pct = math.floor(100 * (n - beyond) / n)
    return pct, nearest_rank(values, pct)


def self_times(spans: Sequence[Tuple[str, float, float, Optional[int], Optional[str]]]) -> List[float]:
    """Each span's duration minus the time its child spans cover.

    ``spans`` are ``(name, start, end, parent_index, shard)`` rows recorded
    by one thread, so children of one parent never overlap.
    """
    child_time = [0.0] * len(spans)
    for _name, start, end, parent, _shard in spans:
        if parent is not None:
            child_time[parent] += end - start
    return [end - start - child_time[i] for i, (_n, start, end, _p, _s) in enumerate(spans)]
