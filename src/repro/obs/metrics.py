"""Metrics registry: counters, gauges, histograms, virtual-time spans.

A :class:`MetricsRegistry` is the aggregate view of an observed run — where
the JSONL trace answers "what happened, in order", the registry answers "how
much, how often, how long".  It is a plain picklable value: each survey
shard builds its own, ships it back across the process-pool boundary on its
results, and :meth:`MetricsRegistry.merge` folds shards together in catalog
order, so the merged registry is identical under ``jobs=1`` and ``jobs=N``
and prints verbatim under ``--metrics``.

All quantities are deterministic: counts of typed events and *virtual-time*
durations.  Wall-clock never enters (that is
:class:`~repro.core.stats.SimStats`' job).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Default histogram bucket upper bounds (seconds): spans NAT binding
#: lifetimes from sub-second transients to the 24 h TCP-1 cutoff.
DEFAULT_BOUNDS: Tuple[float, ...] = (0.1, 1.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0, 3600.0, 86400.0)


@dataclass
class Histogram:
    """Fixed-bucket histogram with count/sum/min/max sidecars.

    ``bucket_counts[i]`` counts observations ``<= bounds[i]``; the final
    slot is the overflow bucket.  Merging requires identical bounds.
    """

    bounds: Tuple[float, ...] = DEFAULT_BOUNDS
    bucket_counts: List[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    min: Optional[float] = None
    max: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.bucket_counts:
            self.bucket_counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                break
        else:
            self.bucket_counts[-1] += 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError(f"histogram bounds differ: {self.bounds} vs {other.bounds}")
        for index, bucket in enumerate(other.bucket_counts):
            self.bucket_counts[index] += bucket
        self.count += other.count
        self.total += other.total
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": round(self.total, 6),
            "mean": round(self.mean, 6),
            "min": self.min,
            "max": self.max,
            "buckets": {
                **{f"le_{bound:g}": n for bound, n in zip(self.bounds, self.bucket_counts)},
                "overflow": self.bucket_counts[-1],
            },
        }


class MetricsRegistry:
    """Counters, gauges, histograms and per-family virtual-time spans.

    Names are dotted strings; the :class:`MetricsSink` derives them from
    event kinds (``events.nat.bind``, ``drops.tail_drop``, ...), and the
    survey layer records one span per measurement family.  Merge semantics:
    counters and histograms add; gauges keep the maximum (they record
    high-water marks); spans accumulate count and virtual seconds.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        #: family -> {"count": runs, "virtual_seconds": total simulated time}
        self.spans: Dict[str, Dict[str, float]] = {}

    # -- recording --------------------------------------------------------

    def inc(self, name: str, delta: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + delta

    def gauge(self, name: str, value: float) -> None:
        """Record a high-water-mark gauge (merge keeps the max)."""
        current = self.gauges.get(name)
        if current is None or value > current:
            self.gauges[name] = value

    def observe(self, name: str, value: float, bounds: Tuple[float, ...] = DEFAULT_BOUNDS) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(bounds=bounds)
        histogram.observe(value)

    def record_span(self, family: str, virtual_seconds: float) -> None:
        """Account one measurement family run of ``virtual_seconds`` length."""
        span = self.spans.setdefault(family, {"count": 0, "virtual_seconds": 0.0})
        span["count"] += 1
        span["virtual_seconds"] += virtual_seconds

    # -- aggregation ------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry (typically a shard's) into this one."""
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in other.gauges.items():
            self.gauge(name, value)
        for name, histogram in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = Histogram(bounds=histogram.bounds)
            mine.merge(histogram)
        for family, span in other.spans.items():
            mine_span = self.spans.setdefault(family, {"count": 0, "virtual_seconds": 0.0})
            mine_span["count"] += span["count"]
            mine_span["virtual_seconds"] += span["virtual_seconds"]

    def as_dict(self) -> Dict[str, Any]:
        """Machine-readable form for ``--metrics`` output (sorted, JSON-safe)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": {k: v for k, v in sorted(self.gauges.items())},
            "histograms": {k: h.as_dict() for k, h in sorted(self.histograms.items())},
            "spans": {
                family: {"count": span["count"], "virtual_seconds": round(span["virtual_seconds"], 6)}
                for family, span in sorted(self.spans.items())
            },
        }


class MetricsSink:
    """Bus subscriber that folds the event stream into a registry.

    Every event increments ``events.<kind>``; drop events additionally
    increment ``drops.<cause>``; binding expiries feed the
    ``nat.binding_lifetime_s`` histogram.  Pure counting — no I/O — so it is
    cheap enough to leave on for whole campaigns.
    """

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry

    def handle(self, t: float, kind: str, fields: Dict[str, Any]) -> None:
        registry = self.registry
        registry.inc(f"events.{kind}")
        if kind.endswith(".drop") or kind == "nat.refused":
            cause = fields.get("cause")
            if cause is not None:
                registry.inc(f"drops.{cause}", int(fields.get("count", 1)))
        elif kind == "nat.expire":
            lifetime = fields.get("lifetime")
            if lifetime is not None:
                registry.observe("nat.binding_lifetime_s", float(lifetime))
