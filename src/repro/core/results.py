"""Result containers and the summary statistics the paper plots.

Every figure in the paper plots, per device, the *median* of repeated
measurements with quartiles as error bars; :class:`Summary` computes exactly
that.  Population medians/means across the device set (the horizontal lines
in the figures) come from :func:`population_stats`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


def median(values: Sequence[float]) -> float:
    """Middle value (mean of the middle two for even counts)."""
    if not values:
        raise ValueError("median of empty sequence")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean, added left to right as ``sum()`` did through Python 3.11.

    Python 3.12's ``sum()`` adds floats with compensated summation, which
    can move a mean's last bit; stored cells must not depend on the
    interpreter, so this keeps the older order.
    """
    if not values:
        raise ValueError("mean of empty sequence")
    total = 0
    for value in values:
        total += value
    return total / len(values)


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default method)."""
    if not values:
        raise ValueError("quantile of empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return ordered[low]
    weight = position - low
    return ordered[low] * (1 - weight) + ordered[high] * weight


@dataclass(frozen=True)
class Summary:
    """Median + quartiles of one device's repeated measurements."""

    samples: tuple

    @classmethod
    def of(cls, values: Sequence[float]) -> "Summary":
        """Summarize a non-empty sample sequence."""
        if not values:
            raise ValueError("cannot summarize zero samples")
        return cls(tuple(float(v) for v in values))

    @property
    def median(self) -> float:
        """Median of the samples."""
        return median(self.samples)

    @property
    def q1(self) -> float:
        """First quartile."""
        return quantile(self.samples, 0.25)

    @property
    def q3(self) -> float:
        """Third quartile."""
        return quantile(self.samples, 0.75)

    @property
    def iqr(self) -> float:
        """Inter-quartile range."""
        return self.q3 - self.q1

    @property
    def count(self) -> int:
        """Number of samples."""
        return len(self.samples)

    def __repr__(self) -> str:
        return f"Summary(median={self.median:.2f}, iqr={self.iqr:.2f}, n={self.count})"


def population_stats(values: Sequence[float]) -> Dict[str, float]:
    """The "Pop. Median" / "Pop. Mean" lines of the figures."""
    if not values:
        raise ValueError("population_stats of empty sequence")
    return {
        "median": median(values),
        "mean": mean(values),
        "min": min(values),
        "max": max(values),
    }


@dataclass
class DeviceSeries:
    """One figure's data: per-device summaries, orderable like the plots."""

    name: str
    unit: str
    summaries: Dict[str, Summary] = field(default_factory=dict)
    #: Devices whose measurement hit the test cutoff (e.g. TCP >24 h).
    censored: Dict[str, float] = field(default_factory=dict)

    def add(self, tag: str, summary: Summary) -> None:
        """Record one device's summary."""
        self.summaries[tag] = summary

    def add_censored(self, tag: str, cutoff: float) -> None:
        """Record a device that exceeded the measurement cutoff."""
        self.censored[tag] = cutoff

    def medians(self) -> Dict[str, float]:
        """Per-device medians (measured devices only)."""
        return {tag: s.median for tag, s in self.summaries.items()}

    def ordered_tags(self) -> List[str]:
        """Device tags sorted by increasing median (censored last), as the
        figures arrange their x axes."""
        measured = sorted(self.summaries, key=lambda tag: self.summaries[tag].median)
        return measured + sorted(self.censored)

    def value_for_stats(self, tag: str, censored_as: Optional[float] = None) -> Optional[float]:
        """The value a population statistic should use for ``tag``."""
        if tag in self.summaries:
            return self.summaries[tag].median
        if tag in self.censored and censored_as is not None:
            return censored_as
        return None

    def population(self, censored_as: Optional[float] = None) -> Dict[str, float]:
        """Population statistics over every device (censored substituted)."""
        values = []
        for tag in list(self.summaries) + list(self.censored):
            value = self.value_for_stats(tag, censored_as)
            if value is not None:
                values.append(value)
        return population_stats(values)
