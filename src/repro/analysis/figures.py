"""ASCII renderings of the paper's figures.

Each figure in the paper is a per-device bar/point chart, devices on the
x-axis ordered by increasing value, with the population median/mean in the
legend.  :func:`render_series` prints the same content as rows — one device
per line with a scaled bar — which diffs nicely in terminals and test logs.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.core.results import DeviceSeries

_BAR_WIDTH = 40


def _format_value(value: float) -> str:
    if value >= 100:
        return f"{value:8.1f}"
    return f"{value:8.2f}"


def _bar(value: float, maximum: float, log_scale: bool) -> str:
    if maximum <= 0:
        return ""
    if log_scale:
        scaled = math.log10(max(value, 1.0)) / math.log10(max(maximum, 10.0))
    else:
        scaled = value / maximum
    return "#" * max(int(scaled * _BAR_WIDTH), 1 if value > 0 else 0)


def render_series(
    series: DeviceSeries,
    title: str,
    log_scale: bool = False,
    censored_label: str = ">cutoff",
) -> str:
    """One figure: device rows ordered by increasing median, with quartiles."""
    lines = [title, "-" * len(title)]
    medians = series.medians()
    maximum = max(medians.values()) if medians else 1.0
    for tag in series.ordered_tags():
        if tag in series.summaries:
            summary = series.summaries[tag]
            bar = _bar(summary.median, maximum, log_scale)
            lines.append(
                f"{tag:>5}  {_format_value(summary.median)} {series.unit:<8} "
                f"[q1={summary.q1:8.2f} q3={summary.q3:8.2f}]  {bar}"
            )
        else:
            lines.append(f"{tag:>5}  {censored_label:>8} {series.unit:<8} " f"[cutoff={series.censored[tag]:.0f}]")
    if medians:
        population = series.population()
        lines.append(
            f"population: median={population['median']:.2f} mean={population['mean']:.2f} "
            f"min={population['min']:.2f} max={population['max']:.2f} ({series.unit}; measured devices only)"
        )
    return "\n".join(lines)


def render_series_multi(
    series_by_label: Dict[str, DeviceSeries],
    title: str,
    order: Optional[Sequence[str]] = None,
) -> str:
    """Several series side by side (Figure 2's UDP-1/2/3 overview,
    Figure 6's per-service rows, Figure 8's four throughput variants)."""
    labels = list(series_by_label)
    if not labels:
        raise ValueError("no series to render")
    first = series_by_label[labels[0]]
    tags = list(order if order is not None else first.ordered_tags())
    header = f"{'tag':>5}  " + "  ".join(f"{label:>12}" for label in labels)
    lines = [title, "-" * len(title), header]
    for tag in tags:
        cells = []
        for label in labels:
            series = series_by_label[label]
            if tag in series.summaries:
                cells.append(f"{series.summaries[tag].median:12.2f}")
            elif tag in series.censored:
                cells.append(f"{'>cutoff':>12}")
            else:
                cells.append(f"{'-':>12}")
        lines.append(f"{tag:>5}  " + "  ".join(cells))
    return "\n".join(lines)


def code_block(text: str) -> str:
    """Wrap a rendered figure/table in a markdown code fence."""
    return "```\n" + text + "\n```"


def series_to_csv(series: DeviceSeries) -> str:
    """Machine-readable export: tag, median, q1, q3, n, censored."""
    rows: List[str] = ["tag,median,q1,q3,samples,censored_at"]
    for tag in series.ordered_tags():
        if tag in series.summaries:
            summary = series.summaries[tag]
            rows.append(f"{tag},{summary.median},{summary.q1},{summary.q3},{summary.count},")
        else:
            rows.append(f"{tag},,,,,{series.censored[tag]}")
    return "\n".join(rows)
