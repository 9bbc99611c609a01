"""Rendering and paper-comparison utilities.

Turns :class:`~repro.core.results.DeviceSeries` and the Table-2-style
results into the artifacts the paper prints: device-ordered figure rows
(ASCII), the bullet table and population statistic lines.  The paper's
claims, checked against a campaign, live in :mod:`repro.analysis.claims`,
which this package does not import: the campaign and report paths never
load it.
"""

from repro.analysis.compare import kendall_tau
from repro.analysis.figures import render_series, render_series_multi, series_to_csv
from repro.analysis.report import render_report
from repro.analysis.tables import render_table1, render_table2

__all__ = [
    "kendall_tau",
    "render_report",
    "render_series",
    "render_series_multi",
    "series_to_csv",
    "render_table1",
    "render_table2",
]
