"""Figure 9: TCP-3 — queuing and processing delay from payload timestamps.

Shape anchors from §4.2: devices that do well in TCP-2 also do well here;
bidirectional traffic increases delay, mildly for good devices and sharply
for the two worst (dl10, ls1).  Known deviation (see EXPERIMENTS.md): with
window scaling off, queue depth is capped by the 64 KB receive window, so
the *magnitude* of the worst bidirectional delays is smaller than the
paper's 291/400 ms.
"""

import pytest

from conftest import write_artifact
from test_fig8_tcp2 import run_throughput

from repro import paperdata
from repro.analysis import kendall_tau, render_series_multi
from repro.core import ThroughputProbe


def test_fig9_tcp3(benchmark, cache, quick_settings):
    results = benchmark.pedantic(
        run_throughput, args=(cache, quick_settings), rounds=1, iterations=1
    )
    probe = ThroughputProbe()
    series = {
        "down": probe.delay_series(results, "download"),
        "up": probe.delay_series(results, "upload"),
        "down(bi)": probe.delay_series(results, "download_bidir"),
        "up(bi)": probe.delay_series(results, "upload_bidir"),
    }
    order = sorted(
        series["down"].summaries,
        key=lambda t: max(series["down"].summaries[t].median, series["up"].summaries[t].median),
    )
    text = render_series_multi(series, "Figure 9: TCP-3 queuing delay [ms]", order=order)
    text += (
        f"\npaper anchors: dl10 download {paperdata.TCP3_DL10_DOWNLOAD_MS} -> "
        f"{paperdata.TCP3_DL10_BIDIR_MS} ms bidir; ls1 upload {paperdata.TCP3_LS1_UPLOAD_MS} -> "
        f"{paperdata.TCP3_LS1_BIDIR_MS} ms bidir; best devices +~2 ms bidir"
    )
    write_artifact("fig9_tcp3.txt", text)

    down = {t: s.median for t, s in series["down"].summaries.items()}
    up = {t: s.median for t, s in series["up"].summaries.items()}
    down_bi = {t: s.median for t, s in series["down(bi)"].summaries.items()}
    up_bi = {t: s.median for t, s in series["up(bi)"].summaries.items()}

    # The two largest delays belong to dl10 and ls1, as in the paper.
    assert set(order[-2:]) == {"dl10", "ls1"}
    # dl10's download delay is within reach of the paper's 74 ms; bidir grows.
    assert down["dl10"] == pytest.approx(paperdata.TCP3_DL10_DOWNLOAD_MS, rel=0.35)
    assert down_bi["dl10"] > down["dl10"] * 1.3
    # ls1's upload delay near 110 ms (window-capped); bidir grows.
    assert up["ls1"] == pytest.approx(paperdata.TCP3_LS1_UPLOAD_MS, rel=0.45)
    assert up_bi["ls1"] > up["ls1"] * 1.05
    # Best devices: small absolute delay, small bidirectional increase.
    best = order[:5]
    for tag in best:
        assert down[tag] < 15.0, (tag, down[tag])
        assert abs(down_bi[tag] - down[tag]) < 10.0, tag
    # §4.2: throughput rank and (inverse) delay rank correlate strongly.
    throughput_order = sorted(down, key=lambda t: results[t].download.throughput_bps, reverse=True)
    assert kendall_tau(throughput_order, order) > 0.5
