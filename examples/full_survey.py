#!/usr/bin/env python3
"""Reproduce the paper's entire measurement campaign and print every figure.

This is the headline artifact: all 34 devices of Table 1, every test of
§3.2, rendered as the paper's figures and tables with the published
population statistics alongside.

Run:  python examples/full_survey.py            # quick settings (~2-4 min)
      python examples/full_survey.py --paper    # paper-scale repetitions
"""

import sys
import time

from repro import paperdata
from repro.analysis import render_series, render_series_multi, render_table1, render_table2
from repro.core import SurveyRunner, TcpBindingCapacityProbe, TcpTimeoutProbe, ThroughputProbe, UdpTimeoutProbe
from repro.core.results import DeviceSeries, Summary
from repro.devices import catalog_profiles


def main() -> None:
    paper_scale = "--paper" in sys.argv
    repetitions = 9 if paper_scale else 3
    runner = SurveyRunner(udp_repetitions=repetitions, udp5_repetitions=1,
                          transfer_bytes=(4 if paper_scale else 2) * 1024 * 1024)
    started = time.time()

    print(render_table1(catalog_profiles()))

    print("\n== UDP binding timeouts (Figures 2-5) ==")
    results = runner.run(tests=["udp1", "udp2", "udp3"])
    udp_series = {}
    for variant, data in (("UDP-1", results.udp1), ("UDP-2", results.udp2), ("UDP-3", results.udp3)):
        series = DeviceSeries(variant, "s")
        for tag, result in data.items():
            series.add(tag, result.summary())
        udp_series[variant] = series
    print(render_series_multi(udp_series, "Figure 2: UDP-1/2/3 medians (ordered by UDP-1)",
                              order=udp_series["UDP-1"].ordered_tags()))
    print(f"\npaper population stats: UDP-1 median {paperdata.FIG3_POP_MEDIAN} mean {paperdata.FIG3_POP_MEAN}; "
          f"UDP-2 {paperdata.FIG4_POP_MEDIAN}/{paperdata.FIG4_POP_MEAN}; "
          f"UDP-3 {paperdata.FIG5_POP_MEDIAN}/{paperdata.FIG5_POP_MEAN}")
    for name, series in udp_series.items():
        stats = series.population()
        print(f"measured {name}: median {stats['median']:.2f} mean {stats['mean']:.2f}")

    print("\n== UDP-4: port preservation / binding reuse ==")
    from collections import Counter

    categories = Counter(b.category for b in results.udp4.values())
    print(f"measured: {dict(categories)}")
    print(f"paper:    27 preserve (23 reuse + 4 fresh), 7 never preserve")

    print("\n== TCP-1 binding timeouts (Figure 7) ==")
    tcp1 = TcpTimeoutProbe().run_all(runner._fresh_testbed())
    probe = TcpTimeoutProbe()
    print(render_series(probe.series(tcp1), "Figure 7: TCP-1 [seconds; log-ish]", log_scale=True,
                        censored_label=">24h"))

    print("\n== TCP-2/TCP-3 throughput and delay (Figures 8-9) ==")
    throughput = ThroughputProbe(transfer_bytes=runner.knobs["transfer_bytes"]).run_all(runner._fresh_testbed())
    tp_probe = ThroughputProbe()
    fig8 = {
        "down": tp_probe.throughput_series(throughput, "download"),
        "up": tp_probe.throughput_series(throughput, "upload"),
        "down(bidir)": tp_probe.throughput_series(throughput, "download_bidir"),
        "up(bidir)": tp_probe.throughput_series(throughput, "upload_bidir"),
    }
    print(render_series_multi(fig8, "Figure 8: TCP-2 throughput [Mb/s]",
                              order=fig8["down"].ordered_tags()))
    fig9 = {
        "down": tp_probe.delay_series(throughput, "download"),
        "up": tp_probe.delay_series(throughput, "upload"),
        "down(bidir)": tp_probe.delay_series(throughput, "download_bidir"),
        "up(bidir)": tp_probe.delay_series(throughput, "upload_bidir"),
    }
    print(render_series_multi(fig9, "Figure 9: TCP-3 queuing delay [ms]",
                              order=fig9["down"].ordered_tags()))

    print("\n== TCP-4 binding capacity (Figure 10) ==")
    tcp4_probe = TcpBindingCapacityProbe()
    tcp4 = tcp4_probe.run_all(runner._fresh_testbed())
    print(render_series(tcp4_probe.series(tcp4), "Figure 10: max TCP bindings", log_scale=True))

    print("\n== Table 2: ICMP / SCTP / DCCP / DNS ==")
    other = runner.run(tests=["icmp", "transports", "dns"])
    print(render_table2(other.icmp, other.transports, other.dns))

    print(f"\nfull survey wall time: {time.time() - started:.0f} s")


if __name__ == "__main__":
    main()
