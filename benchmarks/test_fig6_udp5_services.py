"""Figure 6: UDP-5 — binding timeouts for different well-known services.

Paper: "most devices use a timeout scheme that is independent of the server
port.  Notable exception is dl8, which uses a shorter timeout for DNS."
"""

from bench_common import fresh_testbed, series_of
from conftest import write_artifact

from repro import paperdata
from repro.analysis import render_series_multi
from repro.core import UdpServiceProbe


def test_fig6_udp5_services(benchmark, cache, quick_settings):
    results = benchmark.pedantic(
        lambda: cache.get_or_run(
            "udp5",
            lambda: UdpServiceProbe(
                repetitions=quick_settings["udp5_repetitions"]
            ).run_all(fresh_testbed()),
        ),
        rounds=1,
        iterations=1,
    )
    series = {
        service: series_of(results[service], service, "s")
        for service in paperdata.FIG6_SERVICES
    }
    order = series["http"].ordered_tags()
    text = render_series_multi(series, "Figure 6: UDP-5 per-service timeouts [s]", order=order)
    write_artifact("fig6_udp5_services.txt", text)

    exception = paperdata.UDP5_DNS_EXCEPTION_TAG
    for tag in order:
        per_service = [series[s].summaries[tag].median for s in paperdata.FIG6_SERVICES]
        spread = max(per_service) - min(per_service)
        if tag == exception:
            # dl8 shortens DNS dramatically relative to the other services.
            dns = series["dns"].summaries[tag].median
            http = series["http"].summaries[tag].median
            assert dns < http / 3, (dns, http)
        elif tag in paperdata.COARSE_TIMER_TAGS:
            # Coarse timers wobble across runs; allow one wheel period.
            assert spread <= 35.0, (tag, per_service)
        else:
            assert spread <= 5.0, (tag, per_service)
