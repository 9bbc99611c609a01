"""§4.4 population observations, reproduced from measured data."""

import pytest

from bench_common import fresh_testbed
from conftest import write_artifact

from repro.compliance import check_device, population_summary
from repro.core import IcmpTranslationTest, TcpTimeoutProbe, UdpTimeoutProbe


def _collect(cache, quick_settings):
    udp1 = cache.get_or_run(
        "udp1",
        lambda: UdpTimeoutProbe.udp1(repetitions=quick_settings["udp_repetitions"]).run_all(fresh_testbed()),
    )
    udp3 = cache.get_or_run(
        "udp3",
        lambda: UdpTimeoutProbe.udp3(repetitions=quick_settings["udp_repetitions"]).run_all(fresh_testbed()),
    )
    tcp1 = cache.get_or_run("tcp1", lambda: TcpTimeoutProbe().run_all(fresh_testbed()))
    icmp = cache.get_or_run("icmp", lambda: IcmpTranslationTest().run_all(fresh_testbed()))
    return udp1, udp3, tcp1, icmp


def test_observations_and_compliance(benchmark, cache, quick_settings):
    udp1, udp3, tcp1, icmp = benchmark.pedantic(
        _collect, args=(cache, quick_settings), rounds=1, iterations=1
    )
    reports = {
        tag: check_device(tag, udp1=udp1[tag], tcp1=tcp1[tag], icmp=icmp[tag])
        for tag in udp1
    }
    summary = population_summary(reports)

    lines = ["§4.4 observations, measured", "-" * 32]
    lines.append(f"devices below RFC4787's 120 s UDP requirement: {summary['udp_below_required']:.0%} "
                 f"(paper: 'more than half')")
    lines.append(f"devices meeting RFC4787's 600 s recommendation: {summary['udp_meets_recommended']:.0%} "
                 f"(paper: only ls1)")
    lines.append(f"devices below RFC5382's 124 min TCP minimum: {summary['tcp_below_minimum']:.0%} "
                 f"(paper: 'more than half')")
    bidirectional_min = min(r.summary().median for r in udp3.values())
    lines.append(f"lowest timeout for a chatty binding: {bidirectional_min:.0f} s "
                 f"(paper: 54 s -> 15 s keepalives are overly aggressive)")
    two_hour_survivors = sum(
        1 for r in tcp1.values() if r.censored or (r.samples and r.summary().median > 7200)
    )
    lines.append(f"devices where a 2 h TCP keepalive suffices: {two_hour_survivors}/34 "
                 f"(paper: standardized keepalive interval unreliable)")
    text = "\n".join(lines)
    write_artifact("observations.txt", text)

    # Paper: >half below the 120 s UDP requirement; only ls1 above 600 s.
    assert summary["udp_below_required"] > 0.5
    assert summary["udp_meets_recommended"] == pytest.approx(1 / 34, abs=0.01)
    # Paper: half the devices time out TCP in <1 h, so >half miss 124 min.
    assert summary["tcp_below_minimum"] > 0.5
    # Paper: the lowest bidirectional-binding timeout is ~54 s... our UDP-3
    # population minimum sits near ng2's ~102 s (UDP-2's is the 54 s one).
    assert bidirectional_min >= 54.0
    # RFC 1122's 2 h keepalive fails on most devices.
    assert two_hour_survivors < 17


def test_no_device_wins_everywhere(benchmark, cache, quick_settings):
    """§4.4: "no single home gateway consistently performs better than
    others across all tests"."""
    udp1, _udp3, tcp1, icmp = benchmark.pedantic(
        _collect, args=(cache, quick_settings), rounds=1, iterations=1
    )
    from repro.devices.catalog import TCP_BINDING_CAPS

    def rank(values, reverse=True):
        ordered = sorted(values, key=values.get, reverse=reverse)
        return {tag: position for position, tag in enumerate(ordered)}

    udp_rank = rank({t: r.summary().median for t, r in udp1.items()})
    tcp_rank = rank({t: (r.summary().median if r.samples else 1e9) for t, r in tcp1.items()})
    cap_rank = rank({t: float(TCP_BINDING_CAPS[t]) for t in udp1})
    icmp_rank = rank({t: float(len(r.forwarded_kinds("udp")) + len(r.forwarded_kinds("tcp"))) for t, r in icmp.items()})
    top_quartile = 34 // 4
    winners = [
        tag
        for tag in udp1
        if all(r[tag] < top_quartile for r in (udp_rank, tcp_rank, cap_rank, icmp_rank))
    ]
    assert winners == [], f"devices unexpectedly best-in-class everywhere: {winners}"
