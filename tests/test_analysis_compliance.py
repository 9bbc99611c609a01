"""Figure/table renderers, ordering agreement, and the RFC compliance checker."""

import pytest

from repro.analysis import (
    kendall_tau,
    render_series,
    render_series_multi,
    render_table1,
    series_to_csv,
)
from repro.compliance import check_device, population_summary
from repro.core.icmp_tests import IcmpObservation, IcmpTestResult
from repro.core.results import DeviceSeries, Summary
from repro.core.tcp_binding import TcpTimeoutResult
from repro.core.udp_timeouts import UdpTimeoutResult
from repro.devices import catalog_profiles
from repro.devices.profile import ICMP_KINDS


def _series():
    series = DeviceSeries("udp1", "seconds")
    series.add("je", Summary.of([30.0, 31.0, 29.5]))
    series.add("ls1", Summary.of([691.0]))
    series.add_censored("forever", 780.0)
    return series


class TestRenderers:
    def test_render_series_contains_all_devices_and_stats(self):
        text = render_series(_series(), "Figure 3: UDP-1")
        assert "Figure 3: UDP-1" in text
        assert "je" in text and "ls1" in text and "forever" in text
        assert "population:" in text
        assert ">cutoff" in text

    def test_render_series_log_scale(self):
        text = render_series(_series(), "log", log_scale=True)
        assert "#" in text

    def test_render_series_multi_aligns_rows(self):
        multi = {"udp1": _series(), "udp2": _series()}
        text = render_series_multi(multi, "Figure 2", order=["je", "ls1"])
        lines = text.splitlines()
        assert any(line.strip().startswith("je") for line in lines)
        assert "udp2" in lines[2]

    def test_series_to_csv(self):
        csv = series_to_csv(_series())
        assert csv.splitlines()[0] == "tag,median,q1,q3,samples,censored_at"
        assert any(line.startswith("je,30.0") for line in csv.splitlines())
        assert any(line.startswith("forever,,,,,780") for line in csv.splitlines())

    def test_render_table1(self):
        text = render_table1(catalog_profiles())
        assert "A-Link" in text and "ZyXel" in text
        assert text.count("D-Link") == 10


class TestComparisons:
    def test_kendall_tau_identical(self):
        assert kendall_tau(["a", "b", "c"], ["a", "b", "c"]) == 1.0

    def test_kendall_tau_reversed(self):
        assert kendall_tau(["a", "b", "c"], ["c", "b", "a"]) == -1.0

    def test_kendall_tau_partial(self):
        tau = kendall_tau(["a", "b", "c", "d"], ["a", "b", "d", "c"])
        assert 0 < tau < 1


def _udp_result(tag, value):
    result = UdpTimeoutResult(tag, "udp1")
    result.samples = [value]
    return result


def _tcp_result(tag, value=None, censored=False):
    result = TcpTimeoutResult(tag)
    if value is not None:
        result.samples = [value]
    if censored:
        result.censored = 1
    return result


def _icmp_result(tag, kinds):
    result = IcmpTestResult(tag)
    for kind in ICMP_KINDS:
        ok = kind in kinds
        result.udp[kind] = IcmpObservation(forwarded=ok, transport_rewritten=ok, embedded_checksum_ok=ok)
        result.tcp[kind] = IcmpObservation(forwarded=ok, transport_rewritten=ok, embedded_checksum_ok=ok)
    return result


class TestCompliance:
    def test_udp_grading(self):
        report = check_device("x", udp1=_udp_result("x", 30.0))
        assert report.udp_meets_required is False
        assert "RFC4787" in report.failures()[0]
        good = check_device("y", udp1=_udp_result("y", 650.0))
        assert good.udp_meets_required and good.udp_meets_recommended

    def test_tcp_grading(self):
        short = check_device("x", tcp1=_tcp_result("x", 239.0))
        assert short.tcp_meets_minimum is False
        long = check_device("y", tcp1=_tcp_result("y", 8000.0))
        assert long.tcp_meets_minimum
        censored = check_device("z", tcp1=_tcp_result("z", censored=True))
        assert censored.tcp_meets_minimum is True

    def test_icmp_grading(self):
        full = check_device("x", icmp=_icmp_result("x", set(ICMP_KINDS)))
        assert full.icmp_compliant
        partial = check_device("y", icmp=_icmp_result("y", {"port_unreach"}))
        assert partial.icmp_compliant is False
        assert any("ttl_exceeded" in missing for missing in partial.icmp_missing_kinds)

    def test_ungraded_fields_stay_none(self):
        report = check_device("x")
        assert report.udp_meets_required is None
        assert report.fully_compliant  # nothing graded, nothing failed

    def test_population_summary(self):
        reports = {
            "a": check_device("a", udp1=_udp_result("a", 30.0)),
            "b": check_device("b", udp1=_udp_result("b", 200.0)),
            "c": check_device("c", udp1=_udp_result("c", 650.0)),
        }
        summary = population_summary(reports)
        assert summary["udp_below_required"] == pytest.approx(1 / 3)
        assert summary["udp_meets_recommended"] == pytest.approx(1 / 3)
