"""The measurement probes against gateways with known ground truth."""

import pytest

from repro.core import (
    DnsProxyTest,
    IcmpTranslationTest,
    TcpBindingCapacityProbe,
    TcpTimeoutProbe,
    ThroughputProbe,
    TransportSupportTest,
    UdpServiceProbe,
    UdpTimeoutProbe,
    analyze_port_behavior,
)
from repro.devices.profile import (
    DnsProxyPolicy,
    FallbackBehavior,
    ForwardingPolicy,
    IcmpPolicy,
    NatPolicy,
    TcpTimeoutPolicy,
    UdpTimeoutPolicy,
    icmp_actions,
)
from repro.testbed import Testbed
from tests.conftest import make_profile


class TestUdpProbes:
    def test_udp1_measures_outbound_only_timeout(self):
        bed = Testbed.build([make_profile("d", udp_timeouts=UdpTimeoutPolicy(45.0, 180.0, 200.0))])
        result = UdpTimeoutProbe.udp1(repetitions=2).run_all(bed)["d"]
        assert result.summary().median == pytest.approx(45.0, abs=1.0)

    def test_udp2_measures_after_inbound_timeout(self):
        bed = Testbed.build([make_profile("d", udp_timeouts=UdpTimeoutPolicy(45.0, 90.0, 200.0))])
        result = UdpTimeoutProbe.udp2(repetitions=1).run_all(bed)["d"]
        assert result.summary().median == pytest.approx(90.0, abs=1.5)

    def test_udp3_measures_bidirectional_timeout(self):
        bed = Testbed.build([make_profile("d", udp_timeouts=UdpTimeoutPolicy(45.0, 90.0, 130.0))])
        result = UdpTimeoutProbe.udp3(repetitions=1).run_all(bed)["d"]
        assert result.summary().median == pytest.approx(130.0, abs=1.5)

    def test_udp1_censors_beyond_cutoff(self):
        bed = Testbed.build([make_profile("d", udp_timeouts=UdpTimeoutPolicy(2000.0, 2000.0, 2000.0))])
        result = UdpTimeoutProbe.udp1(repetitions=1, cutoff=300.0).run_all(bed)["d"]
        assert result.censored == 1 and not result.samples

    def test_parallel_devices_do_not_interfere(self):
        profiles = [
            make_profile("a", udp_timeouts=UdpTimeoutPolicy(30.0, 60.0, 60.0)),
            make_profile("b", udp_timeouts=UdpTimeoutPolicy(120.0, 150.0, 150.0)),
        ]
        bed = Testbed.build(profiles)
        results = UdpTimeoutProbe.udp1(repetitions=2).run_all(bed)
        assert results["a"].summary().median == pytest.approx(30.0, abs=1.0)
        assert results["b"].summary().median == pytest.approx(120.0, abs=1.0)

    def test_udp4_preserve_and_reuse(self):
        bed = Testbed.build([make_profile("d")])
        result = UdpTimeoutProbe.udp1(repetitions=2).run_all(bed)["d"]
        behavior = analyze_port_behavior(result)
        assert behavior.category == "preserves_and_reuses"

    def test_udp4_no_preservation(self):
        nat = NatPolicy(port_preservation=False, reuse_expired_binding=False)
        bed = Testbed.build([make_profile("d", nat=nat)])
        result = UdpTimeoutProbe.udp1(repetitions=2).run_all(bed)["d"]
        assert analyze_port_behavior(result).category == "new_binding_no_preservation"

    def test_udp4_preserve_no_reuse(self):
        nat = NatPolicy(port_preservation=True, reuse_expired_binding=False, reuse_holddown=36000.0)
        bed = Testbed.build([make_profile("d", nat=nat)])
        result = UdpTimeoutProbe.udp1(repetitions=2).run_all(bed)["d"]
        assert analyze_port_behavior(result).category == "preserves_no_reuse"

    def test_udp5_per_service_override(self):
        timeouts = UdpTimeoutPolicy(60.0, 60.0, 60.0, per_port={53: 20.0})
        bed = Testbed.build([make_profile("d", udp_timeouts=timeouts)])
        results = UdpServiceProbe(services={"dns": 53, "http": 80}, repetitions=1).run_all(bed)
        dns = results["d"]["dns"].summary().median
        http = results["d"]["http"].summary().median
        assert dns == pytest.approx(20.0, abs=1.5)
        assert http == pytest.approx(60.0, abs=1.5)

    def test_series_building(self):
        bed = Testbed.build([make_profile("d", udp_timeouts=UdpTimeoutPolicy(30.0, 60.0, 60.0))])
        probe = UdpTimeoutProbe.udp1(repetitions=1)
        series = probe.series(probe.run_all(bed))
        assert series.ordered_tags() == ["d"]
        assert "d" in series.summaries


class TestTcpProbes:
    def test_tcp1_measures_established_timeout(self):
        bed = Testbed.build([make_profile("d", tcp_timeouts=TcpTimeoutPolicy(700.0))])
        result = TcpTimeoutProbe().run_all(bed)["d"]
        assert result.samples[0] == pytest.approx(700.0, abs=1.5)

    def test_tcp1_censors_no_timeout_device(self):
        bed = Testbed.build([make_profile("d", tcp_timeouts=TcpTimeoutPolicy(None))])
        result = TcpTimeoutProbe().run_all(bed)["d"]
        assert result.censored == 1 and not result.samples

    def test_tcp4_counts_binding_cap(self):
        bed = Testbed.build([make_profile("d", nat=NatPolicy(max_tcp_bindings=40))])
        result = TcpBindingCapacityProbe().run_all(bed)["d"]
        assert result.max_bindings == 40

    def test_tcp4_probe_limit(self):
        bed = Testbed.build([make_profile("d", nat=NatPolicy(max_tcp_bindings=10_000))])
        result = TcpBindingCapacityProbe(probe_limit=50).run_all(bed)["d"]
        assert result.max_bindings == 50 and result.hit_probe_limit


class TestThroughputProbe:
    def test_rate_limited_device_measured(self):
        forwarding = ForwardingPolicy(up_rate_bps=20e6, down_rate_bps=10e6)
        bed = Testbed.build([make_profile("d", forwarding=forwarding)])
        result = ThroughputProbe(transfer_bytes=512 * 1024).run_all(bed)["d"]
        assert result.upload.throughput_bps / 1e6 == pytest.approx(19, rel=0.12)
        assert result.download.throughput_bps / 1e6 == pytest.approx(9.5, rel=0.12)

    def test_bidirectional_contention_with_shared_cap(self):
        forwarding = ForwardingPolicy(up_rate_bps=50e6, down_rate_bps=50e6, combined_rate_bps=60e6)
        bed = Testbed.build([make_profile("d", forwarding=forwarding)])
        result = ThroughputProbe(transfer_bytes=512 * 1024).run_all(bed)["d"]
        bidir_total = (result.upload_bidir.throughput_bps + result.download_bidir.throughput_bps) / 1e6
        assert bidir_total < 62
        assert result.upload.throughput_bps / 1e6 == pytest.approx(47, rel=0.12)

    def test_queuing_delay_scales_with_rate(self):
        slow = ForwardingPolicy(up_rate_bps=8e6, down_rate_bps=8e6, base_delay=0.001)
        fast = ForwardingPolicy(up_rate_bps=100e6, down_rate_bps=100e6, base_delay=0.001)
        bed = Testbed.build([make_profile("slow", forwarding=slow), make_profile("fast", forwarding=fast)])
        results = ThroughputProbe(transfer_bytes=512 * 1024).run_all(bed)
        assert results["slow"].upload.queuing_delay > 5 * results["fast"].upload.queuing_delay


class TestOtherProbes:
    def test_icmp_battery_full_translator(self):
        bed = Testbed.build([make_profile("d")])
        result = IcmpTranslationTest().run_all(bed)["d"]
        assert len(result.forwarded_kinds("udp")) == 10
        assert len(result.forwarded_kinds("tcp")) == 10
        assert result.translates_embedded_transport()
        assert result.fixes_embedded_ip_checksum()
        assert result.icmp_host_unreach.forwarded

    def test_icmp_battery_subset(self):
        policy = IcmpPolicy(
            tcp=icmp_actions({"port_unreach", "ttl_exceeded"}),
            udp=icmp_actions({"port_unreach"}),
            icmp_flows=False,
        )
        bed = Testbed.build([make_profile("d", icmp=policy)])
        result = IcmpTranslationTest().run_all(bed)["d"]
        assert sorted(result.forwarded_kinds("tcp")) == ["port_unreach", "ttl_exceeded"]
        assert result.forwarded_kinds("udp") == ["port_unreach"]
        assert not result.icmp_host_unreach.forwarded

    def test_transport_support_matrix(self):
        profiles = [
            make_profile("ok", fallback=FallbackBehavior.IP_ONLY),
            make_profile("blocked", fallback=FallbackBehavior.DROP),
        ]
        bed = Testbed.build(profiles)
        results = TransportSupportTest().run_all(bed)
        assert results["ok"]["sctp"].supported
        assert not results["ok"]["dccp"].supported
        assert not results["blocked"]["sctp"].supported
        assert results["blocked"]["sctp"].wire_view == "nothing"
        assert results["ok"]["sctp"].wire_view == "ip_only"

    def test_dns_proxy_matrix(self):
        profiles = [
            make_profile("full", dns_proxy=DnsProxyPolicy(accepts_tcp=True, responds_tcp=True)),
            make_profile("nodns", dns_proxy=DnsProxyPolicy(accepts_tcp=False)),
        ]
        bed = Testbed.build(profiles)
        results = DnsProxyTest().run_all(bed)
        assert results["full"].answers_udp and results["full"].answers_tcp
        assert results["full"].upstream_transport_for_tcp == "tcp"
        assert results["nodns"].answers_udp and not results["nodns"].accepts_tcp

    def test_dns_proxy_udp_upstream_quirk(self):
        profile = make_profile(
            "ap-like", dns_proxy=DnsProxyPolicy(accepts_tcp=True, responds_tcp=True, forwards_tcp_as="udp")
        )
        bed = Testbed.build([profile])
        results = DnsProxyTest().run_all(bed)
        assert results["ap-like"].answers_tcp
        assert results["ap-like"].upstream_transport_for_tcp == "udp"
