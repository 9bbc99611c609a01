"""Remaining DNS-proxy code paths and survey-runner details."""

import pytest

from repro.core import SurveyRunner
from repro.devices.profile import DnsProxyPolicy
from repro.protocols import DnsStubResolver
from repro.testbed import Testbed
from tests.conftest import make_profile


class TestProxyUpstreamTcpPath:
    def _bed(self, forwards_as):
        profile = make_profile(
            "gw",
            dns_proxy=DnsProxyPolicy(accepts_tcp=True, responds_tcp=True, forwards_tcp_as=forwards_as),
        )
        return Testbed.build([profile])

    def test_upstream_tcp_connection_counted(self):
        bed = self._bed("tcp")
        port = bed.port("gw")
        out = []
        DnsStubResolver(bed.client).query_tcp(
            port.gateway.lan_ip, "test.hiit.fi", out.append, iface_index=port.client_iface_index
        )
        bed.sim.run(until=bed.sim.now + 15)
        assert out and out[0] is not None
        assert bed.port("gw").gateway.dns_proxy.tcp_relayed == 1

    def test_multiple_queries_one_connection(self):
        """Two framed queries over one client TCP connection both answered."""
        from repro.packets.dns_codec import DnsMessage, frame_tcp, unframe_tcp

        bed = self._bed("tcp")
        port = bed.port("gw")
        answers = []
        buffer = bytearray()

        def on_data(data):
            nonlocal buffer
            buffer += data
            messages, rest = unframe_tcp(bytes(buffer))
            buffer = bytearray(rest)
            answers.extend(messages)

        conn = bed.client.tcp.connect(port.gateway.lan_ip, 53, iface_index=port.client_iface_index)
        conn.on_data = on_data
        conn.on_established = lambda c: c.send(
            frame_tcp(DnsMessage.query("test.hiit.fi", txid=1))
            + frame_tcp(DnsMessage.query("vlan1.test.hiit.fi", txid=2))
        )
        bed.sim.run(until=bed.sim.now + 15)
        assert sorted(m.txid for m in answers) == [1, 2]
        assert all(m.answers for m in answers)

    def test_udp_upstream_quirk_counts_relay(self):
        bed = self._bed("udp")
        port = bed.port("gw")
        out = []
        DnsStubResolver(bed.client).query_tcp(
            port.gateway.lan_ip, "test.hiit.fi", out.append, iface_index=port.client_iface_index
        )
        bed.sim.run(until=bed.sim.now + 15)
        assert out and out[0] is not None
        assert bed.port("gw").gateway.dns_proxy.tcp_relayed == 1


class TestSurveyRunnerDetails:
    def test_fresh_testbeds_are_deterministic(self):
        runner = SurveyRunner([make_profile("d")], seed=42, udp_repetitions=1)
        first = runner.run(tests=["udp1"]).family("udp1")["d"].samples
        second = runner.run(tests=["udp1"]).family("udp1")["d"].samples
        assert first == second

    def test_different_seeds_still_agree_on_policy(self):
        results = []
        for seed in (1, 2):
            runner = SurveyRunner([make_profile("d")], seed=seed, udp_repetitions=1)
            results.append(runner.run(tests=["udp1"]).family("udp1")["d"].samples[0])
        assert results[0] == pytest.approx(results[1], abs=1.0)


class TestManagementChannelCounters:
    def test_messages_counted(self, sim):
        from repro.testbed import ManagementChannel

        channel = ManagementChannel(sim)
        for _ in range(5):
            channel.call(lambda: None)
        assert channel.messages_delivered == 5
