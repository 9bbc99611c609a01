"""Failure injection: cut cables, kill services, saturate tables."""

import pytest

from repro.devices.profile import NatPolicy, UdpTimeoutPolicy
from repro.testbed import Testbed
from tests.conftest import make_profile


def _wan_link(bed, tag):
    """The link between the gateway's WAN port and the WAN switch."""
    endpoint = bed.port(tag).gateway.wan_iface.endpoint
    return endpoint.link


class TestLinkFailures:
    def test_tcp_transfer_dies_after_wan_cut(self):
        bed = Testbed.build([make_profile("gw")])
        port = bed.port("gw")
        received = bytearray()
        bed.server.tcp.listen(8080, lambda conn: setattr(conn, "on_data", received.extend))
        outcomes = []
        conn = bed.client.tcp.connect(port.server_ip, 8080, iface_index=port.client_iface_index)
        conn.max_data_retries = 3
        conn.on_established = lambda c: c.send(b"x" * 50_000)
        conn.on_close = outcomes.append
        bed.sim.run(until=bed.sim.now + 0.005)  # mid-transfer
        _wan_link(bed, "gw").sever()
        bed.sim.run(until=bed.sim.now + 60)
        assert outcomes == ["timeout"]
        assert len(received) < 50_000

    def test_transfer_survives_brief_outage(self):
        bed = Testbed.build([make_profile("gw")])
        port = bed.port("gw")
        received = bytearray()
        bed.server.tcp.listen(8080, lambda conn: setattr(conn, "on_data", received.extend))
        conn = bed.client.tcp.connect(port.server_ip, 8080, iface_index=port.client_iface_index)
        conn.on_established = lambda c: c.send(b"y" * 50_000)
        bed.sim.run(until=bed.sim.now + 0.004)
        link = _wan_link(bed, "gw")
        link.sever()
        bed.sim.run(until=bed.sim.now + 1.0)
        link.mend()
        bed.sim.run(until=bed.sim.now + 120)
        assert bytes(received) == b"y" * 50_000
        assert conn.retransmitted_segments > 0

    def test_udp_probe_reports_dead_binding_when_wan_cut(self):
        from repro.core import UdpTimeoutProbe

        profile = make_profile("gw", udp_timeouts=UdpTimeoutPolicy(600.0, 600.0, 600.0))
        bed = Testbed.build([profile])
        _wan_link(bed, "gw").sever()
        with pytest.raises(RuntimeError, match="never reached the server"):
            UdpTimeoutProbe.udp1(repetitions=1).run_all(bed)


class TestServiceFailures:
    def test_dns_proxy_with_dead_upstream_times_out(self):
        from repro.protocols import DnsStubResolver

        bed = Testbed.build([make_profile("gw")])
        port = bed.port("gw")
        bed.dns_zone._udp.close()  # upstream DNS dies
        out = []
        DnsStubResolver(bed.client).query_udp(
            port.gateway.lan_ip, "test.hiit.fi", out.append,
            timeout=3.0, iface_index=port.client_iface_index,
        )
        bed.sim.run(until=bed.sim.now + 10)
        assert out == [None]

    def test_udp_binding_table_saturation(self):
        profile = make_profile("gw", nat=NatPolicy(max_udp_bindings=5))
        bed = Testbed.build([profile])
        port = bed.port("gw")
        seen = []
        sink = bed.server.udp.bind(7000)
        sink.on_receive = lambda data, ip, p: seen.append(data)
        for i in range(10):
            sock = bed.client.udp.bind(41000 + i, port.client_iface_index)
            sock.send_to(bytes([i]), port.server_ip, 7000)
        bed.sim.run(until=bed.sim.now + 3)
        assert len(seen) == 5
        assert port.gateway.nat.bindings_refused == 5

    def test_saturated_table_recovers_after_expiry(self):
        profile = make_profile(
            "gw",
            nat=NatPolicy(max_udp_bindings=3),
            udp_timeouts=UdpTimeoutPolicy(20.0, 20.0, 20.0),
        )
        bed = Testbed.build([profile])
        port = bed.port("gw")
        seen = []
        sink = bed.server.udp.bind(7000)
        sink.on_receive = lambda data, ip, p: seen.append(data)
        for i in range(3):
            bed.client.udp.bind(41000 + i, port.client_iface_index).send_to(b"a", port.server_ip, 7000)
        bed.sim.run(until=bed.sim.now + 2)
        # Table full now; a fourth flow is refused...
        bed.client.udp.bind(41900, port.client_iface_index).send_to(b"b", port.server_ip, 7000)
        bed.sim.run(until=bed.sim.now + 2)
        assert seen.count(b"b") == 0
        # ...but works once the old bindings expire.
        bed.sim.run(until=bed.sim.now + 25)
        bed.client.udp.bind(41901, port.client_iface_index).send_to(b"c", port.server_ip, 7000)
        bed.sim.run(until=bed.sim.now + 2)
        assert seen.count(b"c") == 1


class TestBufferPressure:
    def test_tiny_buffer_drops_but_tcp_completes(self):
        from repro.devices.profile import ForwardingPolicy

        profile = make_profile(
            "gw", forwarding=ForwardingPolicy(up_rate_bps=10e6, down_rate_bps=10e6, buffer_bytes=20_000)
        )
        bed = Testbed.build([profile])
        port = bed.port("gw")
        received = bytearray()
        bed.server.tcp.listen(8080, lambda conn: setattr(conn, "on_data", received.extend))
        conn = bed.client.tcp.connect(port.server_ip, 8080, iface_index=port.client_iface_index)
        payload = bytes(i % 256 for i in range(200_000))
        conn.on_established = lambda c: c.send(payload)
        bed.sim.run(until=bed.sim.now + 120)
        assert bytes(received) == payload
        assert port.gateway.engine.dropped["up"] > 0
        assert conn.retransmitted_segments > 0
