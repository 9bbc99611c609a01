"""Gateway corner cases: proxy upstream paths, caps, timers, traces."""

from repro.devices.profile import (
    DnsProxyPolicy,
    NatPolicy,
    TcpTimeoutPolicy,
    UdpTimeoutPolicy,
)
from repro.netsim.pcap import read_pcap
from repro.obs import PcapSink, TraceBus
from repro.packets import PROTO_UDP, EthernetFrame, IPv4Packet, UdpDatagram
from repro.protocols import DnsStubResolver
from repro.testbed import Testbed
from tests.conftest import make_profile


class TestDnsProxyUpstreamPaths:
    def test_tcp_proxy_uses_tcp_upstream_connection(self):
        profile = make_profile(
            "gw", dns_proxy=DnsProxyPolicy(accepts_tcp=True, responds_tcp=True, forwards_tcp_as="tcp")
        )
        bed = Testbed.build([profile])
        port = bed.port("gw")
        before_tcp = bed.dns_zone.tcp_queries
        out = []
        DnsStubResolver(bed.client).query_tcp(
            port.gateway.lan_ip, "test.hiit.fi", out.append, iface_index=port.client_iface_index
        )
        bed.sim.run(until=bed.sim.now + 15)
        assert out and out[0] is not None
        assert bed.dns_zone.tcp_queries == before_tcp + 1

    def test_udp_proxy_timeout_when_upstream_dark(self):
        profile = make_profile("gw")
        bed = Testbed.build([profile])
        port = bed.port("gw")
        bed.server.install_intercept(
            lambda packet, iface: isinstance(packet.payload, UdpDatagram)
            and packet.payload.dst_port == 53
        )
        out = []
        DnsStubResolver(bed.client).query_udp(
            port.gateway.lan_ip, "test.hiit.fi", out.append,
            timeout=3.0, iface_index=port.client_iface_index,
        )
        bed.sim.run(until=bed.sim.now + 10)
        assert out == [None]

    def test_gateway_own_sockets_not_shadowed_by_nat(self):
        """The gateway's proxy uses ephemeral WAN-side sockets; a client
        binding must never steal their ports."""
        profile = make_profile("gw")
        bed = Testbed.build([profile])
        port = bed.port("gw")
        # Fire a proxy query to create a gateway-owned ephemeral socket...
        out = []
        DnsStubResolver(bed.client).query_udp(
            port.gateway.lan_ip, "test.hiit.fi", out.append, iface_index=port.client_iface_index
        )
        bed.sim.run(until=bed.sim.now + 3)
        assert out and out[0] is not None
        # ...then a client flow from the same numeric port: the NAT must
        # pick a different external port (reserved-port check).
        gateway_port = 32768  # gateways allocate ephemeral from here too
        sink = bed.server.udp.bind(7000)
        observed = []
        sink.on_receive = lambda data, ip, p: observed.append(p)
        # Occupy the gateway's 32768 by binding it on the gateway itself.
        gw_sock = port.gateway.udp.bind(gateway_port)
        client_sock = bed.client.udp.bind(gateway_port, port.client_iface_index)
        client_sock.send_to(b"x", port.server_ip, 7000)
        bed.sim.run(until=bed.sim.now + 3)
        assert observed and observed[0] != gateway_port
        gw_sock.close()


class TestTcpThroughNatEdgeCases:
    def test_rst_through_nat_clears_binding(self):
        profile = make_profile("gw", tcp_timeouts=TcpTimeoutPolicy(established=None, rst_clears=True))
        bed = Testbed.build([profile])
        port = bed.port("gw")
        bed.server.tcp.listen(8080)
        established = []
        conn = bed.client.tcp.connect(port.server_ip, 8080, iface_index=port.client_iface_index)
        conn.on_established = established.append
        bed.sim.run(until=bed.sim.now + 3)
        assert established
        assert port.gateway.nat.binding_count("tcp") == 1
        conn.abort()
        bed.sim.run(until=bed.sim.now + 3)
        assert port.gateway.nat.binding_count("tcp") == 0

    def test_graceful_close_clears_binding_after_linger(self):
        profile = make_profile(
            "gw", tcp_timeouts=TcpTimeoutPolicy(established=None, transitory=20.0, fin_clears=True)
        )
        bed = Testbed.build([profile])
        port = bed.port("gw")
        bed.server.tcp.listen(
            8080, lambda server_conn: setattr(server_conn, "on_close", lambda r: server_conn.close())
        )
        conn = bed.client.tcp.connect(port.server_ip, 8080, iface_index=port.client_iface_index)
        conn.on_established = lambda c: c.close()
        bed.sim.run(until=bed.sim.now + 30)
        assert port.gateway.nat.binding_count("tcp") == 0

    def test_binding_cap_blocks_new_syn_silently(self):
        profile = make_profile("gw", nat=NatPolicy(max_tcp_bindings=2))
        bed = Testbed.build([profile])
        port = bed.port("gw")
        bed.server.tcp.listen(8080)
        outcomes = []
        conns = []
        for _ in range(3):
            conn = bed.client.tcp.connect(port.server_ip, 8080, iface_index=port.client_iface_index)
            conn.max_syn_retries = 1
            conn.on_established = lambda c: outcomes.append("up")
            conn.on_close = outcomes.append
            conns.append(conn)
        bed.sim.run(until=bed.sim.now + 30)
        assert outcomes.count("up") == 2
        assert outcomes.count("timeout") == 1

    def test_expired_tcp_binding_drops_server_data(self):
        profile = make_profile("gw", tcp_timeouts=TcpTimeoutPolicy(established=60.0))
        bed = Testbed.build([profile])
        port = bed.port("gw")
        server_conns = []
        bed.server.tcp.listen(8080, server_conns.append)
        got = []
        conn = bed.client.tcp.connect(port.server_ip, 8080, iface_index=port.client_iface_index)
        conn.on_data = lambda data: got.append(data)
        bed.sim.run(until=bed.sim.now + 3)
        assert server_conns
        bed.sim.run(until=bed.sim.now + 120)  # binding expires at the NAT
        server_conns[0].send(b"too late")
        bed.sim.run(until=bed.sim.now + 10)
        assert got == []


class TestUdpTimerSemantics:
    def test_inbound_no_refresh_policy(self):
        """A device whose inbound traffic does NOT refresh the timer."""
        timeouts = UdpTimeoutPolicy(60.0, 60.0, 60.0, inbound_refreshes=False)
        profile = make_profile("gw", udp_timeouts=timeouts)
        bed = Testbed.build([profile])
        port = bed.port("gw")
        server = bed.server.udp.bind(7000)
        endpoint = {}
        server.on_receive = lambda data, ip, p: endpoint.update(addr=(ip, p))
        got = []
        sock = bed.client.udp.bind(0, port.client_iface_index)
        sock.on_receive = lambda data, ip, p: got.append(bed.sim.now)
        sock.send_to(b"open", port.server_ip, 7000)
        bed.sim.run(until=bed.sim.now + 2)
        # Server sends at t=+40 (received: binding alive) and +70 (dropped:
        # the earlier inbound did not extend the 60 s deadline).
        server.send_to(b"one", *endpoint["addr"])
        bed.sim.run(until=bed.sim.now + 40)
        server.send_to(b"two", *endpoint["addr"])
        bed.sim.run(until=bed.sim.now + 30)
        server.send_to(b"three", *endpoint["addr"])
        bed.sim.run(until=bed.sim.now + 10)
        assert len(got) == 2  # "one" and "two"; "three" hit a dead binding


class TestTracing:
    def test_trace_on_gateway_wan_shows_translation(self, tmp_path):
        profile = make_profile("gw")
        bed = Testbed.build([profile])
        port = bed.port("gw")
        bus = TraceBus.attach(bed.sim)
        capture = bus.subscribe(PcapSink(tmp_path))
        sink = bed.server.udp.bind(7000)
        sink.on_receive = lambda *a: None
        sock = bed.client.udp.bind(44444, port.client_iface_index)
        sock.send_to(b"q", port.server_ip, 7000)
        bed.sim.run(until=bed.sim.now + 2)
        bus.detach()
        capture.close()
        frames = [
            EthernetFrame.from_bytes(raw, payload_parser=IPv4Packet.from_bytes)
            for _t, raw in read_pcap(str(tmp_path / "gw.wan.pcap"))
        ]
        tx_udp = [
            frame.payload
            for frame in frames
            if frame.src == port.gateway.wan_iface.mac and frame.payload.protocol == PROTO_UDP
        ]
        assert tx_udp
        assert tx_udp[0].src == port.gateway.wan_ip  # translated on the wire
        assert tx_udp[0].payload.src_port == 44444  # port preserved
