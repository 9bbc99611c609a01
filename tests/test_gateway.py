"""The HomeGateway device end to end, on a minimal testbed."""

from repro.devices.profile import (
    DnsProxyPolicy,
    FallbackBehavior,
    NatPolicy,
    QuirkPolicy,
)
from repro.packets import (
    PROTO_ICMP,
    PROTO_UDP,
    IcmpMessage,
    IPv4Packet,
    UdpDatagram,
)
from repro.testbed import Testbed
from tests.conftest import make_profile


def bed_with(*profiles):
    return Testbed.build(list(profiles))


class TestBasicNat:
    def test_outbound_snat_and_reply(self):
        bed = bed_with(make_profile("gw"))
        port = bed.port("gw")
        seen = []
        server_sock = bed.server.udp.bind(7000)
        server_sock.on_receive = lambda data, ip, p: (seen.append((ip, p)), server_sock.send_to(b"r", ip, p))
        got = []
        client_sock = bed.client.udp.bind(40000, port.client_iface_index)
        client_sock.on_receive = lambda data, ip, p: got.append(data)
        client_sock.send_to(b"q", port.server_ip, 7000)
        bed.sim.run(until=bed.sim.now + 3)
        assert seen == [(port.gateway.wan_ip, 40000)]  # SNAT + preservation
        assert got == [b"r"]

    def test_unsolicited_inbound_dropped(self):
        bed = bed_with(make_profile("gw"))
        port = bed.port("gw")
        datagram = UdpDatagram(9999, 8888, b"attack")
        packet = IPv4Packet(port.server_ip, port.gateway.wan_ip, PROTO_UDP, datagram)
        packet.fill_checksums()
        before = port.gateway.dropped_no_binding
        bed.server.send_ip(packet)
        bed.sim.run(until=bed.sim.now + 2)
        assert port.gateway.dropped_no_binding == before + 1

    def test_wan_checksums_rewritten_correctly(self):
        bed = bed_with(make_profile("gw"))
        port = bed.port("gw")
        captured = []
        bed.server.observe_ip(lambda packet, iface: captured.append(packet))
        sink = bed.server.udp.bind(7000)
        sink.on_receive = lambda *a: None
        bed.client.udp.bind(40000, port.client_iface_index).send_to(b"q", port.server_ip, 7000)
        bed.sim.run(until=bed.sim.now + 2)
        udp_packets = [p for p in captured if p.protocol == PROTO_UDP]
        assert udp_packets
        packet = udp_packets[0]
        assert packet.header_checksum_ok()
        assert packet.payload.checksum_ok(packet.src, packet.dst)

    def _send_filled(self, corrupt_udp_checksum=False):
        """Send one datagram whose checksums the client fills eagerly; return
        ``(bed, port, packets the server saw, payloads its socket got)``."""
        bed = bed_with(make_profile("gw"))
        port = bed.port("gw")
        captured, got = [], []
        bed.server.observe_ip(lambda packet, iface: captured.append(packet))
        bed.server.udp.bind(7000).on_receive = lambda data, ip, p: got.append(data)
        packet = IPv4Packet(bed.client_ip("gw"), port.server_ip, PROTO_UDP, UdpDatagram(40000, 7000, b"q"))
        packet.fill_checksums()
        if corrupt_udp_checksum:
            packet.payload.checksum = packet.payload.checksum % 0xFFFE + 1  # wrong, and not "none"
        bed.client.send_ip_routed(packet, port.client_iface_index)
        bed.sim.run(until=bed.sim.now + 2)
        return bed, port, [p for p in captured if p.protocol == PROTO_UDP], got

    def test_explicit_checksums_arrive_equal_to_a_full_recompute(self):
        """The NAT's RFC 1624 updates, end to end: explicit numbers stay numbers, and correct."""
        _bed, port, (packet,), got = self._send_filled()
        assert packet.src == port.gateway.wan_ip
        assert packet.header_checksum == packet.compute_header_checksum()
        assert packet.payload.checksum == packet.payload.compute_checksum(packet.src, packet.dst)
        assert got == [b"q"]

    def test_wrong_udp_checksum_arrives_wrong_and_is_dropped(self):
        """An incremental update carries a wrong checksum forward; the server's stack drops it."""
        bed, _port, (packet,), got = self._send_filled(corrupt_udp_checksum=True)
        assert packet.payload.checksum != packet.payload.compute_checksum(packet.src, packet.dst)
        assert bed.server.checksum_drops == 1
        assert got == []

    def test_gateway_answers_ping_on_wan(self):
        bed = bed_with(make_profile("gw"))
        port = bed.port("gw")
        replies = []
        bed.server.icmp.ping(port.gateway.wan_ip, on_reply=replies.append)
        bed.sim.run(until=bed.sim.now + 2)
        assert replies == [port.gateway.wan_ip]

    def test_ping_through_nat(self):
        bed = bed_with(make_profile("gw"))
        port = bed.port("gw")
        request = IcmpMessage.echo_request(42, 1, b"hi")
        packet = IPv4Packet(bed.client_ip("gw"), port.server_ip, PROTO_ICMP, request)
        packet.fill_checksums()
        replies = []
        bed.client.icmp.observers.append(
            lambda message, pkt, iface: replies.append(message.echo_ident)
            if message.icmp_type == 0 else None
        )
        bed.client.send_ip_routed(packet, port.client_iface_index)
        bed.sim.run(until=bed.sim.now + 2)
        assert replies == [42]


class TestTtlAndOptions:
    def test_ttl_decremented_by_default(self):
        bed = bed_with(make_profile("gw"))
        port = bed.port("gw")
        ttls = []
        bed.server.observe_ip(lambda packet, iface: ttls.append(packet.ttl))
        sink = bed.server.udp.bind(7000)
        sink.on_receive = lambda *a: None
        sock = bed.client.udp.bind(0, port.client_iface_index)
        sock.send_to(b"q", port.server_ip, 7000, ttl=64)
        bed.sim.run(until=bed.sim.now + 2)
        assert 63 in ttls

    def test_no_ttl_decrement_quirk(self):
        bed = bed_with(make_profile("gw", quirks=QuirkPolicy(decrements_ttl=False)))
        port = bed.port("gw")
        ttls = []
        bed.server.observe_ip(lambda packet, iface: ttls.append(packet.ttl))
        sink = bed.server.udp.bind(7000)
        sink.on_receive = lambda *a: None
        bed.client.udp.bind(0, port.client_iface_index).send_to(b"q", port.server_ip, 7000, ttl=64)
        bed.sim.run(until=bed.sim.now + 2)
        assert 64 in ttls

    def test_ttl_expiry_generates_time_exceeded(self):
        bed = bed_with(make_profile("gw"))
        port = bed.port("gw")
        errors = []
        sock = bed.client.udp.bind(0, port.client_iface_index)
        sock.on_icmp_error = lambda icmp, embedded: errors.append(icmp.icmp_type)
        sock.send_to(b"q", port.server_ip, 7000, ttl=1)
        bed.sim.run(until=bed.sim.now + 2)
        assert errors == [11]  # time exceeded from the gateway

    def test_record_route_honored_only_by_quirky_devices(self):
        for honors in (True, False):
            bed = bed_with(make_profile("gw", quirks=QuirkPolicy(honors_record_route=honors)))
            port = bed.port("gw")
            routes = []
            bed.server.observe_ip(
                lambda packet, iface: routes.append(list(packet.record_route.addresses))
                if packet.record_route else None
            )
            sink = bed.server.udp.bind(7000)
            sink.on_receive = lambda *a: None
            sock = bed.client.udp.bind(0, port.client_iface_index)
            sock.send_to(b"q", port.server_ip, 7000, record_route=True)
            bed.sim.run(until=bed.sim.now + 2)
            assert routes, "record-route packet never arrived"
            if honors:
                assert routes[0] == [port.gateway.wan_ip]
            else:
                assert routes[0] == []


class TestFallback:
    def _sctp_attempt(self, profile):
        bed = bed_with(profile)
        port = bed.port(profile.tag)
        bed.server.sctp.listen(9000, lambda assoc: None)
        outcomes = []
        assoc = bed.client.sctp.connect(port.server_ip, 9000, iface_index=port.client_iface_index)
        assoc.on_established = lambda a: outcomes.append("up")
        assoc.on_failed = outcomes.append
        bed.sim.run(until=bed.sim.now + 30)
        return outcomes

    def test_drop_fallback_blocks_sctp(self):
        outcomes = self._sctp_attempt(make_profile("gw", fallback=FallbackBehavior.DROP))
        assert outcomes == ["timeout"]

    def test_ip_only_fallback_passes_sctp(self):
        outcomes = self._sctp_attempt(make_profile("gw", fallback=FallbackBehavior.IP_ONLY))
        assert outcomes == ["up"]

    def test_ip_only_filtered_blocks_replies(self):
        outcomes = self._sctp_attempt(
            make_profile("gw", fallback=FallbackBehavior.IP_ONLY, fallback_allows_inbound=False)
        )
        assert outcomes == ["timeout"]

    def test_passthrough_leaks_private_source(self):
        bed = bed_with(make_profile("gw", fallback=FallbackBehavior.PASSTHROUGH))
        port = bed.port("gw")
        sources = []
        bed.server.observe_ip(
            lambda packet, iface: sources.append(packet.src) if packet.protocol == 132 else None
        )
        bed.server.sctp.listen(9000, lambda assoc: None)
        assoc = bed.client.sctp.connect(port.server_ip, 9000, iface_index=port.client_iface_index)
        bed.sim.run(until=bed.sim.now + 10)
        assert sources and sources[0] == bed.client_ip("gw")  # untranslated!
        assert assoc.state != "ESTABLISHED"  # server can't route back

    def test_dccp_fails_through_ip_only(self):
        bed = bed_with(make_profile("gw", fallback=FallbackBehavior.IP_ONLY))
        port = bed.port("gw")
        bed.server.dccp.listen(9001, lambda conn: None)
        outcomes = []
        conn = bed.client.dccp.connect(port.server_ip, 9001, iface_index=port.client_iface_index)
        conn.on_established = lambda c: outcomes.append("up")
        conn.on_failed = outcomes.append
        bed.sim.run(until=bed.sim.now + 30)
        assert outcomes == ["timeout"]
        assert bed.server.dccp.checksum_failures > 0  # the §4.4 mechanism


class TestHairpin:
    def test_hairpinning_when_enabled(self):
        bed = bed_with(make_profile("gw", nat=NatPolicy(hairpinning=True)))
        port = bed.port("gw")
        # A "server" socket behind the NAT.
        inside_server = bed.client.udp.bind(5100, port.client_iface_index)
        got = []
        inside_server.on_receive = lambda data, ip, p: got.append((data, ip))
        # Create its outbound binding first.
        inside_server.send_to(b"open", port.server_ip, 7000)
        bed.sim.run(until=bed.sim.now + 2)
        # Another inside socket now targets the WAN IP + external port.
        inside_client = bed.client.udp.bind(5200, port.client_iface_index)
        inside_client.send_to(b"hairpin", port.gateway.wan_ip, 5100)
        bed.sim.run(until=bed.sim.now + 2)
        assert any(data == b"hairpin" for data, _ip in got)

    def test_hairpinning_off_by_default(self):
        bed = bed_with(make_profile("gw"))
        port = bed.port("gw")
        inside_server = bed.client.udp.bind(5100, port.client_iface_index)
        got = []
        inside_server.on_receive = lambda data, ip, p: got.append(data)
        inside_server.send_to(b"open", port.server_ip, 7000)
        bed.sim.run(until=bed.sim.now + 2)
        inside_client = bed.client.udp.bind(5200, port.client_iface_index)
        inside_client.send_to(b"hairpin", port.gateway.wan_ip, 5100)
        bed.sim.run(until=bed.sim.now + 2)
        assert got == []


class TestDnsProxyThroughGateway:
    def _query(self, profile, transport):
        from repro.protocols import DnsStubResolver

        bed = bed_with(profile)
        port = bed.port(profile.tag)
        out = []
        resolver = DnsStubResolver(bed.client)
        query = resolver.query_udp if transport == "udp" else resolver.query_tcp
        query(port.gateway.lan_ip, "test.hiit.fi", out.append, iface_index=port.client_iface_index)
        bed.sim.run(until=bed.sim.now + 15)
        return out

    def test_udp_proxy_answers(self):
        out = self._query(make_profile("gw"), "udp")
        assert out and out[0] is not None and out[0].answers

    def test_tcp_refused_when_not_accepting(self):
        out = self._query(make_profile("gw", dns_proxy=DnsProxyPolicy(accepts_tcp=False)), "tcp")
        assert out == [None]

    def test_tcp_accepted_but_silent(self):
        profile = make_profile("gw", dns_proxy=DnsProxyPolicy(accepts_tcp=True, responds_tcp=False))
        out = self._query(profile, "tcp")
        assert out == [None]

    def test_tcp_answered(self):
        profile = make_profile("gw", dns_proxy=DnsProxyPolicy(accepts_tcp=True, responds_tcp=True))
        out = self._query(profile, "tcp")
        assert out and out[0] is not None and out[0].answers


class TestSharedMacQuirk:
    def test_shared_mac_profile_builds_and_works(self):
        bed = bed_with(make_profile("gw", quirks=QuirkPolicy(shared_wan_lan_mac=True)))
        port = bed.port("gw")
        assert port.gateway.wan_iface.mac == port.gateway.lan_iface.mac
        # Traffic still flows because WAN and LAN sit on separate switches.
        seen = []
        sink = bed.server.udp.bind(7000)
        sink.on_receive = lambda data, ip, p: seen.append(data)
        bed.client.udp.bind(0, port.client_iface_index).send_to(b"q", port.server_ip, 7000)
        bed.sim.run(until=bed.sim.now + 2)
        assert seen == [b"q"]
