"""Host stack: routing, neighbor learning, observers, UDP sockets, ICMP."""

from ipaddress import IPv4Address, IPv4Network

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim import Simulation, mac_allocator
from repro.packets import IPv4Packet, PROTO_UDP, UdpDatagram
from repro.protocols import Host
from repro.protocols.stack import Route


class TestRouting:
    def test_connected_route_wins(self, host_pair):
        a, b = host_pair
        route = a.lookup_route(IPv4Address("10.0.0.2"))
        assert route.gateway is None and route.iface_index == 0

    def test_longest_prefix_match(self, sim, macs):
        host = Host(sim, "h", macs)
        host.new_interface()
        host.add_route(IPv4Network("10.0.0.0/8"), 0, IPv4Address("10.0.0.254"))
        host.add_route(IPv4Network("10.1.0.0/16"), 0, IPv4Address("10.0.0.253"))
        assert host.lookup_route(IPv4Address("10.1.2.3")).gateway == IPv4Address("10.0.0.253")
        assert host.lookup_route(IPv4Address("10.9.9.9")).gateway == IPv4Address("10.0.0.254")

    def test_default_route(self, sim, macs):
        host = Host(sim, "h", macs)
        host.new_interface()
        host.add_default_route(0, IPv4Address("192.0.2.1"))
        assert host.lookup_route(IPv4Address("8.8.8.8")).gateway == IPv4Address("192.0.2.1")

    def test_no_route_returns_none(self, sim, macs):
        host = Host(sim, "h", macs)
        host.new_interface()
        assert host.lookup_route(IPv4Address("8.8.8.8")) is None
        packet = IPv4Packet(IPv4Address("1.1.1.1"), IPv4Address("8.8.8.8"), PROTO_UDP, UdpDatagram(1, 2))
        assert host.send_ip(packet) is False

    def test_clear_routes_per_interface(self, sim, macs):
        host = Host(sim, "h", macs)
        host.new_interface()
        host.new_interface()
        host.add_route(IPv4Network("10.0.0.0/8"), 0, None)
        host.add_route(IPv4Network("172.16.0.0/12"), 1, None)
        host.clear_routes(iface_index=0)
        assert host.routes == [Route(IPv4Network("172.16.0.0/12"), 1, None)]

    def test_source_ip_for(self, host_pair):
        a, b = host_pair
        assert a.source_ip_for(IPv4Address("10.0.0.2")) == IPv4Address("10.0.0.1")
        assert a.source_ip_for(IPv4Address("8.8.8.8")) is None


addresses = st.integers(min_value=0, max_value=2**32 - 1).map(IPv4Address)


def _network_around(address: IPv4Address, prefixlen: int) -> IPv4Network:
    return IPv4Network((int(address), prefixlen), strict=False)


def _reference_lookup(host, dst):
    """``lookup_route`` over IPv4Network objects, as it was written before
    the data path compared ints: the oracle for the int version."""
    best, best_len = None, -1
    for iface in host.interfaces:
        if iface.network is not None and dst in iface.network and iface.network.prefixlen > best_len:
            best, best_len = Route(iface.network, iface.index, None), iface.network.prefixlen
    for route in host.routes:
        if dst in route.network and route.network.prefixlen > best_len:
            best, best_len = route, route.network.prefixlen
    return best


class TestIntAddressing:
    """The ints ``Interface.configure`` derives agree with the
    ``IPv4Address``/``IPv4Network`` semantics they replace on the data
    path, and the int longest-prefix match agrees with its reference."""

    @staticmethod
    def _assert_agrees(iface, probe):
        value = int(probe)
        network = iface.network
        assert (value & iface.mask_int == iface.net_int) == (network is not None and probe in network)
        assert (value == iface.broadcast_int) == (network is not None and probe == network.broadcast_address)
        assert (value == iface.ip_int) == (iface.ip is not None and probe == iface.ip)

    @settings(max_examples=200, deadline=None)
    @given(
        ip=addresses, prefixlen=st.integers(0, 32),
        new_ip=addresses, new_prefixlen=st.integers(0, 32),
        probe=addresses,
    )
    def test_interface_ints_agree_across_configure_deconfigure_and_re_lease(
        self, ip, prefixlen, new_ip, new_prefixlen, probe
    ):
        host = Host(Simulation(), "h", mac_allocator())
        iface = host.new_interface()
        network = _network_around(ip, prefixlen)
        new_network = _network_around(new_ip, new_prefixlen)
        probes = [probe, ip, new_ip, network.network_address, network.broadcast_address,
                  new_network.broadcast_address, IPv4Address("0.0.0.0"), IPv4Address("255.255.255.255")]
        for step in ("unconfigured", "configured", "deconfigured", "re-leased"):
            if step == "configured":
                iface.configure(ip, network)
            elif step == "deconfigured":
                iface.deconfigure()
                assert iface.route is None
            elif step == "re-leased":
                iface.configure(ip, network)
                iface.configure(new_ip, new_network, gateway_ip=new_ip)
                assert iface.route == Route(new_network, iface.index, None)
            for address in probes:
                self._assert_agrees(iface, address)

    @settings(max_examples=200, deadline=None)
    @given(
        lan=addresses, wan=addresses, host_route=addresses,
        near=st.integers(0, 255), dst=addresses,
        default=st.booleans(),
    )
    def test_lookup_route_matches_the_network_reference(self, lan, wan, host_route, near, dst, default):
        host = Host(Simulation(), "h", mac_allocator())
        host.new_interface().configure(lan, _network_around(lan, 24))
        host.new_interface().configure(wan, _network_around(wan, 24))
        host.new_interface()  # never configured
        host.add_route(IPv4Network((int(host_route), 32)), 1, wan)
        host.add_route(_network_around(host_route, 24), 0, lan)
        host.add_route(_network_around(lan, 24), 1, wan)  # ties the connected /24, which wins
        if default:
            host.add_default_route(1, wan)
        candidates = [dst, lan, wan, host_route, IPv4Address((int(lan) & ~0xFF) | near),
                      IPv4Address((int(host_route) & ~0xFF) | near), IPv4Address("255.255.255.255")]
        for address in candidates:
            assert host.lookup_route(address) == _reference_lookup(host, address)


class TestNeighborLearning:
    def test_first_send_broadcasts_then_unicasts(self, host_pair):
        a, b = host_pair
        sock_b = b.udp.bind(9)
        sock_b.on_receive = lambda *args: None
        sock_a = a.udp.bind(0)
        sock_a.send_to(b"x", IPv4Address("10.0.0.2"), 9)
        a.sim.run()
        # b learned a's mac from the broadcast; a learns when b replies.
        assert (0, int(IPv4Address("10.0.0.1"))) in b.neighbors

    def test_interface_mismatch_frame_dropped(self, host_pair):
        a, b = host_pair
        # Frame addressed to a stranger MAC must be ignored by the host.
        from repro.packets import EthernetFrame

        stranger = IPv4Packet(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"), PROTO_UDP, UdpDatagram(5, 6))
        stranger.fill_checksums()
        frame = EthernetFrame(b.interfaces[0].mac, a.interfaces[0].mac, stranger)
        frame.dst = a.interfaces[0].mac  # wrong: addressed back at sender
        before = b.packets_received
        b.receive_frame(b.interfaces[0], frame)
        assert b.packets_received == before


class TestObservers:
    def test_observer_sees_accepted_packets(self, host_pair):
        a, b = host_pair
        seen = []
        remove = b.observe_ip(lambda packet, iface: seen.append(packet))
        sock_b = b.udp.bind(1234)
        sock_b.on_receive = lambda *args: None
        a.udp.bind(0).send_to(b"x", IPv4Address("10.0.0.2"), 1234)
        a.sim.run()
        assert len(seen) == 1
        remove()
        a.udp.bind(0).send_to(b"y", IPv4Address("10.0.0.2"), 1234)
        a.sim.run()
        assert len(seen) == 1

    def test_interceptor_consumes(self, host_pair):
        a, b = host_pair
        sock_b = b.udp.bind(1234)
        got = []
        sock_b.on_receive = lambda data, ip, port: got.append(data)
        b.install_intercept(lambda packet, iface: True)  # swallow everything
        a.udp.bind(0).send_to(b"x", IPv4Address("10.0.0.2"), 1234)
        a.sim.run()
        assert got == []


class TestUdpSockets:
    def test_echo(self, host_pair):
        a, b = host_pair
        server = b.udp.bind(7)
        server.on_receive = lambda data, ip, port: server.send_to(data.upper(), ip, port)
        got = []
        client = a.udp.bind(0)
        client.on_receive = lambda data, ip, port: got.append(data)
        client.send_to(b"hello", IPv4Address("10.0.0.2"), 7)
        a.sim.run()
        assert got == [b"HELLO"]

    def test_ephemeral_ports_distinct(self, host_pair):
        a, _ = host_pair
        s1, s2 = a.udp.bind(0), a.udp.bind(0)
        assert s1.port != s2.port
        assert 32768 <= s1.port <= 61000

    def test_bind_conflict(self, host_pair):
        a, _ = host_pair
        a.udp.bind(5353)
        with pytest.raises(OSError):
            a.udp.bind(5353)

    def test_bind_same_port_different_ifaces(self, sim, macs):
        host = Host(sim, "h", macs)
        host.new_interface()
        host.new_interface()
        host.udp.bind(68, iface_index=0)
        host.udp.bind(68, iface_index=1)  # fine: per-interface
        with pytest.raises(OSError):
            host.udp.bind(68, iface_index=1)

    def test_close_releases_port(self, host_pair):
        a, _ = host_pair
        sock = a.udp.bind(4000)
        sock.close()
        a.udp.bind(4000)  # no conflict now

    def test_send_on_closed_socket_raises(self, host_pair):
        a, _ = host_pair
        sock = a.udp.bind(0)
        sock.close()
        with pytest.raises(RuntimeError):
            sock.send_to(b"x", IPv4Address("10.0.0.2"), 1)

    def test_unmatched_port_triggers_icmp_unreachable(self, host_pair):
        a, b = host_pair
        errors = []
        client = a.udp.bind(0)
        client.on_icmp_error = lambda icmp, embedded: errors.append(icmp)
        client.send_to(b"x", IPv4Address("10.0.0.2"), 4444)  # nobody listens
        a.sim.run()
        assert len(errors) == 1
        from repro.packets import ICMP_DEST_UNREACH, UNREACH_PORT

        assert errors[0].icmp_type == ICMP_DEST_UNREACH and errors[0].code == UNREACH_PORT

    def test_checksum_corruption_dropped(self, host_pair):
        a, b = host_pair
        got = []
        server = b.udp.bind(7)
        server.on_receive = lambda data, ip, port: got.append(data)
        datagram = UdpDatagram(1000, 7, b"data")
        packet = IPv4Packet(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"), PROTO_UDP, datagram)
        packet.fill_checksums()
        datagram.checksum = (datagram.checksum + 1) & 0xFFFF  # corrupt
        a.send_ip(packet)
        a.sim.run()
        assert got == []
        assert b.checksum_drops == 1


class TestIcmpService:
    def test_ping_reply(self, host_pair):
        a, b = host_pair
        replies = []
        a.icmp.ping(IPv4Address("10.0.0.2"), on_reply=replies.append)
        a.sim.run()
        assert replies == [IPv4Address("10.0.0.2")]

    def test_echo_disabled(self, host_pair):
        a, b = host_pair
        b.icmp.answer_echo = False
        replies = []
        a.icmp.ping(IPv4Address("10.0.0.2"), on_reply=replies.append)
        a.sim.run()
        assert replies == []

    def test_observer_sees_echo_request(self, host_pair):
        a, b = host_pair
        seen = []
        b.icmp.observers.append(lambda message, packet, iface: seen.append(message.icmp_type))
        a.icmp.ping(IPv4Address("10.0.0.2"))
        a.sim.run()
        assert 8 in seen
