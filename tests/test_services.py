"""DHCP, DNS, SCTP and DCCP endpoint services."""

from ipaddress import IPv4Address, IPv4Network

import pytest

from repro.netsim import Link
from repro.protocols import (
    DhcpClientService,
    DhcpServerService,
    DnsAuthoritativeServer,
    DnsStubResolver,
    Host,
)
from repro.protocols.stack import LIMITED_BROADCAST, UNSPECIFIED

NET = IPv4Network("192.168.1.0/24")
SERVER_IP = IPv4Address("192.168.1.1")


@pytest.fixture
def lan(sim, macs):
    server = Host(sim, "server", macs)
    client = Host(sim, "client", macs)
    si, ci = server.new_interface(), client.new_interface()
    Link(sim).attach(si, ci)
    si.configure(SERVER_IP, NET)
    return server, client


class TestDhcp:
    def _serve(self, server, **kwargs):
        return DhcpServerService(
            server, 0, NET, SERVER_IP, router=SERVER_IP, dns_servers=[SERVER_IP], **kwargs
        )

    def test_full_handshake_configures_client(self, lan, sim):
        server, client = lan
        self._serve(server)
        done = []
        dhcp = DhcpClientService(client, 0, on_configured=done.append)
        dhcp.start()
        sim.run(until=sim.now + 10)
        assert done
        iface = client.interfaces[0]
        assert iface.ip == IPv4Address("192.168.1.100")
        assert iface.gateway_ip == SERVER_IP
        assert dhcp.dns_servers == [SERVER_IP]
        assert dhcp.lease_time == 86400

    def test_two_clients_get_distinct_addresses(self, sim, macs):
        server = Host(sim, "server", macs)
        c1, c2 = Host(sim, "c1", macs), Host(sim, "c2", macs)
        from repro.netsim import VlanSwitch

        switch = VlanSwitch(sim, "sw", macs)
        si = server.new_interface()
        si.configure(SERVER_IP, NET)
        Link(sim).attach(si, switch.new_port(1))
        for c in (c1, c2):
            Link(sim).attach(c.new_interface(), switch.new_port(1))
        DhcpServerService(server, 0, NET, SERVER_IP)
        DhcpClientService(c1, 0).start()
        DhcpClientService(c2, 0).start()
        sim.run(until=10)
        assert c1.interfaces[0].ip != c2.interfaces[0].ip
        assert c1.interfaces[0].ip in NET and c2.interfaces[0].ip in NET

    def test_same_mac_gets_same_lease(self, lan, sim):
        server, client = lan
        service = self._serve(server)
        first_client = DhcpClientService(client, 0)
        first_client.start()
        sim.run(until=10)
        first = client.interfaces[0].ip
        client.interfaces[0].deconfigure()
        first_client.stop()
        DhcpClientService(client, 0).start()
        sim.run(until=sim.now + 10)
        assert client.interfaces[0].ip == first
        assert len(service.leases) == 1

    def test_pool_skips_reserved_addresses_and_wraps_below_first_offset(self, sim, macs):
        server = Host(sim, "server", macs)
        server.new_interface().configure(IPv4Address("10.9.0.1"), IPv4Network("10.9.0.0/29"))
        service = DhcpServerService(server, 0, IPv4Network("10.9.0.0/29"), IPv4Address("10.9.0.1"), first_offset=5)
        leased = [str(service._allocate(next(macs))) for _ in range(5)]
        assert leased == ["10.9.0.5", "10.9.0.6", "10.9.0.2", "10.9.0.3", "10.9.0.4"]
        with pytest.raises(RuntimeError, match="pool exhausted on 10.9.0.0/29"):
            service._allocate(next(macs))

    def test_datagrams_that_are_not_dhcp_messages_are_dropped(self, lan, sim):
        server, client = lan
        service = self._serve(server)
        dhcp = DhcpClientService(client, 0)
        dhcp.start()
        server.udp.bind(0, 0).send_to(b"\x02" * 300, LIMITED_BROADCAST, 68)
        client.udp.bind(0, 0).send_to(b"\x01" * 300, SERVER_IP, 67, src_ip=UNSPECIFIED)
        sim.run(until=sim.now + 10)
        assert dhcp.configured
        assert len(service.leases) == 1

    def test_retry_after_lost_offer(self, lan, sim):
        server, client = lan
        self._serve(server)
        # Swallow the first OFFER so the client must retry its DISCOVER.
        state = {"dropped": 0}

        def drop_one(packet, iface):
            from repro.packets.udp import UdpDatagram

            if isinstance(packet.payload, UdpDatagram) and packet.payload.src_port == 67:
                if state["dropped"] == 0:
                    state["dropped"] = 1
                    return True
            return False

        client.install_intercept(drop_one)
        dhcp = DhcpClientService(client, 0)
        dhcp.start()
        sim.run(until=30)
        assert dhcp.configured


class TestDnsService:
    def test_udp_query(self, lan, sim):
        server, client = lan
        client.interfaces[0].configure(IPv4Address("192.168.1.50"), NET)
        DnsAuthoritativeServer(server, {"www.example": IPv4Address("192.0.2.1")})
        out = []
        DnsStubResolver(client).query_udp(SERVER_IP, "www.example", out.append)
        sim.run(until=10)
        assert out[0].answers[0].address == IPv4Address("192.0.2.1")

    def test_udp_nxdomain(self, lan, sim):
        server, client = lan
        client.interfaces[0].configure(IPv4Address("192.168.1.50"), NET)
        DnsAuthoritativeServer(server, {})
        out = []
        DnsStubResolver(client).query_udp(SERVER_IP, "no.such.name", out.append)
        sim.run(until=10)
        assert out[0] is not None and out[0].rcode == 3 and not out[0].answers

    def test_tcp_query(self, lan, sim):
        server, client = lan
        client.interfaces[0].configure(IPv4Address("192.168.1.50"), NET)
        DnsAuthoritativeServer(server, {"tcp.example": IPv4Address("192.0.2.2")})
        out = []
        DnsStubResolver(client).query_tcp(SERVER_IP, "tcp.example", out.append)
        sim.run(until=20)
        assert out and out[0] is not None
        assert out[0].answers[0].address == IPv4Address("192.0.2.2")

    def test_udp_timeout_returns_none(self, lan, sim):
        server, client = lan
        client.interfaces[0].configure(IPv4Address("192.168.1.50"), NET)
        server.install_intercept(lambda packet, iface: True)  # black hole
        out = []
        DnsStubResolver(client).query_udp(SERVER_IP, "x.example", out.append, timeout=2.0)
        sim.run(until=10)
        assert out == [None]

    def test_tcp_refused_returns_none(self, lan, sim):
        server, client = lan
        client.interfaces[0].configure(IPv4Address("192.168.1.50"), NET)
        # No DNS server at all: TCP 53 refuses.
        out = []
        DnsStubResolver(client).query_tcp(SERVER_IP, "x.example", out.append, timeout=3.0)
        sim.run(until=10)
        assert out == [None]


class TestSctp:
    def test_association_and_data(self, host_pair, sim):
        a, b = host_pair
        got = []
        b.sctp.listen(9000, lambda assoc: setattr(assoc, "on_data", got.append))
        events = []
        assoc = a.sctp.connect(IPv4Address("10.0.0.2"), 9000)
        assoc.on_established = lambda x: (events.append("up"), x.send(b"payload"))
        sim.run(until=10)
        assert events == ["up"]
        assert got == [b"payload"]
        assert assoc.data_acked == 1

    def test_connect_timeout_without_listener(self, host_pair, sim):
        a, b = host_pair
        failures = []
        assoc = a.sctp.connect(IPv4Address("10.0.0.2"), 9999)
        assoc.on_failed = failures.append
        sim.run(until=30)
        assert failures == ["timeout"]

    def test_abort_tears_down(self, host_pair, sim):
        a, b = host_pair
        b.sctp.listen(9000)
        assoc = a.sctp.connect(IPv4Address("10.0.0.2"), 9000)
        assoc.on_established = lambda x: x.abort()
        sim.run(until=10)
        assert assoc.state == "CLOSED"
        assert not a.sctp.associations

    def test_corrupted_crc_dropped(self, host_pair, sim):
        a, b = host_pair
        b.sctp.listen(9000)

        def corrupt(packet, iface):
            from repro.packets.sctp import SctpPacket

            if isinstance(packet.payload, SctpPacket) and packet.payload.checksum is not None:
                packet.payload.checksum ^= 0xFFFF
            return False

        b.install_intercept(corrupt)
        failures = []
        assoc = a.sctp.connect(IPv4Address("10.0.0.2"), 9000)
        assoc.on_failed = failures.append
        sim.run(until=30)
        assert failures == ["timeout"]
        assert b.sctp.checksum_failures > 0


class TestDccp:
    def test_connection_and_data(self, host_pair, sim):
        a, b = host_pair
        got = []
        b.dccp.listen(9001, lambda conn: setattr(conn, "on_data", got.append))
        conn = a.dccp.connect(IPv4Address("10.0.0.2"), 9001, service_code=5)
        conn.on_established = lambda c: c.send(b"dccp!")
        sim.run(until=10)
        assert got == [b"dccp!"]
        assert conn.state == "ESTABLISHED"

    def test_request_timeout(self, host_pair, sim):
        a, b = host_pair
        failures = []
        conn = a.dccp.connect(IPv4Address("10.0.0.2"), 9998)
        conn.on_failed = failures.append
        sim.run(until=30)
        assert failures == ["timeout"]

    def test_bad_pseudo_header_checksum_dropped(self, host_pair, sim):
        """Rewrite the source address en route (an IP-only NAT would) and
        DCCP's checksum validation must reject the packet."""
        a, b = host_pair

        def rewrite(packet, iface):
            from repro.packets.dccp import DccpPacket

            if isinstance(packet.payload, DccpPacket):
                packet.src = IPv4Address("10.0.0.77")  # checksum left stale
            return False

        b.install_intercept(rewrite)
        failures = []
        conn = a.dccp.connect(IPv4Address("10.0.0.2"), 9001)
        conn.on_failed = failures.append
        sim.run(until=30)
        assert failures == ["timeout"]
        assert b.dccp.checksum_failures > 0
