"""Path MTU discovery and the §3.2.3 black-hole failure mode."""

from ipaddress import IPv4Address

import pytest

from repro.core import PmtuBlackholeTest, attach_far_host
from repro.core.pmtu import FAR_HOST_IP
from repro.devices.profile import IcmpPolicy, icmp_actions
from repro.testbed import Testbed
from tests.conftest import make_profile


def frag_needed_dropper(tag):
    """A device that translates basics but drops TCP Frag Needed."""
    return make_profile(
        tag,
        icmp=IcmpPolicy(
            tcp=icmp_actions({"port_unreach", "ttl_exceeded", "host_unreach"}),
            udp=icmp_actions({"port_unreach", "ttl_exceeded", "host_unreach"}),
        ),
    )


class TestRouterFragNeeded:
    def test_router_emits_frag_needed_with_mtu(self, sim, macs):
        """Router-level behaviour, no gateway in the path."""
        from ipaddress import IPv4Network
        from repro.netsim import Link
        from repro.protocols import Host

        router = Host(sim, "router", macs)
        router.ip_forwarding = True
        a, b = Host(sim, "a", macs), Host(sim, "b", macs)
        r0, r1 = router.new_interface(), router.new_interface()
        ia, ib = a.new_interface(), b.new_interface()
        Link(sim).attach(ia, r0)
        Link(sim).attach(ib, r1)
        r1.mtu = 800
        net_a, net_b = IPv4Network("10.1.0.0/24"), IPv4Network("10.2.0.0/24")
        r0.configure(IPv4Address("10.1.0.1"), net_a)
        r1.configure(IPv4Address("10.2.0.1"), net_b)
        ia.configure(IPv4Address("10.1.0.2"), net_a)
        ib.configure(IPv4Address("10.2.0.2"), net_b)
        a.add_default_route(0, IPv4Address("10.1.0.1"))
        b.add_default_route(0, IPv4Address("10.2.0.1"))
        received = bytearray()
        b.tcp.listen(80, lambda conn: setattr(conn, "on_data", received.extend))
        conn = a.tcp.connect(IPv4Address("10.2.0.2"), 80)
        payload = b"p" * 50_000
        conn.on_established = lambda c: c.send(payload)
        sim.run(until=30)
        assert bytes(received) == payload
        assert conn.pmtu_reductions == 1
        assert conn.mss == 800 - 40

    def test_mss_never_grows_from_stale_error(self, sim, macs):
        from repro.packets.icmp import ICMP_DEST_UNREACH, UNREACH_FRAG_NEEDED, IcmpMessage
        from repro.protocols import Host

        host = Host(sim, "h", macs)
        host.new_interface()
        from repro.protocols.tcp import TcpConnection

        conn = TcpConnection(host.tcp, IPv4Address("10.0.0.1"), 1, IPv4Address("10.0.0.2"), 2)
        conn.mss = 500
        conn.handle_frag_needed(IcmpMessage(ICMP_DEST_UNREACH, UNREACH_FRAG_NEEDED, rest=1000))
        assert conn.mss == 500  # 1000-40 > 500: ignored


class TestBlackholeExperiment:
    def test_translator_completes_dropper_stalls(self):
        profiles = [make_profile("ok"), frag_needed_dropper("hole")]
        bed = Testbed.build(profiles)
        results = PmtuBlackholeTest().run_all(bed)
        assert results["ok"].completed
        assert results["ok"].pmtu_reductions == 1
        assert results["ok"].mss_after == 960
        assert results["ok"].duration < 5.0
        assert results["hole"].black_hole
        assert results["hole"].mss_after == 1460  # never learned the path MTU

    def test_catalog_examples(self):
        """bu1 translates Frag Needed; be1 does not (Table 2 groups)."""
        from repro.devices import profile_for

        bed = Testbed.build([profile_for("bu1"), profile_for("be1")])
        results = PmtuBlackholeTest().run_all(bed)
        assert results["bu1"].completed
        assert results["be1"].black_hole

    def test_far_host_reachable_small_packets(self):
        """Small traffic is fine even on the thin path — the black hole only
        swallows full-size segments (what makes it so nasty to debug)."""
        bed = Testbed.build([frag_needed_dropper("hole")])
        far = attach_far_host(bed)
        port = bed.port("hole")
        got = []
        far.udp.bind(7000).on_receive = lambda data, ip, p: got.append(data)
        sock = bed.client.udp.bind(0, port.client_iface_index)
        sock.send_to(b"tiny", FAR_HOST_IP, 7000)
        bed.sim.run(until=bed.sim.now + 3)
        assert got == [b"tiny"]

    def test_path_mtu_validation(self):
        with pytest.raises(ValueError):
            PmtuBlackholeTest(path_mtu=100)
