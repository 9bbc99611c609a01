"""Links (timing, queueing, severing) and the VLAN switch."""

import pytest

from repro.netsim import Link, Node, VlanSwitch
from repro.netsim.addresses import BROADCAST_MAC
from repro.packets import EthernetFrame


class Sink(Node):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive_frame(self, iface, frame):
        self.received.append((self.sim.now, iface.index, frame))


def _pair(sim, macs, rate=100e6, delay=1e-3):
    a, b = Sink(sim, "a"), Sink(sim, "b")
    ia, ib = a.add_interface(next(macs)), b.add_interface(next(macs))
    link = Link(sim, rate_bps=rate, delay=delay).attach(ia, ib)
    return a, b, ia, ib, link


def test_delivery_time_is_serialization_plus_propagation(sim, macs):
    a, b, ia, ib, _link = _pair(sim, macs)
    frame = EthernetFrame(ib.mac, ia.mac, b"x" * 1000)
    ia.transmit(frame)
    sim.run()
    t, _iface, got = b.received[0]
    expected = frame.wire_size() * 8 / 100e6 + 1e-3
    assert t == pytest.approx(expected)
    assert got is frame


def test_back_to_back_frames_serialize(sim, macs):
    a, b, ia, ib, _link = _pair(sim, macs)
    for _ in range(3):
        ia.transmit(EthernetFrame(ib.mac, ia.mac, b"y" * 1000))
    sim.run()
    times = [t for t, _i, _f in b.received]
    gap = 1018 * 8 / 100e6
    assert times[1] - times[0] == pytest.approx(gap)
    assert times[2] - times[1] == pytest.approx(gap)


def test_full_duplex_no_contention(sim, macs):
    a, b, ia, ib, _link = _pair(sim, macs)
    ia.transmit(EthernetFrame(ib.mac, ia.mac, b"x" * 1000))
    ib.transmit(EthernetFrame(ia.mac, ib.mac, b"y" * 1000))
    sim.run()
    assert b.received[0][0] == pytest.approx(a.received[0][0])


def test_severed_link_loses_frames(sim, macs):
    a, b, ia, ib, link = _pair(sim, macs)
    link.sever()
    ia.transmit(EthernetFrame(ib.mac, ia.mac, b"z" * 100))
    sim.run()
    assert b.received == []
    link.mend()
    ia.transmit(EthernetFrame(ib.mac, ia.mac, b"z" * 100))
    sim.run()
    assert len(b.received) == 1


def test_unattached_interface_send_is_noop(sim, macs):
    node = Sink(sim, "lonely")
    iface = node.add_interface(next(macs))
    iface.transmit(EthernetFrame(BROADCAST_MAC, iface.mac, b"x"))
    sim.run()  # nothing scheduled, nothing crashes


def test_double_attach_rejected(sim, macs):
    a, b, ia, ib, link = _pair(sim, macs)
    with pytest.raises(RuntimeError):
        link.attach(ia, ib)
    c = Sink(sim, "c")
    ic = c.add_interface(next(macs))
    with pytest.raises(RuntimeError):
        Link(sim).attach(ia, ic)  # ia is already wired


class TestVlanSwitch:
    def _bed(self, sim, macs, vlans):
        switch = VlanSwitch(sim, "sw", macs)
        hosts = []
        for i, vlan in enumerate(vlans):
            host = Sink(sim, f"h{i}")
            iface = host.add_interface(next(macs))
            Link(sim).attach(iface, switch.new_port(vlan))
            hosts.append((host, iface))
        return switch, hosts

    def test_flood_within_vlan_only(self, sim, macs):
        switch, hosts = self._bed(sim, macs, [10, 10, 20])
        h0, i0 = hosts[0]
        i0.transmit(EthernetFrame(BROADCAST_MAC, i0.mac, b"hello"))
        sim.run()
        assert len(hosts[1][0].received) == 1
        assert len(hosts[2][0].received) == 0  # other VLAN isolated
        assert h0.received == []  # no reflection

    def test_learning_unicasts_after_flood(self, sim, macs):
        switch, hosts = self._bed(sim, macs, [10, 10, 10])
        (h0, i0), (h1, i1), (h2, i2) = hosts
        # h1 says something so the switch learns its port.
        i1.transmit(EthernetFrame(BROADCAST_MAC, i1.mac, b"announce"))
        sim.run()
        flooded_before = switch.frames_flooded
        i0.transmit(EthernetFrame(i1.mac, i0.mac, b"direct"))
        sim.run()
        assert switch.frames_flooded == flooded_before  # no new flood
        assert len(h1.received) == 1 + 0  # announce not self-delivered; direct +1
        assert not any(f.payload == b"direct" for _t, _i, f in h2.received)

    def test_unknown_destination_floods(self, sim, macs):
        switch, hosts = self._bed(sim, macs, [10, 10, 10])
        (h0, i0), (h1, _), (h2, _) = hosts
        stranger = next(macs)
        i0.transmit(EthernetFrame(stranger, i0.mac, b"who?"))
        sim.run()
        assert len(h1.received) == 1 and len(h2.received) == 1

    def test_same_mac_on_two_vlans_coexists(self, sim, macs):
        """The §4.4 shared-MAC quirk: two switches (or VLANs) keep the same
        MAC distinct because learning is per (vlan, mac)."""
        switch, hosts = self._bed(sim, macs, [10, 10, 20, 20])
        (h0, i0), (h1, i1), (h2, i2), (h3, i3) = hosts
        shared = i1.mac
        i3.mac = shared  # device reuses its MAC on the other VLAN
        i1.transmit(EthernetFrame(BROADCAST_MAC, shared, b"v10"))
        i3.transmit(EthernetFrame(BROADCAST_MAC, shared, b"v20"))
        sim.run()
        i0.transmit(EthernetFrame(shared, i0.mac, b"to-v10"))
        i2.transmit(EthernetFrame(shared, i2.mac, b"to-v20"))
        sim.run()
        assert any(f.payload == b"to-v10" for _t, _i, f in h1.received)
        assert any(f.payload == b"to-v20" for _t, _i, f in h3.received)

    def test_forget_clears_learning(self, sim, macs):
        switch, hosts = self._bed(sim, macs, [10, 10])
        (h0, i0), (h1, i1) = hosts
        i1.transmit(EthernetFrame(BROADCAST_MAC, i1.mac, b"x"))
        sim.run()
        switch.forget()
        flooded = switch.frames_flooded
        i0.transmit(EthernetFrame(i1.mac, i0.mac, b"y"))
        sim.run()
        assert switch.frames_flooded == flooded + 1
