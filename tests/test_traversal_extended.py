"""TURN-style relay, ICE-lite, UDP and TCP hole punching, and pcap export."""

import pytest

from repro.devices import CATALOG, catalog_profiles
from repro.devices.profile import FilteringBehavior, MappingBehavior, NatPolicy
from repro.netsim.pcap import read_pcap
from repro.obs import PcapSink, TraceBus
from repro.testbed import Testbed
from repro.traversal import HolePunchExperiment, IceLiteSession, RelayServer, TcpHolePunchExperiment
from tests.conftest import make_profile


def cone(tag, filtering=FilteringBehavior.ADDRESS_DEPENDENT):
    return make_profile(tag, nat=NatPolicy(filtering=filtering))


def symmetric(tag):
    return make_profile(
        tag,
        nat=NatPolicy(
            port_preservation=False,
            mapping=MappingBehavior.ADDRESS_AND_PORT_DEPENDENT,
            filtering=FilteringBehavior.ADDRESS_AND_PORT_DEPENDENT,
        ),
    )


class TestRelay:
    def test_relay_carries_traffic_between_symmetric_nats(self):
        bed = Testbed.build([symmetric("a"), symmetric("b")])
        bed.server.ip_forwarding = True
        session = IceLiteSession(bed)
        assert session._relay_pair("a", "b") is True
        assert session.relay.datagrams_relayed >= 2
        session.close()

    def test_relay_allocation_is_per_session(self):
        bed = Testbed.build([cone("a")])
        relay = RelayServer(bed.server)
        from repro.traversal.relay import decode, encode_allocate

        port_a = bed.port("a")
        sock = bed.client.udp.bind(0, port_a.client_iface_index)
        ports = []
        sock.on_receive = lambda payload, ip, p: ports.append(decode(payload)[3])
        sock.send_to(encode_allocate(101, 0), port_a.server_ip, 3480)
        sock.send_to(encode_allocate(102, 0), port_a.server_ip, 3480)
        bed.sim.run(until=bed.sim.now + 2)
        assert len(ports) == 2 and ports[0] != ports[1]
        relay.close()


class TestIceLite:
    def test_cone_pair_goes_direct(self):
        bed = Testbed.build([cone("a"), cone("b")])
        session = IceLiteSession(bed)
        outcome = session.connect("a", "b")
        session.close()
        assert outcome.connected and outcome.path == "direct"

    def test_symmetric_pair_falls_back_to_relay(self):
        bed = Testbed.build([symmetric("a"), symmetric("b")])
        session = IceLiteSession(bed)
        outcome = session.connect("a", "b")
        session.close()
        assert outcome.connected and outcome.path == "relayed"
        assert outcome.direct is not None and not outcome.direct.success

    def test_matrix_mixes_paths(self):
        bed = Testbed.build([cone("a"), cone("b"), symmetric("s")])
        session = IceLiteSession(bed)
        outcomes = session.matrix(["a", "b", "s"])
        session.close()
        assert outcomes[("a", "b")].path == "direct"
        assert outcomes[("a", "s")].path == "relayed"
        assert all(o.connected for o in outcomes.values())


class TestTcpHolePunch:
    def test_cone_pair_establishes_real_tcp(self):
        bed = Testbed.build([cone("a"), cone("b")])
        experiment = TcpHolePunchExperiment(bed)
        outcome = experiment.attempt("a", "b")
        experiment.close()
        assert outcome.success, outcome
        assert outcome.data_exchanged

    def test_reflexive_ports_reported(self):
        bed = Testbed.build([cone("a"), cone("b")])
        experiment = TcpHolePunchExperiment(bed)
        outcome = experiment.attempt("a", "b")
        experiment.close()
        # Port-preserving NATs: the reflexive port equals the local port.
        assert outcome.reflexive_a[1] == 42100
        assert outcome.reflexive_b[1] == 42200

    def test_symmetric_pair_fails(self):
        bed = Testbed.build([symmetric("a"), symmetric("b")])
        experiment = TcpHolePunchExperiment(bed)
        outcome = experiment.attempt("a", "b")
        experiment.close()
        assert not outcome.success


def _endpoint_independent(tags):
    return {tag for tag in tags if CATALOG[tag].nat.mapping is MappingBehavior.ENDPOINT_INDEPENDENT}


class TestCatalogTraversal:
    """§5's traversal trio on catalog devices: punching splits on the mapping behaviour, ICE always connects."""

    def test_udp_hole_punching_splits_on_mapping(self):
        tags = ["al", "ap", "bu1", "dl1", "ed", "ng1", "smc", "ls2", "zy1", "we"]
        experiment = HolePunchExperiment(Testbed.build(catalog_profiles(tags)))
        outcomes = experiment.matrix(tags)
        experiment.close()
        friendly = _endpoint_independent(tags)
        for (tag_a, tag_b), outcome in outcomes.items():
            if tag_a in friendly and tag_b in friendly:
                assert outcome.success, (tag_a, tag_b)
            if tag_a not in friendly and tag_b not in friendly:
                assert not outcome.success, (tag_a, tag_b)

    def test_ice_always_connects_and_tcp_punching_tracks_mapping(self):
        tags = ["al", "bu1", "dl1", "ng1", "smc"]
        session = IceLiteSession(Testbed.build(catalog_profiles(tags)))
        ice = session.matrix(tags)
        session.close()
        experiment = TcpHolePunchExperiment(Testbed.build(catalog_profiles(tags)))
        tcp = {pair: experiment.attempt(*pair) for pair in ice}
        experiment.close()
        # ICE always connects (relay is the safety net), sometimes directly.
        assert all(outcome.connected for outcome in ice.values())
        paths = [outcome.path for outcome in ice.values()]
        assert "relayed" in paths and "direct" in paths
        # TCP punching matches the UDP-punch friendliness boundary here.
        friendly = _endpoint_independent(tags)
        for (tag_a, tag_b), outcome in tcp.items():
            assert outcome.success == (tag_a in friendly and tag_b in friendly), (tag_a, tag_b, outcome)


class _Tap:
    """Every ``link.tx`` on one link, as (virtual time, wire bytes)."""

    def __init__(self, label):
        self.label = label
        self.records = []

    def handle(self, t, kind, fields):
        if kind == "link.tx" and fields["link"] == self.label:
            self.records.append((t, fields["_frame"].to_bytes()))


def _capture_wan(tmp_path, payload, seconds):
    """Send ``payload`` through gateway ``a``; capture its WAN link both ways."""
    bed = Testbed.build([cone("a")])
    port = bed.port("a")
    bus = TraceBus.attach(bed.sim)
    capture = bus.subscribe(PcapSink(tmp_path))
    tap = bus.subscribe(_Tap("a:wan"))
    sink = bed.server.udp.bind(7000)
    sink.on_receive = lambda *args: None
    sock = bed.client.udp.bind(0, port.client_iface_index)
    sock.send_to(payload, port.server_ip, 7000)
    bed.sim.run(until=bed.sim.now + seconds)
    bus.detach()
    capture.close()
    return port, tap.records, read_pcap(str(tmp_path / "a.wan.pcap"))


class TestPcap:
    def test_roundtrip_through_file(self, tmp_path):
        port, tapped, records = _capture_wan(tmp_path, b"capture-me", 2)
        assert len(records) == len(tapped) > 0
        assert [raw for _t, raw in records] == [raw for _t, raw in tapped]
        # The raw frame must parse back into the translated packet.
        from repro.packets import EthernetFrame, IPv4Packet

        frame = EthernetFrame.from_bytes(records[0][1], payload_parser=IPv4Packet.from_bytes)
        assert frame.payload.src == port.gateway.wan_ip
        assert b"capture-me" in frame.payload.payload.payload

    def test_timestamps_preserved_to_microseconds(self, tmp_path):
        _port, tapped, records = _capture_wan(tmp_path, b"t", 1)
        assert len(records) == len(tapped) > 0
        for (expected, _raw), (timestamp, _raw2) in zip(tapped, records):
            assert timestamp == pytest.approx(expected, abs=1e-6)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\x00" * 24)
        with pytest.raises(ValueError, match="magic"):
            read_pcap(str(path))
