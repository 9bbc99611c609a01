"""TURN-style relay, ICE-lite, UDP and TCP hole punching, and pcap export."""

import itertools

import pytest

from repro.devices import CATALOG, catalog_profiles
from repro.devices.profile import MappingBehavior
from repro.netsim.pcap import read_pcap
from repro.obs import PcapSink, TraceBus
from repro.testbed import Testbed
from repro.traversal import RelayServer, TcpHolePunchExperiment
from tests.conftest import cone, matrix_cells, symmetric


class TestRelay:
    def test_relay_carries_traffic_between_symmetric_nats(self):
        cell = matrix_cells([symmetric("a"), symmetric("b")], matrix_pairs="a+b")["a+b"]
        # ``relayed`` is set only after a check exchange crossed the relay
        # both ways; the keepalive ladder then rides the same relay ports.
        assert not cell.punched
        assert cell.relayed and cell.path == "relayed"
        assert cell.keepalive_interval is not None

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
    """ICE-lite as the ``traversal_matrix`` pair probe runs it: a direct punch first, the relay as fallback."""

    def test_cone_pair_goes_direct(self):
        for cell in matrix_cells([cone("a"), cone("b")]).values():
            assert cell.connected and cell.path == "direct", cell

    def test_symmetric_pair_falls_back_to_relay(self):
        for cell in matrix_cells([symmetric("a"), symmetric("b")]).values():
            assert cell.connected and cell.path == "relayed", cell
            assert not cell.punched

    def test_matrix_mixes_paths(self):
        cells = matrix_cells([cone("a"), cone("b"), symmetric("s")])
        assert {pair: cell.path for pair, cell in cells.items()} == {
            "a+b": "direct", "a+s": "relayed", "b+a": "direct",
            "b+s": "relayed", "s+a": "relayed", "s+b": "relayed",
        }
        for cell in cells.values():
            assert cell.connected, cell.pair
            assert cell.relayed == (cell.path == "relayed"), cell.pair


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
        cells = matrix_cells(catalog_profiles(tags)).values()
        assert len(cells) == len(tags) * (len(tags) - 1)
        friendly = _endpoint_independent(tags)
        for cell in cells:
            assert cell.punched == (cell.tag_a in friendly and cell.tag_b in friendly), cell.pair

    def test_ice_always_connects_and_tcp_punching_tracks_mapping(self):
        tags = ["al", "bu1", "dl1", "ng1", "smc"]
        cells = matrix_cells(catalog_profiles(tags)).values()
        friendly = _endpoint_independent(tags)
        # ICE always connects (relay is the safety net), directly exactly
        # where both sides are endpoint-independent.
        assert all(cell.connected for cell in cells)
        assert {cell.path for cell in cells} == {"direct", "relayed"}
        for cell in cells:
            both = cell.tag_a in friendly and cell.tag_b in friendly
            assert cell.path == ("direct" if both else "relayed"), cell.pair
        experiment = TcpHolePunchExperiment(Testbed.build(catalog_profiles(tags)))
        tcp = {pair: experiment.attempt(*pair) for pair in itertools.combinations(tags, 2)}
        experiment.close()
        # TCP punching matches the UDP-punch friendliness boundary here.
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
