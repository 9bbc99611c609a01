"""STUN classification and UDP hole punching."""

import json
from collections import Counter
from ipaddress import IPv4Address

from repro.core.runtime import SimTask, run_tasks
from repro.devices.profile import FilteringBehavior
from repro.testbed import Testbed
from repro.traversal import StunClient, StunServer, classify
from repro.traversal.stun import MappedAddress, decode, encode_request, encode_response
from tests.conftest import cone, matrix_cells, symmetric


class TestWireFormat:
    def test_request_roundtrip(self):
        msg_type, flags, txid, mapped = decode(encode_request(12345, flags=1))
        assert (msg_type, flags, txid, mapped) == (1, 1, 12345, None)

    def test_response_roundtrip(self):
        mapped = MappedAddress(IPv4Address("10.0.1.2"), 40001)
        msg_type, _flags, txid, decoded = decode(encode_response(7, mapped))
        assert msg_type == 2 and txid == 7 and decoded == mapped

    def test_garbage_rejected(self):
        assert decode(b"not-stun") is None
        assert decode(b"") is None


def _classify(bed, tag):
    port = bed.port(tag)
    server = StunServer(bed.server)
    client = StunClient(bed.client, iface_index=port.client_iface_index)
    task = SimTask(bed.sim, classify(client, port.server_ip), name=f"stun:{tag}")
    run_tasks(bed.sim, [task])
    client.close()
    server.close()
    return task.result


class TestStunClassification:
    def test_full_cone_ish_device(self):
        bed = Testbed.build([cone("cone", FilteringBehavior.ENDPOINT_INDEPENDENT)])
        verdict = _classify(bed, "cone")
        assert verdict.mapping == "endpoint_independent"
        assert verdict.filtering == "address_dependent"  # one-address limit
        assert verdict.preserves_port
        assert verdict.hole_punching_friendly
        assert "cone" in verdict.rfc3489_type

    def test_port_restricted_device(self):
        bed = Testbed.build([cone("pr", FilteringBehavior.ADDRESS_AND_PORT_DEPENDENT)])
        verdict = _classify(bed, "pr")
        assert verdict.mapping == "endpoint_independent"
        assert verdict.filtering == "address_and_port_dependent"
        assert verdict.rfc3489_type == "port-restricted cone"

    def test_symmetric_device(self):
        bed = Testbed.build([symmetric("sym")])
        verdict = _classify(bed, "sym")
        assert verdict.mapping == "symmetric"
        assert verdict.rfc3489_type == "symmetric"
        assert not verdict.hole_punching_friendly

    def test_catalog_devices_classify_as_configured(self):
        from repro.devices import profile_for

        bed = Testbed.build([profile_for("bu1"), profile_for("ng1")])
        assert _classify(bed, "bu1").mapping == "endpoint_independent"
        assert _classify(bed, "ng1").mapping == "symmetric"


class TestHolePunching:
    """Simultaneous UDP punches, run as ``traversal_matrix`` campaigns over every ordered pair."""

    def test_cone_to_cone_succeeds(self):
        cells = matrix_cells([cone("a"), cone("b")])
        assert set(cells) == {"a+b", "b+a"}
        for cell in cells.values():
            assert cell.punched and cell.path == "direct", cell

    def test_port_restricted_pair_succeeds(self):
        """Simultaneous punches defeat even port-restricted filtering when
        mappings are endpoint-independent (Ford et al.)."""
        cells = matrix_cells([
            cone("a", FilteringBehavior.ADDRESS_AND_PORT_DEPENDENT),
            cone("b", FilteringBehavior.ADDRESS_AND_PORT_DEPENDENT),
        ])
        for cell in cells.values():
            assert cell.punched and cell.path == "direct", cell

    def test_symmetric_pair_fails(self):
        cells = matrix_cells([symmetric("a"), symmetric("b")])
        assert set(cells) == {"a+b", "b+a"}
        for cell in cells.values():
            assert not cell.punched, cell

    def test_symmetric_vs_full_cone_partial(self, tmp_path):
        """A symmetric NAT against an open (endpoint-independent-filtering)
        cone: the cone side hears the symmetric side's punches, but not the
        other way around — no bidirectional session."""
        cells = matrix_cells(
            [symmetric("a"), cone("b", FilteringBehavior.ENDPOINT_INDEPENDENT)],
            matrix_pairs="a+b", trace_dir=str(tmp_path),
        )
        heard = Counter(
            event["side"]
            for path in (tmp_path / "a+b").glob("*.jsonl")
            for event in map(json.loads, path.read_text().splitlines())
            if event["kind"] == "punch.rx"
        )
        assert heard["b"] > 0  # a's punches land on b's open binding
        assert heard["a"] == 0
        assert not cells["a+b"].punched

    def test_matrix(self):
        cells = matrix_cells([cone("a"), cone("b"), symmetric("s")])
        assert len(cells) == 6
        for cell in cells.values():
            assert cell.punched == ("s" not in (cell.tag_a, cell.tag_b)), cell.pair
