"""NAT traversal through a NAT444 chain.

Stacking a CGN in front of a well-behaved home gateway degrades the
properties hole punching depends on: the STUN classification of the *chain*
is the worst of its tiers, and peer-to-peer punching between two
subscribers of the same CGN only works if the carrier hairpins traffic
addressed to its own external IP (deployed CGNs usually do not).
"""

from ipaddress import IPv4Address
from typing import Generator

from repro.cgn import CgnPolicy, Nat444Topology
from repro.core.runtime import Future, SimTask, run_tasks
from repro.devices.profile import FilteringBehavior, MappingBehavior, NatPolicy
from repro.traversal.stun import StunClient, StunServer, classify
from tests.conftest import make_profile

RENDEZVOUS_PORT = 3478
PUNCH_ATTEMPTS = 5
PUNCH_INTERVAL = 0.2
PUNCH_TIMEOUT = 5.0

#: A maximally traversal-friendly home gateway: full cone in RFC 3489 terms.
FULL_CONE_HOME = NatPolicy(
    mapping=MappingBehavior.ENDPOINT_INDEPENDENT,
    filtering=FilteringBehavior.ENDPOINT_INDEPENDENT,
)


def _build(cgn_policy: CgnPolicy, subscribers: int = 2) -> Nat444Topology:
    profile = make_profile("dev", nat=FULL_CONE_HOME)
    return Nat444Topology.build(
        [profile], seed=21, subscribers=subscribers, cgn_policy=cgn_policy
    )


def _classify_through(bed: Nat444Topology, tag: str = "dev"):
    """Run the RFC 3489 classification end to end through both NAT tiers."""
    server = StunServer(bed.server)
    client = StunClient(bed.client, iface_index=bed.client_iface(tag, 1).index)
    box = {}

    def procedure() -> Generator:
        box["verdict"] = yield from classify(client, bed.segment(tag).server_ip)

    run_tasks(bed.sim, [SimTask(bed.sim, procedure(), name="cgn-classify")])
    client.close()
    server.close()
    return box["verdict"]


class TestClassificationDegrades:
    def test_symmetric_cgn_makes_the_whole_chain_symmetric(self):
        # The home tier alone is a full cone; a symmetric CGN in front of it
        # is what a STUN client actually observes.
        verdict = _classify_through(
            _build(CgnPolicy(mapping=MappingBehavior.ADDRESS_AND_PORT_DEPENDENT))
        )
        assert verdict.rfc3489_type == "symmetric"
        assert not verdict.hole_punching_friendly

    def test_filtering_cgn_downgrades_a_full_cone(self):
        verdict = _classify_through(
            _build(CgnPolicy(filtering=FilteringBehavior.ADDRESS_AND_PORT_DEPENDENT))
        )
        assert verdict.mapping == "endpoint_independent"
        assert verdict.rfc3489_type == "port-restricted cone"

    def test_well_behaved_cgn_preserves_the_cone(self):
        # Endpoint-independent mapping at both tiers keeps punching viable;
        # the chain still cannot look like a full cone because the CGN
        # filters per address (its default), and the client's source port
        # is never preserved across two translations.
        verdict = _classify_through(_build(CgnPolicy()))
        assert verdict.mapping == "endpoint_independent"
        assert verdict.hole_punching_friendly
        assert not verdict.preserves_port


class _Peer:
    """One subscriber endpoint behind one home gateway of the segment."""

    def __init__(self, bed: Nat444Topology, tag: str, subscriber: int):
        self.stun = StunClient(
            bed.client, iface_index=bed.client_iface(tag, subscriber).index
        )
        self.got_punch = Future(timeout=PUNCH_TIMEOUT)
        inner = self.stun.socket.on_receive

        def on_receive(payload: bytes, src_ip: IPv4Address, src_port: int) -> None:
            if payload.startswith(b"PUNCH:"):
                self.got_punch.set_result((src_ip, src_port))
                return
            if inner is not None:
                inner(payload, src_ip, src_port)

        self.stun.socket.on_receive = on_receive

    def close(self) -> None:
        self.stun.close()


def _punch_between_subscribers(bed: Nat444Topology, tag: str = "dev"):
    """Rendezvous + simultaneous punch between subscribers 1 and 2.

    Both peers share one CGN, so each one's reflexive endpoint *is* the
    CGN's external address — the punches are addressed straight at it.
    """
    server = StunServer(bed.server, RENDEZVOUS_PORT, RENDEZVOUS_PORT + 1)
    peer_a = _Peer(bed, tag, 1)
    peer_b = _Peer(bed, tag, 2)
    server_ip = bed.segment(tag).server_ip
    outcome = {"success": False}

    def procedure() -> Generator:
        reflexive_a = yield peer_a.stun.request(server_ip, RENDEZVOUS_PORT)
        reflexive_b = yield peer_b.stun.request(server_ip, RENDEZVOUS_PORT)
        assert reflexive_a is not None and reflexive_b is not None
        cgn_wan = bed.segment(tag).cgn.wan_ip
        assert reflexive_a.ip == reflexive_b.ip == cgn_wan
        for attempt in range(PUNCH_ATTEMPTS):
            marker = f"{attempt}".encode()
            peer_a.stun.socket.send_to(b"PUNCH:" + marker, reflexive_b.ip, reflexive_b.port)
            peer_b.stun.socket.send_to(b"PUNCH:" + marker, reflexive_a.ip, reflexive_a.port)
            yield PUNCH_INTERVAL
        a_heard = yield peer_a.got_punch
        b_heard = yield peer_b.got_punch
        outcome["success"] = a_heard is not None and b_heard is not None

    run_tasks(bed.sim, [SimTask(bed.sim, procedure(), name="cgn-punch")])
    peer_a.close()
    peer_b.close()
    server.close()
    return outcome["success"]


class TestHolePunchBehindOneCgn:
    def test_punch_fails_without_cgn_hairpinning(self):
        # Deployed default: the CGN does not loop subscriber-to-subscriber
        # traffic addressed to its own external IP, so two homes that share
        # it cannot reach each other even with perfectly cone-ish NATs.
        assert not _punch_between_subscribers(_build(CgnPolicy(hairpinning=False)))

    def test_punch_succeeds_with_cgn_hairpinning(self):
        assert _punch_between_subscribers(_build(CgnPolicy(hairpinning=True)))
