"""The N×N traversal matrix: STUN/hole-punch/relay over every device pair.

The DCUtR/IPFS measurement study (PAPERS.md) established that hole-punch
success is a property of NAT-type *pairs*, not of individual NATs.  This
module reproduces that axis inside the laboratory: the ``traversal_matrix``
experiment family enumerates every ordered profile pair as a campaign
:class:`~repro.core.registry.Subject` and, for each pair, runs the full
traversal pipeline on a dedicated two-gateway testbed:

1. **Classify** both sides with the RFC 3489 tests (each side against its
   own VLAN's STUN server);
2. **Register + punch**: both peers learn their reflexive endpoints from
   the rendezvous and fire simultaneous probes at each other
   (Ford et al. 2005) — emitting ``punch.tx``/``punch.rx`` trace events;
3. **Relay fallback**: if punching fails, allocate TURN-style relay ports
   and verify a bidirectional exchange (``relay.fallback`` event);
4. **Keepalive ladder**: on the winning path, stretch the idle gap through
   :data:`KEEPALIVE_RUNGS` until an exchange dies — the largest surviving
   rung is the pair's keepalive interval, i.e. the *cost of staying
   connected* (battery/chatter in the DCUtR study's terms).

With the ``matrix_cgn`` knob set, each pair additionally runs with a
NAT444 tier (one carrier-grade NAT with the campaign's CGN policy) in
front of side A, side B, and both — the multi-perspective CGN deployment
scenario.  Subject tags are ``a+b``, ``a+b.cgn-a``, ``a+b.cgn-b``,
``a+b.cgn-ab``.

The family is registered ``default_selected=False`` with
``subject_kind="pair"``: the full 34×34 matrix is ~1.2k subjects and
belongs to its own campaign (CLI ``--matrix``), not the paper's menu.
"""

from __future__ import annotations

from dataclasses import dataclass
from ipaddress import IPv4Address, IPv4Network
from typing import Dict, Generator, List, Mapping, Optional, Sequence, Tuple

from repro.cgn.families import Nat444Knobs, cgn_policy_for
from repro.cgn.node import CgnNode
from repro.core import registry
from repro.core.registry import Subject
from repro.core.results import median
from repro.core.runtime import Future, SimTask, run_tasks
from repro.devices.cgn_profiles import CgnPolicy
from repro.devices.profile import DeviceProfile
from repro.gateway.device import HomeGateway
from repro.netsim.sim import Simulation
from repro.obs.bus import PUNCH_RX, PUNCH_TX, RELAY_FALLBACK
from repro.protocols.dhcp import DhcpClientService
from repro.testbed.wiring import Wiring, dhcp_cascade, first_host, simulation, slash24

# The stun/relay siblings are imported lazily (inside the probe): this module
# is loaded by registry.ensure_loaded(), which can itself be triggered from
# inside ``repro.traversal``'s package import — a module-level sibling import
# here would then see a partially initialized module.

__all__ = [
    "TraversalCell",
    "PairSide",
    "PairTopology",
    "PairProbe",
    "pair_subject",
    "matrix_subjects",
    "MatrixKnobs",
    "pair_factory",
    "KEEPALIVE_RUNGS",
]

PUNCH_ATTEMPTS = 5
PUNCH_INTERVAL = 0.2
PUNCH_TIMEOUT = 5.0
RELAY_TIMEOUT = 5.0
#: Idle gaps [s] the keepalive ladder climbs; the largest surviving rung is
#: the pair's keepalive interval.  Spans the paper's UDP binding-timeout
#: range (§3.2: 30–180 s typical), so most pairs censor somewhere inside.
KEEPALIVE_RUNGS = (15.0, 30.0, 60.0, 120.0, 240.0, 480.0)
KEEPALIVE_GRACE = 2.0


# ---------------------------------------------------------------------------
# Subjects: ordered pairs, with optional NAT444-sided variants.
# ---------------------------------------------------------------------------


def pair_subject(
    profile_a: DeviceProfile, profile_b: DeviceProfile, cgn_a: bool = False, cgn_b: bool = False
) -> Subject:
    """The subject for one ordered pair (optionally CGN-sided)."""
    tag = f"{profile_a.tag}+{profile_b.tag}"
    if cgn_a and cgn_b:
        tag += ".cgn-ab"
    elif cgn_a:
        tag += ".cgn-a"
    elif cgn_b:
        tag += ".cgn-b"
    return Subject(
        kind="pair",
        tag=tag,
        profiles=(profile_a, profile_b),
        params=(("cgn_a", cgn_a), ("cgn_b", cgn_b)),
    )


@dataclass(frozen=True)
class MatrixKnobs(Nat444Knobs):
    """``traversal_matrix``: the CGN policy of the NAT444 variants, and which pairs run.

    The pair knobs select subjects, so a sliced matrix campaign resumes
    into, and stays comparable with, the full one.
    """

    matrix_pairs: str = registry.knob("", "--pairs", selects=True, metavar="A+B,C+D", help="restrict --matrix to an "
                                      "explicit pair list, e.g. al+be1,dl5+al (default: every ordered pair)")
    matrix_cgn: bool = registry.knob(False, "--matrix-cgn", selects=True, help="with --matrix: also run each pair "
                                     "with NAT444 on one side, the other, and both (.cgn-a/.cgn-b/.cgn-ab variants)")


def matrix_subjects(profiles: Sequence[DeviceProfile], knobs: MatrixKnobs) -> List[Subject]:
    """Enumerate the campaign's pair subjects (the ``subjects`` hook).

    With no ``matrix_pairs`` knob, every ordered pair ``(a, b)`` with
    ``a != b`` — row-major in population order, so enumeration (and with it
    shard order, store meta and resume bookkeeping) is deterministic.  An
    explicit pair list (``"al+be1,dl5+al"``) selects a slice; explicit
    self-pairs (``"al+al"``) are allowed there.  ``matrix_cgn`` multiplies
    each pair by the three NAT444-sided variants.
    """
    by_tag = {profile.tag: profile for profile in profiles}
    spec = knobs.matrix_pairs.strip()
    pairs: List[Tuple[DeviceProfile, DeviceProfile]] = []
    if spec:
        for token in spec.split(","):
            token = token.strip()
            if not token:
                continue
            tag_a, sep, tag_b = token.partition("+")
            tag_a, tag_b = tag_a.strip(), tag_b.strip()
            if not sep or not tag_a or not tag_b:
                raise ValueError(
                    f"bad matrix pair {token!r}: expected '<tag>+<tag>' (e.g. 'al+be1')"
                )
            unknown = [tag for tag in (tag_a, tag_b) if tag not in by_tag]
            if unknown:
                raise ValueError(
                    f"matrix pair {token!r} names unknown device(s) {unknown}; "
                    f"population: {', '.join(by_tag)}"
                )
            pairs.append((by_tag[tag_a], by_tag[tag_b]))
    else:
        pairs = [
            (profile_a, profile_b)
            for profile_a in profiles
            for profile_b in profiles
            if profile_a.tag != profile_b.tag
        ]
    variants: Tuple[Tuple[bool, bool], ...] = ((False, False),)
    if knobs.matrix_cgn:
        variants = ((False, False), (True, False), (False, True), (True, True))
    return [
        pair_subject(profile_a, profile_b, cgn_a, cgn_b)
        for profile_a, profile_b in pairs
        for cgn_a, cgn_b in variants
    ]


# ---------------------------------------------------------------------------
# The two-gateway pair testbed.
# ---------------------------------------------------------------------------


@dataclass
class PairSide:
    """One half of a pair testbed: a WAN VLAN and the NAT chain behind it."""

    letter: str  # "a" | "b"
    index: int  # 1 | 2
    profile: DeviceProfile
    behind_cgn: bool
    wan_network: IPv4Network
    server_ip: IPv4Address
    server_iface_index: int
    gateway: HomeGateway
    client_iface_index: int
    cgn: Optional[CgnNode] = None
    client_dhcp: Optional[DhcpClientService] = None

    @property
    def tag(self) -> str:
        return self.profile.tag


class PairTopology(Wiring):
    """One ordered pair's testbed: two NAT chains facing one routed server.

    Two units of the shared Figure-1 wiring (:mod:`repro.testbed.wiring`):
    each side gets its own WAN VLAN (``10.0.n.0/24``) with a server
    interface and DHCP service; a plain side puts its home gateway straight
    on that VLAN, a CGN side inserts a :class:`~repro.cgn.node.CgnNode`
    (access network ``100.(64+n).0.0/24``) between the VLAN and the home
    gateway.  The server routes between the two VLANs (``ip_forwarding``),
    which is what makes peer-to-peer punching possible at all.  Gateways
    answer crash faults by device tag, CGNs as ``cgn-<letter>-<tag>``.
    """

    __test__ = False  # not a pytest class, despite the name

    def __init__(
        self,
        sim: Simulation,
        subject: Subject,
        cgn_policy: Optional[CgnPolicy] = None,
    ):
        if subject.kind != "pair" or len(subject.profiles) != 2:
            raise ValueError(f"PairTopology needs a pair subject, got {subject!r}")
        super().__init__(sim)
        self.subject = subject
        self.cgn_policy = cgn_policy if cgn_policy is not None else CgnPolicy()
        self.figure1(access_switch=True)
        # Peer-to-peer paths cross the server between the two WAN VLANs.
        self.server.ip_forwarding = True
        self.sides: Dict[str, PairSide] = {}
        for index, (letter, profile) in enumerate(zip("ab", subject.profiles), start=1):
            behind_cgn = bool(subject.param(f"cgn_{letter}", False))
            self._add_side(index, letter, profile, behind_cgn)

    @classmethod
    def build(
        cls,
        subject: Subject,
        seed: int = 0,
        cgn_policy: Optional[CgnPolicy] = None,
        fastpath: bool = True,
    ) -> "PairTopology":
        """Construct the pair testbed and DHCP both chains up."""
        bed = cls(simulation(seed, fastpath), subject, cgn_policy=cgn_policy)
        bed.bring_up()
        return bed

    def _add_side(self, index: int, letter: str, profile: DeviceProfile, behind_cgn: bool) -> None:
        wan_network = slash24(10, 0, index)
        server_ip = first_host(wan_network)
        uplink = (self.wan_switch, 1000 + index)
        server_iface = self.server_face(index, wan_network, server_ip, uplink, letter)
        gateway = self.gateway(profile, self.macs, slash24(192, 168, index), name=f"gw-{letter}-{profile.tag}")
        cgn: Optional[CgnNode] = None
        if behind_cgn:
            # WAN ─ CGN ─ access network ─ home gateway ─ LAN.
            cgn = self.cgn(
                letter, self.cgn_policy, self.macs, slash24(100, 64 + index, 0),
                f"cgn-{letter}-{profile.tag}", access=(self.access_switch, 2000 + index),
                wan=uplink, roles=("cgn-wan", "cgn-acc"),
            )
            uplink = (self.access_switch, 2000 + index)
        client_iface_index = self.home(
            letter, gateway, uplink, (self.lan_switch, 3000 + index), self.client
        )
        self.sides[letter] = PairSide(
            letter=letter,
            index=index,
            profile=profile,
            behind_cgn=behind_cgn,
            wan_network=wan_network,
            server_ip=server_ip,
            server_iface_index=server_iface.index,
            gateway=gateway,
            client_iface_index=client_iface_index,
            cgn=cgn,
        )

    def bring_up(self, timeout: float = 120.0) -> None:
        """Staged DHCP cascade per side: CGN (if any), then gateway, then client."""
        for side in self.sides.values():
            dhcp_cascade(self.client, [side], side.cgn)
        self.settle(
            {f"{side.letter}:{side.tag}": side for side in self.sides.values()}, timeout, "pair testbed"
        )

    # -- accessors -----------------------------------------------------------

    def side(self, letter: str) -> PairSide:
        return self.sides[letter]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PairTopology {self.subject.tag} at t={self.sim.now:.3f}>"


# ---------------------------------------------------------------------------
# The pair probe: classify → punch → relay fallback → keepalive ladder.
# ---------------------------------------------------------------------------


@dataclass
class TraversalCell:
    """Everything the matrix measures for one ordered pair."""

    pair: str
    tag_a: str
    tag_b: str
    cgn_a: bool
    cgn_b: bool
    #: RFC 3489 verdicts of the two chains (``"full cone"`` …).
    nat_a: str = ""
    nat_b: str = ""
    #: Simultaneous hole punch succeeded (both directions flowed).
    punched: bool = False
    #: The TURN-style relay fallback carried a bidirectional exchange.
    relayed: bool = False
    connected: bool = False
    path: Optional[str] = None  # "direct" | "relayed" | None
    #: Largest idle gap [s] the winning path survived (None: first rung died).
    keepalive_interval: Optional[float] = None
    #: True when every rung survived (interval is a lower bound).
    keepalive_censored: bool = False

    @property
    def keepalives_per_hour(self) -> Optional[float]:
        """Keepalive cost of staying connected (None when unknown)."""
        if self.keepalive_interval is None or self.keepalive_interval <= 0:
            return None
        return 3600.0 / self.keepalive_interval


class _PairPeer:
    """One endpoint of the pair: a STUN client plus traversal handlers."""

    def __init__(self, bed: PairTopology, side: PairSide):
        from repro.traversal.stun import StunClient

        self.side = side
        self.stun = StunClient(bed.client, iface_index=side.client_iface_index)
        self.sock = self.stun.socket
        self.got_punch: Optional[Future] = None
        self.keepalive_reply: Optional[Future] = None
        #: Path sender installed once the winning path is known; also used
        #: by the handler to answer ``KA:`` probes over the same path.
        self.send: Optional[callable] = None
        inner = self.sock.on_receive

        def on_receive(payload: bytes, src_ip: IPv4Address, src_port: int) -> None:
            if payload.startswith(b"PUNCH:"):
                bus = bed.sim.bus
                if bus is not None:
                    bus.emit(PUNCH_RX, side=side.letter)
                if self.got_punch is not None:
                    self.got_punch.set_result((src_ip, src_port))
                return
            if payload.startswith(b"KA:"):
                if self.send is not None:
                    self.send(b"KB:" + payload[3:])
                return
            if payload.startswith(b"KB:"):
                if self.keepalive_reply is not None:
                    self.keepalive_reply.set_result(payload[3:])
                return
            if inner is not None:
                inner(payload, src_ip, src_port)

        self.sock.on_receive = on_receive

    def allocate_relay(self, session_id: int, peer_index: int) -> Future:
        """Request a relay port over this peer's own path; resolves to it."""
        from repro.traversal.relay import RELAY_CONTROL_PORT, encode_allocate
        from repro.traversal.relay import decode as relay_decode

        future = Future(timeout=RELAY_TIMEOUT)
        original = self.sock.on_receive

        def on_receive(payload: bytes, src_ip: IPv4Address, src_port: int) -> None:
            decoded = relay_decode(payload)
            if decoded is None:
                if original is not None:
                    original(payload, src_ip, src_port)
                return
            msg_type, _peer, sid, relay_port = decoded
            if msg_type == 2 and sid == session_id:
                self.sock.on_receive = original
                future.set_result(relay_port)

        self.sock.on_receive = on_receive
        self.sock.send_to(
            encode_allocate(session_id, peer_index), self.side.server_ip, RELAY_CONTROL_PORT
        )
        return future

    def close(self) -> None:
        self.stun.close()


class PairProbe:
    """The traversal pipeline for one pair testbed.

    ``run_all(bed)`` returns ``{subject_tag: TraversalCell}`` — the family's
    canonical mapping, one entry, keyed by the pair subject's tag.
    """

    def run_all(self, bed: PairTopology) -> Dict[str, TraversalCell]:
        from repro.traversal.relay import RelayServer
        from repro.traversal.stun import STUN_ALT_PORT, STUN_PORT, StunServer

        subject = bed.subject
        side_a, side_b = bed.side("a"), bed.side("b")
        cell = TraversalCell(
            pair=subject.tag,
            tag_a=side_a.tag,
            tag_b=side_b.tag,
            cgn_a=side_a.behind_cgn,
            cgn_b=side_b.behind_cgn,
        )
        server = StunServer(bed.server, STUN_PORT, STUN_ALT_PORT)
        relay = RelayServer(bed.server)
        peer_a = _PairPeer(bed, side_a)
        peer_b = _PairPeer(bed, side_b)

        task = SimTask(
            bed.sim,
            self._procedure(bed, relay, peer_a, peer_b, cell),
            name=f"traversal:{subject.tag}",
        )
        run_tasks(bed.sim, [task])

        peer_a.close()
        peer_b.close()
        server.close()
        relay.close()
        return {subject.tag: cell}

    def _procedure(
        self, bed: PairTopology, relay, peer_a: _PairPeer, peer_b: _PairPeer, cell: TraversalCell
    ) -> Generator:
        from repro.traversal.stun import STUN_PORT, classify

        side_a, side_b = peer_a.side, peer_b.side
        # 1. RFC 3489 classification, each side against its own VLAN server.
        cls_a = yield from classify(peer_a.stun, side_a.server_ip)
        cls_b = yield from classify(peer_b.stun, side_b.server_ip)
        cell.nat_a = cls_a.rfc3489_type
        cell.nat_b = cls_b.rfc3489_type
        # 2. Rendezvous: both peers register their reflexive endpoints.
        reflexive_a = yield peer_a.stun.request(side_a.server_ip, STUN_PORT)
        reflexive_b = yield peer_b.stun.request(side_b.server_ip, STUN_PORT)
        if reflexive_a is None or reflexive_b is None:
            return
        # 3. Simultaneous punch toward the other side's reflexive endpoint.
        peer_a.got_punch = Future(timeout=PUNCH_TIMEOUT)
        peer_b.got_punch = Future(timeout=PUNCH_TIMEOUT)
        for attempt in range(PUNCH_ATTEMPTS):
            marker = f"{attempt}".encode()
            bus = bed.sim.bus
            if bus is not None:
                bus.emit(PUNCH_TX, side="a")
                bus.emit(PUNCH_TX, side="b")
            peer_a.sock.send_to(b"PUNCH:" + marker, reflexive_b.ip, reflexive_b.port)
            peer_b.sock.send_to(b"PUNCH:" + marker, reflexive_a.ip, reflexive_a.port)
            yield PUNCH_INTERVAL
        a_heard = yield peer_a.got_punch
        b_heard = yield peer_b.got_punch
        cell.punched = a_heard is not None and b_heard is not None
        # 4. Pick the path (direct beats relayed, ICE-style); install the
        #    per-peer senders the keepalive exchange rides on.
        if cell.punched:
            cell.connected = True
            cell.path = "direct"
            peer_a.send = lambda data: peer_a.sock.send_to(data, reflexive_b.ip, reflexive_b.port)
            peer_b.send = lambda data: peer_b.sock.send_to(data, reflexive_a.ip, reflexive_a.port)
        else:
            bus = bed.sim.bus
            if bus is not None:
                bus.emit(RELAY_FALLBACK, pair=cell.pair)
            session_id = relay.new_session_id()
            relay_port_a = yield peer_a.allocate_relay(session_id, 0)
            relay_port_b = yield peer_b.allocate_relay(session_id, 1)
            if relay_port_a is None or relay_port_b is None:
                return
            peer_a.send = lambda data: peer_a.sock.send_to(data, side_a.server_ip, relay_port_a)
            peer_b.send = lambda data: peer_b.sock.send_to(data, side_b.server_ip, relay_port_b)
            # Warm both relay mappings, then verify a bidirectional exchange.
            peer_b.send(b"KA:warm")  # b -> relay -> a; a answers KB:warm
            yield 0.1
            peer_a.keepalive_reply = Future(timeout=KEEPALIVE_GRACE)
            peer_a.send(b"KA:check")
            reply = yield peer_a.keepalive_reply
            cell.relayed = reply == b"check"
            if not cell.relayed:
                return
            cell.connected = True
            cell.path = "relayed"
        # 5. Keepalive ladder: stretch the idle gap until the exchange dies.
        for index, rung in enumerate(KEEPALIVE_RUNGS):
            yield rung
            marker = f"{index}".encode()
            peer_a.keepalive_reply = Future(timeout=2 * KEEPALIVE_GRACE)
            peer_a.send(b"KA:" + marker)
            reply = yield peer_a.keepalive_reply
            if reply != marker:
                return
            cell.keepalive_interval = rung
        cell.keepalive_censored = True


# ---------------------------------------------------------------------------
# Registry: testbed factory, descriptor, report section.
# ---------------------------------------------------------------------------


def pair_factory(knobs: MatrixKnobs):
    """``testbed_factory`` hook (pair overload): knobs -> ``build(subject, seed, fastpath)``."""
    policy = cgn_policy_for(knobs)

    def build(subject: Subject, seed: int, fastpath: bool = True) -> PairTopology:
        return PairTopology.build(subject, seed=seed, cgn_policy=policy, fastpath=fastpath)

    return build


_VARIANT_TITLES = {
    (False, False): "plain",
    (True, False): "CGN on A",
    (False, True): "CGN on B",
    (True, True): "CGN on both",
}


def _render_heatmap(cells: Mapping[Tuple[str, str], TraversalCell]) -> str:
    """One variant's matrix as a symbol grid (D direct, R relayed, F failed)."""
    rows = sorted({a for a, _b in cells})
    cols = sorted({b for _a, b in cells})
    lines = ["| a \\ b | " + " | ".join(cols) + " |", "|---" * (len(cols) + 1) + "|"]
    for tag_a in rows:
        symbols = []
        for tag_b in cols:
            cell = cells.get((tag_a, tag_b))
            if cell is None:
                symbols.append("·")
            elif cell.path == "direct":
                symbols.append("D")
            elif cell.path == "relayed":
                symbols.append("R")
            else:
                symbols.append("F")
        lines.append(f"| {tag_a} | " + " | ".join(symbols) + " |")
    return "\n".join(lines)


def _render_matrix(results) -> Optional[str]:
    mapping: Mapping[str, TraversalCell] = results.family("traversal_matrix")
    if not mapping:
        return None
    variants: Dict[Tuple[bool, bool], Dict[Tuple[str, str], TraversalCell]] = {}
    for cell in mapping.values():
        variants.setdefault((cell.cgn_a, cell.cgn_b), {})[(cell.tag_a, cell.tag_b)] = cell
    parts = [
        "## Traversal matrix: pairwise STUN/punch/relay",
        "Per ordered pair: D = direct hole punch, R = relay fallback, "
        "F = no connectivity.  Keepalive cost is the probes/hour needed to "
        "hold the winning path's bindings open.",
    ]
    summary = [
        "| variant | pairs | direct | relayed | failed | median keepalives/h |",
        "|---|---|---|---|---|---|",
    ]
    for key in sorted(variants, key=lambda k: (k[0], k[1])):
        cells = variants[key]
        direct = sum(1 for c in cells.values() if c.path == "direct")
        relayed = sum(1 for c in cells.values() if c.path == "relayed")
        failed = sum(1 for c in cells.values() if not c.connected)
        costs = [
            c.keepalives_per_hour for c in cells.values() if c.keepalives_per_hour is not None
        ]
        cost_text = f"{median(costs):.1f}" if costs else "—"
        summary.append(
            f"| {_VARIANT_TITLES[key]} | {len(cells)} | {direct} | {relayed} "
            f"| {failed} | {cost_text} |"
        )
    parts.append("\n".join(summary))
    for key in sorted(variants, key=lambda k: (k[0], k[1])):
        parts.append(f"### {_VARIANT_TITLES[key]}")
        parts.append(_render_heatmap(variants[key]))
    return "\n\n".join(parts)


registry.register_family(registry.ExperimentFamily(
    name="traversal_matrix",
    order=400,
    cell_type=TraversalCell,
    knobs=MatrixKnobs,
    probe_factory=lambda knobs: PairProbe().run_all,
    testbed_factory=pair_factory,
    default_selected=False,
    subject_kind="pair",
    subjects=matrix_subjects,
))

registry.register_section(registry.ReportSection(
    key="traversal_matrix", order=97, families=("traversal_matrix",), render=_render_matrix,
))
