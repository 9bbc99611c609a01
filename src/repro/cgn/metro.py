"""Metro-scale NAT444 mega-topology and the ``metro_load`` family.

One :class:`MetroTopology` is a city's access network in miniature: N
*segments* (one per device profile), each a full NAT444 population —
``subscribers`` home gateways of that model behind one carrier-grade NAT —
joined to a shared core host by one **core link** per segment:

    client ─ LAN ─ home gateway ─ access ─ CGN ═ core link ═ metro core

The core link is the only wire between a segment and the rest of the
world, which makes it the natural *partition boundary*: cut every core
link and each segment becomes a causally closed island that interacts with
the core island only through frames whose delivery instants are known one
core-link propagation delay in advance.  :mod:`repro.core.partition`
exploits exactly that — the same builders below assemble either one big
simulation (:class:`MetroTopology`) or per-process islands
(:class:`MetroCoreIsland` / :class:`MetroSegmentIsland`) whose boundary
links are :class:`~repro.netsim.link.BoundaryHalf` stubs.

The byte-identity argument (docs/SCALING.md spells it out) rests on four
construction rules enforced here:

* every segment owns its *own* client host, switches and MAC allocator —
  no cross-segment shared allocator state.  Segments are cabled by the
  shared Figure-1 wiring (:mod:`repro.testbed.wiring`), the builders
  :class:`~repro.cgn.topology.Nat444Topology` uses too; but Nat444 shares
  one client host, one switch set and one allocator across its segments,
  so metro keeps those per segment;
* core-side state is per segment (one server interface, DHCP service and
  address plan each) and the only shared core service — the UDP echo
  responder — is stateless and replies at the instant of arrival;
* the workload runs on a *fixed virtual schedule* anchored at
  ``LOAD_START`` with per-subscriber stagger, so no measurement instant
  depends on bring-up duration or on replies; and
* every RNG-valued artifact (DHCP xids, gateway NAT ports) influences
  frame *content* only, never sizes, timing or the counters a cell
  records.

Consequently a segment's :class:`MetroLoadResult` cell is a pure function
of ``(profile, subscribers, plan)`` — independent of the seed, of which
other segments exist, and of how the run was partitioned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from ipaddress import IPv4Address, IPv4Network
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cgn.families import Nat444Knobs
from repro.core import registry
from repro.devices.cgn_profiles import CgnPolicy
from repro.devices.profile import DeviceProfile
from repro.netsim.addresses import mac_allocator
from repro.netsim.link import BoundaryHalf
from repro.netsim.sim import Simulation
from repro.netsim.switch import VlanSwitch
from repro.protocols.stack import Host
from repro.testbed.wiring import CgnSegment, Wiring, dhcp_cascade, simulation

__all__ = [
    "MetroFlap",
    "MetroLoadPlan",
    "MetroLoadResult",
    "MetroTopology",
    "MetroCoreIsland",
    "MetroSegmentIsland",
    "MetroLoadProbe",
    "MetroPartitionHooks",
    "metro_policy_for",
    "MetroKnobs",
]

#: UDP port of the core's stateless echo responder.
METRO_PORT = 34800
#: Absolute virtual instant the load schedule starts.  Bring-up (a staged
#: three-tier DHCP cascade scheduled at t=0) must be finished by then; the
#: snapshot records any straggler under ``unfinished``.
LOAD_START = 30.0
#: Offset between consecutive subscribers' schedules within a segment.
SUB_STAGGER = 0.0132
#: Pacing between one subscriber's consecutive requests.  Far above the
#: chain RTT, so requests never pipeline.
REQUEST_GAP = 0.05
#: Quiet tail between the last scheduled send and the snapshot; replies
#: still in flight at snapshot count as timeouts.
SNAP_TAIL = 5.0
#: Core links: metro aggregation is faster and *longer* than the access
#: links — the 2.5 ms propagation delay is also the partition lookahead.
CORE_RATE_BPS = 1e9
CORE_DELAY = 2.5e-3
#: OUI of the core island's MAC allocator; segment ``n`` allocates from
#: ``0x020000 + n``, so address spaces never collide in one simulation.
CORE_OUI = 0x02_F0_00
#: Address plans bound the population exactly like Nat444's.
MAX_METRO_SEGMENTS = 63
MAX_METRO_SUBSCRIBERS = 200


@dataclass(frozen=True)
class MetroFlap:
    """One scheduled outage of a segment's core link.

    Parsed from the ``metro_flap`` knob (``"tag=al,at=35,for=0.5"``).  The
    sever/mend pair is scheduled at *build* time in every engine — on the
    full build's :class:`~repro.netsim.link.Link` and on both
    :class:`~repro.netsim.link.BoundaryHalf` stubs of a partitioned run —
    so the outage hits the same virtual instants everywhere.
    """

    tag: str
    at: float
    duration: float

    @classmethod
    def parse(cls, spec: str) -> Optional["MetroFlap"]:
        """Parse a knob string; empty/blank means no flap.

        Parameters
        ----------
        spec : str
            ``"tag=<device>,at=<seconds>,for=<seconds>"`` or ``""``.

        Returns
        -------
        MetroFlap or None
        """
        spec = (spec or "").strip()
        if not spec:
            return None
        fields: Dict[str, str] = {}
        for part in spec.split(","):
            key, _, value = part.partition("=")
            if not _:
                raise ValueError(f"malformed metro flap field {part!r} in {spec!r}")
            fields[key.strip()] = value.strip()
        unknown = set(fields) - {"tag", "at", "for"}
        if unknown or set(fields) != {"tag", "at", "for"}:
            raise ValueError(
                f"metro flap spec needs tag=,at=,for= (got {spec!r})"
            )
        flap = cls(tag=fields["tag"], at=float(fields["at"]), duration=float(fields["for"]))
        if flap.at < 0 or flap.duration <= 0:
            raise ValueError(f"metro flap needs at>=0 and for>0 (got {spec!r})")
        return flap

    def describe(self) -> str:
        """Canonical knob string (the inverse of :meth:`parse`)."""
        return f"tag={self.tag},at={self.at:g},for={self.duration:g}"


@dataclass(frozen=True)
class MetroLoadPlan:
    """The fixed virtual-time schedule of the ``metro_load`` workload.

    Every send instant is a pure function of ``(subscriber, request)`` —
    anchored at :data:`LOAD_START`, staggered per subscriber, paced by
    :data:`REQUEST_GAP`, with an optional ``idle`` gap spliced in after the
    midpoint request (long idles drive NAT bindings through expiry, which
    is how the lazy-expiry-across-partition-epochs test gets its timers).
    Because the schedule never reads replies or bring-up state, the
    snapshot instant is known at build time in every engine.

    Parameters
    ----------
    subscribers : int
        Homes per segment (each runs the schedule independently).
    requests : int
        Echo requests per subscriber.
    idle : float
        Extra quiet seconds inserted before request ``requests // 2``.
    """

    subscribers: int
    requests: int = 8
    idle: float = 0.0

    def send_time(self, subscriber: int, request: int) -> float:
        """Absolute send instant for ``(subscriber, request)`` (0-based).

        Returns
        -------
        float
            ``LOAD_START + subscriber*SUB_STAGGER + request*REQUEST_GAP``
            plus the idle gap once ``request`` passes the midpoint.
        """
        when = LOAD_START + subscriber * SUB_STAGGER + request * REQUEST_GAP
        if self.idle and request >= self.requests // 2:
            when += self.idle
        return when

    @property
    def snap(self) -> float:
        """Snapshot instant: cells are read exactly here in every engine."""
        return self.send_time(self.subscribers - 1, self.requests - 1) + SNAP_TAIL

    @property
    def horizon(self) -> float:
        """Virtual stop time; everything a cell records happens by ``snap``."""
        return self.snap + 1.0


@dataclass
class MetroLoadResult:
    """One segment's cell: delivered load, RTTs and per-tier NAT churn."""

    tag: str
    subscribers: int
    requests: int
    #: Echo replies each subscriber had received at the snapshot.
    replies: List[int] = field(default_factory=list)
    #: Requests unanswered at the snapshot (flap casualties land here).
    timeouts: int = 0
    rtt_sum: float = 0.0
    rtt_min: Optional[float] = None
    rtt_max: Optional[float] = None
    #: Home-tier NAT bindings, summed over the segment's gateways.
    gw_bindings_created: int = 0
    gw_bindings_expired: int = 0
    #: Carrier-tier NAT bindings at the segment's CGN.
    cgn_bindings_created: int = 0
    cgn_bindings_expired: int = 0
    #: Subscribers whose client DHCP had not configured by the snapshot.
    unfinished: int = 0

    @property
    def total_replies(self) -> int:
        return sum(self.replies)

    @property
    def mean_rtt(self) -> Optional[float]:
        total = self.total_replies
        return self.rtt_sum / total if total else None


class _SegmentLoad:
    """Workload runtime of one segment: sockets, schedule, snapshot.

    Installed at construction time (virtual t=0) by both the full build and
    the segment island, in the same order, so same-instant events keep the
    same scheduler sequence numbers in every engine.
    """

    def __init__(self, sim: Simulation, segment: CgnSegment, plan: MetroLoadPlan):
        self.sim = sim
        self.segment = segment
        self.plan = plan
        self.result: Optional[MetroLoadResult] = None
        n = len(segment.homes)
        self._replies = [0] * n
        self._rtt_sum = 0.0
        self._rtt_min: Optional[float] = None
        self._rtt_max: Optional[float] = None
        self._send_times: Dict[Tuple[int, int], float] = {}
        self._seen: set = set()
        self._sockets = []
        for j, home in enumerate(segment.homes):
            iface = segment.client.interfaces[home.client_iface_index]
            socket = segment.client.udp.bind(0, iface.index)

            def on_reply(payload: bytes, _ip, _port, j: int = j) -> None:
                self._on_reply(j, payload)

            socket.on_receive = on_reply
            self._sockets.append(socket)
            for i in range(plan.requests):
                sim.schedule_at(plan.send_time(j, i), self._send, j, i)
        sim.schedule_at(plan.snap, self._snapshot)

    def _send(self, j: int, i: int) -> None:
        self._send_times[(j, i)] = self.sim.now
        payload = ((j << 20) | i).to_bytes(8, "big")
        self._sockets[j].send_to(payload, self.segment.server_ip, METRO_PORT)

    def _on_reply(self, j: int, payload: bytes) -> None:
        if len(payload) < 8:
            return
        key = int.from_bytes(payload[:8], "big")
        i = key & 0xFFFFF
        if (key >> 20) != j or (j, i) in self._seen or (j, i) not in self._send_times:
            return
        self._seen.add((j, i))
        self._replies[j] += 1
        rtt = self.sim.now - self._send_times[(j, i)]
        self._rtt_sum += rtt
        if self._rtt_min is None or rtt < self._rtt_min:
            self._rtt_min = rtt
        if self._rtt_max is None or rtt > self._rtt_max:
            self._rtt_max = rtt

    def _snapshot(self) -> None:
        segment = self.segment
        self.result = MetroLoadResult(
            tag=segment.tag,
            subscribers=len(segment.homes),
            requests=self.plan.requests,
            replies=list(self._replies),
            timeouts=len(segment.homes) * self.plan.requests - sum(self._replies),
            rtt_sum=self._rtt_sum,
            rtt_min=self._rtt_min,
            rtt_max=self._rtt_max,
            gw_bindings_created=sum(h.gateway.nat.bindings_created for h in segment.homes),
            gw_bindings_expired=sum(h.gateway.nat.bindings_expired for h in segment.homes),
            cgn_bindings_created=segment.cgn.nat.bindings_created,
            cgn_bindings_expired=segment.cgn.nat.bindings_expired,
            unfinished=sum(
                1
                for h in segment.homes
                if h.client_dhcp is None or not h.client_dhcp.configured
            ),
        )


# ---------------------------------------------------------------------------
# Shared construction: identical pieces for the full build and the islands.
# ---------------------------------------------------------------------------


def _segment_plan(index: int) -> Tuple[IPv4Network, IPv4Network, IPv4Address]:
    wan_network = IPv4Network(f"10.100.{index}.0/24")
    access_network = IPv4Network(f"100.{64 + index}.0.0/24")
    return wan_network, access_network, IPv4Address(f"10.100.{index}.1")


def _install_echo(server: Host):
    """The core's only shared service: a stateless immediate UDP echo."""
    socket = server.udp.bind(METRO_PORT)

    def echo(payload: bytes, src_ip, src_port) -> None:
        socket.send_to(payload, src_ip, src_port)

    socket.on_receive = echo
    return socket


def _check_population(profiles: Sequence[DeviceProfile], subscribers: int) -> None:
    if not profiles:
        raise ValueError("a metro topology needs at least one segment profile")
    if len(profiles) > MAX_METRO_SEGMENTS:
        raise ValueError(f"at most {MAX_METRO_SEGMENTS} metro segments per run")
    if not 1 <= subscribers <= MAX_METRO_SUBSCRIBERS:
        raise ValueError(
            f"metro subscribers must be in 1..{MAX_METRO_SUBSCRIBERS}, got {subscribers}"
        )
    tags = [profile.tag for profile in profiles]
    if len(set(tags)) != len(tags):
        raise ValueError(f"duplicate device tags in metro population: {tags}")


class _MetroWiring(Wiring):
    """What the full metro build and its partition islands share.

    Each segment is a NAT444 unit of the shared wiring with its own MAC
    allocator, switches and client host; the server side of its core link
    is one server face on the core host.
    """

    def __init__(self, sim: Simulation, flap: Optional[MetroFlap]):
        super().__init__(sim)
        self.flap = flap
        #: Boundary halves by the channel they transmit on (islands only),
        #: and by the channel whose frames the hub injects into them.
        self.halves: Dict[str, BoundaryHalf] = {}
        self.inject_map: Dict[str, BoundaryHalf] = {}
        self.segments: Dict[str, CgnSegment] = {}

    def _core(self) -> None:
        self.server = Host(self.sim, "metro-core", mac_allocator(CORE_OUI))
        self.echo_socket = _install_echo(self.server)

    def _core_face(self, index: int):
        wan_network, _access, server_ip = _segment_plan(index)
        return self.server_face(index, wan_network, server_ip)

    def _segment(
        self, index: int, profile: DeviceProfile, subscribers: int, policy: CgnPolicy
    ) -> CgnSegment:
        """Everything on the segment side of the core link, self-contained."""
        macs = mac_allocator(0x02_00_00 + index)
        wan_network, access_network, server_ip = _segment_plan(index)
        access = VlanSwitch(self.sim, f"acc-{index}", macs)
        lan = VlanSwitch(self.sim, f"lan-{index}", macs)
        cgn = self.cgn(
            f"metro-{profile.tag}.{index}", policy, macs, access_network, f"cgn-{profile.tag}",
            access=(access, 2000 + index),
        )
        client = Host(self.sim, f"client-{index}", macs)
        segment = CgnSegment(index, profile, cgn, wan_network, access_network, server_ip, client=client)
        self.subscriber_homes(
            segment, subscribers, macs, access, lan, client, first_lan=1, prefix=f"{profile.tag}.{index}"
        )
        return segment

    def _half(self, channel: str, inject: str, iface) -> BoundaryHalf:
        half = BoundaryHalf(self.sim, channel, CORE_RATE_BPS, CORE_DELAY).attach(iface)
        self.halves[channel] = half
        self.inject_map[inject] = half
        return half

    def _flap(self, tag: str, core) -> None:
        """Schedule the flap on this segment's core link (or its half)."""
        if self.flap is not None and self.flap.tag == tag:
            self.sim.schedule_at(self.flap.at, core.sever)
            self.sim.schedule_at(self.flap.at + self.flap.duration, core.mend)

    def _start(self, segment: CgnSegment, core, plan: MetroLoadPlan) -> None:
        """Flap, the DHCP cascade at t=0 (never stepped here), then the load."""
        self._flap(segment.tag, core)
        self.sim.schedule(0.0, dhcp_cascade, segment.client, segment.homes, segment.cgn)
        segment.load = _SegmentLoad(self.sim, segment, plan)
        self.segments[segment.tag] = segment

    def collect(self, tags: Optional[Sequence[str]] = None) -> Dict[str, MetroLoadResult]:
        """Per-segment cells; raises when a snapshot is missing or bring-up failed."""
        results: Dict[str, MetroLoadResult] = {}
        for tag in list(tags if tags is not None else self.segments):
            segment = self.segments[tag]
            result = segment.load.result if segment.load is not None else None
            if result is None:
                raise RuntimeError(
                    f"metro segment {tag}: snapshot never ran (simulation stopped "
                    "before the plan's snap instant)"
                )
            if result.unfinished:
                raise RuntimeError(
                    f"metro segment {tag}: {result.unfinished} subscriber(s) failed "
                    f"DHCP bring-up before LOAD_START={LOAD_START:g}s"
                )
            results[tag] = result
        return results


# ---------------------------------------------------------------------------
# The full single-simulation build (reference engine, --partitions 1).
# ---------------------------------------------------------------------------


class MetroTopology(_MetroWiring):
    """The assembled metro population in one simulation.

    Construction only *schedules* — the DHCP cascade at t=0, the load on
    its fixed schedule, the snapshot at ``plan.snap`` — and never steps the
    clock, so the event heap is laid out exactly as the partitioned islands
    lay theirs out.  Run it with ``sim.run(until=bed.plan.horizon)`` (what
    :class:`MetroLoadProbe` does), then :meth:`collect`.
    """

    __test__ = False  # not a pytest class, despite the name

    def __init__(
        self,
        sim: Simulation,
        profiles: Sequence[DeviceProfile],
        subscribers: int = 8,
        cgn_policy: Optional[CgnPolicy] = None,
        plan: Optional[MetroLoadPlan] = None,
        flap: Optional[MetroFlap] = None,
    ):
        _check_population(profiles, subscribers)
        super().__init__(sim, flap)
        self.subscribers = subscribers
        self.cgn_policy = cgn_policy if cgn_policy is not None else CgnPolicy()
        self.plan = plan if plan is not None else MetroLoadPlan(subscribers=subscribers)
        self._core()
        for index, profile in enumerate(profiles, start=1):
            server_iface = self._core_face(index)
            segment = self._segment(index, profile, subscribers, self.cgn_policy)
            core_link = self.link(
                f"core:{profile.tag}", server_iface, segment.cgn.wan_iface, CORE_RATE_BPS, CORE_DELAY
            )
            self._start(segment, core_link, self.plan)

    @classmethod
    def build(
        cls,
        profiles: Sequence[DeviceProfile],
        seed: int = 0,
        subscribers: int = 8,
        cgn_policy: Optional[CgnPolicy] = None,
        plan: Optional[MetroLoadPlan] = None,
        flap: Optional[MetroFlap] = None,
        fastpath: bool = True,
    ) -> "MetroTopology":
        """Construct (but do not run) the metro over a fresh simulation."""
        return cls(
            simulation(seed, fastpath),
            profiles,
            subscribers=subscribers,
            cgn_policy=cgn_policy,
            plan=plan,
            flap=flap,
        )

    def tags(self) -> List[str]:
        return list(self.segments)

    # -- chaos (unsupported on the mega-topology, loudly) -------------------

    def apply_impairment(self, impairment) -> None:
        raise RuntimeError(
            "metro_load does not support --impair: per-link impairment is not "
            "defined across partition boundaries (use the cgn_* families for "
            "impaired NAT444 runs)"
        )

    def schedule_faults(self, faults) -> None:
        raise RuntimeError(
            "metro_load does not support --fault: gateway crash faults force "
            "the staged engine and are not defined across partition boundaries"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MetroTopology {len(self.segments)} segments x "
            f"{self.subscribers} homes at t={self.sim.now:.3f}>"
        )


# ---------------------------------------------------------------------------
# Partition islands: the same pieces, cut at the core links.
# ---------------------------------------------------------------------------


class MetroCoreIsland(_MetroWiring):
    """The hub-side island: the core host plus one boundary half per segment.

    Channels are named from the core's perspective: ``down:<n>`` carries
    frames core→segment ``n`` and is this island's transmitter;
    ``up:<n>`` frames are injected here by the hub.
    """

    def __init__(
        self,
        sim: Simulation,
        numbered: Sequence[Tuple[int, DeviceProfile]],
        flap: Optional[MetroFlap] = None,
    ):
        super().__init__(sim, flap)
        self._core()
        for index, profile in numbered:
            half = self._half(f"down:{index}", f"up:{index}", self._core_face(index))
            self._flap(profile.tag, half)


class MetroSegmentIsland(_MetroWiring):
    """One worker's island: a contiguous group of complete segments."""

    def __init__(
        self,
        sim: Simulation,
        numbered: Sequence[Tuple[int, DeviceProfile]],
        subscribers: int,
        policy: CgnPolicy,
        plan: MetroLoadPlan,
        flap: Optional[MetroFlap] = None,
    ):
        super().__init__(sim, flap)
        self.plan = plan
        for index, profile in numbered:
            segment = self._segment(index, profile, subscribers, policy)
            half = self._half(f"up:{index}", f"down:{index}", segment.cgn.wan_iface)
            self._start(segment, half, plan)


# ---------------------------------------------------------------------------
# Registry plumbing: knobs -> policy/plan/flap, probe, partition hooks.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetroKnobs(Nat444Knobs):
    """``metro_load``: the NAT444 population, its echo load and an optional core-link flap."""

    metro_requests: int = registry.knob(8, "--metro-requests", help="echo requests per metro subscriber (default: 8)")
    metro_idle: float = registry.knob(0.0, "--metro-idle", help="idle seconds spliced into the middle of each metro "
                                      "subscriber's schedule (drives NAT bindings through expiry; default: 0)")
    metro_flap: str = registry.knob("", "--metro-flap", metavar="SPEC",
                                    help="flap one segment's core link, e.g. tag=al,at=30.1,for=0.2")


def metro_policy_for(knobs: Nat444Knobs) -> CgnPolicy:
    """Carrier policy for metro runs: pool sized so load never refuses.

    ``metro_load`` measures delivered load and binding churn, not
    exhaustion — the pool gets four blocks' worth of ports per subscriber
    so refusals cannot leak scheduling noise into the cells.
    """
    return CgnPolicy(block_size=knobs.cgn_block_size, pool_ports=4 * knobs.cgn_subscribers * knobs.cgn_block_size)


class MetroLoadProbe:
    """Run the fixed-schedule load to its horizon and read the snapshots."""

    def run_all(
        self, bed: MetroTopology, tags: Optional[Sequence[str]] = None
    ) -> Dict[str, MetroLoadResult]:
        bed.sim.run(until=bed.plan.horizon)
        return bed.collect(tags)


class MetroPartitionHooks:
    """What :func:`~repro.core.partition.run_partitioned` needs from metro.

    One instance is built per run from the campaign knobs (and rebuilt
    identically inside each worker — everything here is a pure function of
    the :class:`MetroKnobs`, which travel over the pipe as plain data).
    """

    def __init__(self, knobs: MetroKnobs):
        self.subscribers = knobs.cgn_subscribers
        self.policy = metro_policy_for(knobs)
        self.plan = MetroLoadPlan(knobs.cgn_subscribers, knobs.metro_requests, knobs.metro_idle)
        self.flap = MetroFlap.parse(knobs.metro_flap)
        #: Conservative sync slack: the boundary links' propagation delay.
        self.lookahead = CORE_DELAY
        #: The hub stops granting windows once the global event floor
        #: passes this instant (every cell is complete by ``plan.snap``).
        self.horizon = self.plan.horizon

    def build_full(self, profiles: Sequence[DeviceProfile], seed: int, fastpath: bool = True):
        """The ``--partitions 1`` reference: one simulation, real links."""
        return MetroTopology.build(
            profiles,
            seed=seed,
            subscribers=self.subscribers,
            cgn_policy=self.policy,
            plan=self.plan,
            flap=self.flap,
            fastpath=fastpath,
        )

    def build_core(
        self, numbered: Sequence[Tuple[int, DeviceProfile]], seed: int, fastpath: bool = True
    ) -> MetroCoreIsland:
        """The hub's inline island over *all* segments' core-side state."""
        from repro.core.parallel import shard_seed

        return MetroCoreIsland(simulation(shard_seed(seed, "metro-core"), fastpath), numbered, flap=self.flap)

    def build_segments(
        self,
        numbered: Sequence[Tuple[int, DeviceProfile]],
        seed: int,
        worker: int,
        fastpath: bool = True,
    ) -> MetroSegmentIsland:
        """One worker's island over its contiguous segment group."""
        from repro.core.parallel import shard_seed

        return MetroSegmentIsland(
            simulation(shard_seed(seed, f"metro-island-{worker}"), fastpath),
            numbered, self.subscribers, self.policy, self.plan, flap=self.flap,
        )


# ---------------------------------------------------------------------------
# Registry descriptor and report section.
# ---------------------------------------------------------------------------


def _render_metro(results) -> Optional[str]:
    load = results.family("metro_load")
    if not load:
        return None
    any_result = next(iter(load.values()))
    parts = [
        "## Metro: partitioned ISP-scale NAT444",
        f"Echo load over {any_result.subscribers} subscribers per segment, "
        f"{any_result.requests} requests each (fixed virtual schedule; "
        f"cells are engine- and partition-independent):",
    ]
    lines = [
        "| segment | replies | timeouts | mean RTT [ms] | gw bindings (new/expired) | cgn bindings (new/expired) |",
        "|---|---|---|---|---|---|",
    ]
    for tag in sorted(load):
        cell = load[tag]
        mean = cell.mean_rtt
        mean_text = f"{mean * 1e3:.2f}" if mean is not None else "-"
        lines.append(
            f"| {tag} | {cell.total_replies} | {cell.timeouts} | {mean_text} "
            f"| {cell.gw_bindings_created}/{cell.gw_bindings_expired} "
            f"| {cell.cgn_bindings_created}/{cell.cgn_bindings_expired} |"
        )
    parts.append("\n".join(lines))
    return "\n\n".join(parts)


registry.register_family(registry.ExperimentFamily(
    name="metro_load",
    order=220,
    cell_type=MetroLoadResult,
    knobs=MetroKnobs,
    probe_factory=lambda knobs: MetroLoadProbe().run_all,
    testbed_factory=lambda knobs: MetroPartitionHooks(knobs).build_full,
    default_selected=False,
    partition_factory=MetroPartitionHooks,
))

registry.register_section(registry.ReportSection(
    key="metro", order=97, families=("metro_load",), render=_render_metro,
))
