"""Metro-scale NAT444 topology and the ``metro_load`` family.

One :class:`MetroTopology` is a city's access network in miniature: N
*segments* (one per device profile), each a full NAT444 population —
``subscribers`` home gateways of that model behind one carrier-grade NAT —
joined to a shared core host by one **core link** per segment:

    client ─ LAN ─ home gateway ─ access ─ CGN ═ core link ═ metro core

``metro_load`` is a device family like any other: each device shard builds
a one-segment metro at its own shard seed, so a campaign's cells come from
the per-device shard plan under any ``jobs``.  A segment's cell needs no
other segment (docs/SCALING.md spells the argument out), because of four
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
of ``(profile, subscribers, plan)`` — independent of the seed, of the
segment's position and of which other segments share the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cgn.families import Nat444Knobs
from repro.core import registry
from repro.devices.cgn_profiles import CgnPolicy
from repro.devices.profile import DeviceProfile
from repro.netsim.addresses import mac_allocator
from repro.netsim.sim import Simulation
from repro.netsim.switch import VlanSwitch
from repro.protocols.stack import Host
from repro.testbed.wiring import CgnSegment, Wiring, dhcp_cascade, first_host, simulation, slash24

__all__ = [
    "MetroFlap",
    "MetroLoadPlan",
    "MetroLoadResult",
    "MetroTopology",
    "MetroLoadProbe",
    "metro_factory",
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
#: links.
CORE_RATE_BPS = 1e9
CORE_DELAY = 2.5e-3
#: OUI of the core host's MAC allocator; segment ``n`` allocates from
#: ``0x020000 + n``, so address spaces never collide in one simulation.
CORE_OUI = 0x02_F0_00
#: Address plans bound the population exactly like Nat444's; a segment's
#: access pool (``ACCESS_POOL_HOMES``) holds more than this many homes.
MAX_METRO_SEGMENTS = 63
MAX_METRO_SUBSCRIBERS = 200


@dataclass(frozen=True)
class MetroFlap:
    """One scheduled outage of a segment's core link.

    Parsed from the ``metro_flap`` knob (``"tag=al,at=35,for=0.5"``).  The
    sever/mend pair is scheduled on the segment's core
    :class:`~repro.netsim.link.Link` at *build* time, so the outage hits
    the same absolute virtual instants under either engine.
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
    midpoint request (long idles drive NAT bindings through lazy expiry).
    Because the schedule never reads replies or bring-up state, the
    snapshot instant is known at build time.

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
        """Snapshot instant: cells are read exactly here."""
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

    Installed at construction time (virtual t=0), so every send and the
    snapshot sit on the heap before the first event runs.
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


def _install_echo(server: Host):
    """The core's only shared service: a stateless immediate UDP echo."""
    socket = server.udp.bind(METRO_PORT)

    def echo(payload: bytes, src_ip, src_port) -> None:
        socket.send_to(payload, src_ip, src_port)

    socket.on_receive = echo
    return socket


class MetroTopology(Wiring):
    """The assembled metro population in one simulation.

    Each segment is a NAT444 unit of the shared wiring with its own MAC
    allocator, switches and client host; the server side of its core link
    is one server face on the core host.  Construction only *schedules* —
    the DHCP cascade at t=0, the load on its fixed schedule, the snapshot
    at ``plan.snap`` — and never steps the clock.  Run it with
    ``sim.run(until=bed.plan.horizon)`` (what :class:`MetroLoadProbe`
    does), then :meth:`collect`.
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
        super().__init__(sim)
        self.subscribers = subscribers
        self.cgn_policy = cgn_policy if cgn_policy is not None else CgnPolicy()
        self.plan = plan if plan is not None else MetroLoadPlan(subscribers=subscribers)
        self.flap = flap
        self.segments: Dict[str, CgnSegment] = {}
        self.server = Host(self.sim, "metro-core", mac_allocator(CORE_OUI))
        self.echo_socket = _install_echo(self.server)
        for index, profile in enumerate(profiles, start=1):
            self._add_segment(index, profile)

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

    def _add_segment(self, index: int, profile: DeviceProfile) -> None:
        """Segment ``n``: its server face, everything behind its core link, the link, its schedule."""
        wan_network = slash24(10, 100, index)
        access_network = slash24(100, 64 + index, 0)
        server_ip = first_host(wan_network)
        server_iface = self.server_face(index, wan_network, server_ip)
        macs = mac_allocator(0x02_00_00 + index)
        access = VlanSwitch(self.sim, f"acc-{index}", macs)
        lan = VlanSwitch(self.sim, f"lan-{index}", macs)
        cgn = self.cgn(
            f"metro-{profile.tag}.{index}", self.cgn_policy, macs, access_network, f"cgn-{profile.tag}",
            access=(access, 2000 + index),
        )
        client = Host(self.sim, f"client-{index}", macs)
        segment = CgnSegment(
            index, profile, cgn, wan_network, access_network, server_ip, server_iface.index, client=client
        )
        self.subscriber_homes(
            segment, self.subscribers, macs, access, lan, client, first_lan=1, prefix=f"{profile.tag}.{index}"
        )
        core_link = self.link(f"core:{profile.tag}", server_iface, cgn.wan_iface, CORE_RATE_BPS, CORE_DELAY)
        if self.flap is not None and self.flap.tag == profile.tag:
            self.sim.schedule_at(self.flap.at, core_link.sever)
            self.sim.schedule_at(self.flap.at + self.flap.duration, core_link.mend)
        self.sim.schedule(0.0, dhcp_cascade, client, segment.homes, cgn)
        segment.load = _SegmentLoad(self.sim, segment, self.plan)
        self.segments[profile.tag] = segment

    def tags(self) -> List[str]:
        return list(self.segments)

    def collect(self) -> Dict[str, MetroLoadResult]:
        """Per-segment cells; raises when a snapshot is missing or bring-up failed."""
        results: Dict[str, MetroLoadResult] = {}
        for tag, segment in self.segments.items():
            result = segment.load.result
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

    # -- chaos (unsupported here, loudly) -----------------------------------

    def apply_impairment(self, impairment) -> None:
        raise RuntimeError(
            "metro_load does not support --impair: chaos goes in after bring-up, "
            "and a metro bed runs its DHCP bring-up inside the measurement (use "
            "--metro-flap for a core-link outage, or the cgn_* families for "
            "impaired NAT444 runs)"
        )

    def schedule_faults(self, faults) -> None:
        raise RuntimeError(
            "metro_load does not support --fault: a crash fault is timed from "
            "measurement start, and a metro bed's measurement starts at t=0 "
            "with its DHCP bring-up"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MetroTopology {len(self.segments)} segments x "
            f"{self.subscribers} homes at t={self.sim.now:.3f}>"
        )


# ---------------------------------------------------------------------------
# Registry plumbing: knobs -> policy/plan/flap, bed builder, probe.
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


def metro_factory(knobs: MetroKnobs):
    """``testbed_factory`` hook: knobs -> ``build(profiles, seed, fastpath)``."""
    policy = metro_policy_for(knobs)
    plan = MetroLoadPlan(knobs.cgn_subscribers, knobs.metro_requests, knobs.metro_idle)
    flap = MetroFlap.parse(knobs.metro_flap)

    def build(profiles, seed, fastpath=True):
        return MetroTopology.build(
            profiles, seed=seed, subscribers=knobs.cgn_subscribers, cgn_policy=policy, plan=plan, flap=flap,
            fastpath=fastpath,
        )

    return build


class MetroLoadProbe:
    """Run the fixed-schedule load to its horizon and read the snapshots."""

    def run_all(self, bed: MetroTopology) -> Dict[str, MetroLoadResult]:
        bed.sim.run(until=bed.plan.horizon)
        return bed.collect()


# ---------------------------------------------------------------------------
# Registry descriptor and report section.
# ---------------------------------------------------------------------------


def _render_metro(results) -> Optional[str]:
    load = results.family("metro_load")
    if not load:
        return None
    any_result = next(iter(load.values()))
    # This heading and the next line's wording predate the one shard path;
    # the committed report digests pin them, so they change with those.
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
    testbed_factory=metro_factory,
    default_selected=False,
))

registry.register_section(registry.ReportSection(
    key="metro", order=97, families=("metro_load",), render=_render_metro,
))
