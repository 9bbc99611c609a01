"""The adversarial experiment families: ``attack_portflood``,
``attack_keepalive`` and ``attack_rst``.

All three run against a :class:`~repro.cgn.topology.Nat444Topology` — the
ReDAN threat model is precisely "hostile traffic on a *shared* NAT chain"
— and measure the attack's collateral damage on the innocent subscribers:
Jain fairness over what the innocents could still establish, survival of
their pre-existing flows, and the time from attack start to the first
refusal/teardown at each NAT tier.

* **attack_portflood** — subscriber 1's client is compromised and floods
  the chain with distinct-source-port UDP datagrams and TCP SYNs.  Every
  packet opens a binding at the home gateway (bounded by its session
  table, binding-rate limiter or port pool — whichever the device hits
  first) and at the CGN (bounded by the per-subscriber block quota, then
  the shared pool).  The other subscribers keep trying to open flows
  throughout; with a quota-protected pool the damage is contained (the
  RFC 6888 argument for block quotas), while a pool small enough for one
  quota to drain collapses everyone — both regimes are reachable through
  the ``cgn_subscribers``/``cgn_block_size`` knobs.

* **attack_keepalive** — every subscriber parks an idle UDP flow; an
  off-path attacker spoofing the flows' remote address (with a wrong
  source port — a blind attacker doesn't know the real one) sweeps the
  CGN's external pool with keepalives.  The CGN's ADDRESS_DEPENDENT
  filter passes the spoofs (address matches), so the home tier's
  filtering policy decides the outcome: EIF/ADM devices let the spoof
  refresh the binding — or *shift its state* to ``after_inbound``, whose
  shorter timeout on some devices evicts the flow early — while APDF
  devices filter it and the flow ages naturally.  Half the victims are
  probed after the natural timeout (refresh evidence), half before it
  (eviction evidence).

* **attack_rst** — every subscriber parks an established TCP connection;
  the attacker sweeps the pool with forged RSTs (blind source port and
  sequence number).  NATs with ``rst_clears`` tear the binding on any
  RST; endpoints apply RFC 793 sequence validation and ignore the same
  segment.  The CGN tier tears every swept binding — the shared tier
  makes every subscriber vulnerable regardless of how defensive their own
  CPE is — while the per-device columns (``home_torn``/``home_filtered``)
  show which CPEs would have protected a single-tier deployment.

Determinism: the attacker draws no RNG, flood source ports and scan
sweeps are fixed sequences, and pacing is pure arithmetic on the knobs —
so ``jobs=N ≡ jobs=1``, resume byte-identity and staged-engine parity all
hold by construction (and are pinned by ``tests/test_attack.py``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from repro.attack.node import AttackerNode
from repro.cgn.families import Nat444Knobs, jain_fairness, nat444_factory
from repro.cgn.topology import Nat444Topology
from repro.core import registry
from repro.core.runtime import Future, SimTask, run_tasks
from repro.core.tcp_binding import ESTABLISH_TIMEOUT, _Tcp1Server
from repro.core.udp_timeouts import _Responder
from repro.gateway.nat import STATE_OUTBOUND_ONLY
from repro.testbed.testrund import ManagementChannel, Testrund

__all__ = [
    "AttackPortfloodResult",
    "AttackPortfloodProbe",
    "AttackKeepaliveResult",
    "AttackKeepaliveProbe",
    "AttackRstResult",
    "AttackRstProbe",
    "AttackKnobs",
    "FloodKnobs",
]

#: Victim/innocent measurement services (distinct from the CGN families'
#: ports so the two campaigns can share a store without socket collisions).
ATTACK_UDP_PORT = 36700
ATTACK_TCP_PORT = 36701
#: Where the flood's SYN half aims: a DROP-firewalled port on the target.
#: A responding port would defeat the attack — the server's SYN|ACK or RST
#: travels back through the chain and ``rst_clears`` NATs tear the binding
#: the SYN just opened.  Real flooders aim at filtered ports for exactly
#: this reason; the probe models the firewall with a server-side intercept.
ATTACK_SYN_PORT = 36702
#: The spoofed *source* port of keepalive/RST sweeps: a blind off-path
#: attacker knows the victim's remote address, not its remote port.
SPOOF_SRC_PORT = 36999
#: First source port of the flood sequence (one port per packet).
FLOOD_SRC_BASE = 20000
DEFAULT_ATTACK_RATE = 50.0
DEFAULT_ATTACK_DURATION = 20.0
DEFAULT_GRACE = 2.0
#: Establishment attempts for one innocent/victim flow.
ESTABLISH_ATTEMPTS = 2


# ---------------------------------------------------------------------------
# attack_portflood
# ---------------------------------------------------------------------------


@dataclass
class AttackPortfloodResult:
    """Collateral profile of one segment under a binding-exhaustion flood."""

    tag: str
    subscribers: int
    attack_rate: float
    attack_duration: float
    pool_ports: int
    #: Flood packets injected (alternating UDP datagrams and TCP SYNs).
    attack_packets: int = 0
    #: Seconds from flood start to the *attacker's home gateway* first
    #: refusing a binding (None = the device absorbed the whole flood).
    home_onset: Optional[float] = None
    #: What refused first at the home tier (table_full / rate_limited /
    #: port_exhausted) — the device's binding bottleneck under attack.
    home_cause: Optional[str] = None
    #: Seconds from flood start to the CGN's first port-pool refusal.
    cgn_onset: Optional[float] = None
    #: Total bindings the attacker's home gateway refused during the flood.
    home_refused: int = 0
    #: CGN port-pool refusals during the flood, per protocol (the new
    #: per-proto accounting: the SYN half of the flood cannot mask the UDP
    #: half's exhaustion, or vice versa).
    cgn_refused_udp: int = 0
    cgn_refused_tcp: int = 0
    #: Fresh flows each innocent subscriber established / was refused
    #: while the flood ran (index 0 = subscriber 2, and so on).
    innocent_flows: List[int] = field(default_factory=list)
    innocent_refused: List[int] = field(default_factory=list)
    #: Jain's index over ``innocent_flows``.
    fairness: float = 0.0
    #: Fraction of the innocents' pre-attack flows still alive afterwards.
    victim_survival: float = 0.0


class AttackPortfloodProbe:
    """Flood one subscriber's chain; measure what the others lose."""

    #: Innocents re-try this many flows, evenly spread over the flood.
    INNOCENT_ROUNDS = 6

    def __init__(
        self,
        rate: float = DEFAULT_ATTACK_RATE,
        duration: float = DEFAULT_ATTACK_DURATION,
        grace: float = DEFAULT_GRACE,
    ):
        if rate <= 0:
            raise ValueError(f"attack rate must be positive, got {rate}")
        if duration <= 0:
            raise ValueError(f"attack duration must be positive, got {duration}")
        self.rate = rate
        self.duration = duration
        self.grace = grace

    def run_all(self, bed: Nat444Topology) -> Dict[str, AttackPortfloodResult]:
        tags = bed.tags()
        self._flows = itertools.count(1)
        channel = ManagementChannel(bed.sim)
        daemon = Testrund("server", channel)
        responder = _Responder(bed, ATTACK_UDP_PORT)
        daemon.register("respond", responder.respond)
        results = {
            tag: AttackPortfloodResult(
                tag,
                subscribers=bed.subscribers,
                attack_rate=self.rate,
                attack_duration=self.duration,
                pool_ports=bed.cgn_policy.pool_ports,
            )
            for tag in tags
        }
        tasks = [
            SimTask(bed.sim, self._segment_task(bed, tag, responder, daemon, results[tag]), name=f"attack_portflood:{tag}")
            for tag in tags
        ]
        run_tasks(bed.sim, tasks)
        responder.detach()
        return results

    def _open_flow(self, bed, segment, tag: str, subscriber: int, responder: _Responder) -> Generator:
        """Open (and keep) one verified UDP flow; returns (socket, id, ok)."""
        iface = bed.client_iface(tag, subscriber)
        socket = bed.client.udp.bind(0, iface.index)
        flow_id = None
        for _attempt in range(ESTABLISH_ATTEMPTS):
            flow_id = next(self._flows)
            arrival = responder.expect(flow_id, timeout=self.grace)
            socket.send_to(flow_id.to_bytes(8, "big"), segment.server_ip, ATTACK_UDP_PORT)
            endpoint = yield arrival
            if endpoint is not None:
                return socket, flow_id, True
        return socket, flow_id, False

    def _segment_task(
        self,
        bed: Nat444Topology,
        tag: str,
        responder: _Responder,
        daemon: Testrund,
        result: AttackPortfloodResult,
    ) -> Generator:
        segment = bed.segment(tag)
        innocents = list(range(2, bed.subscribers + 1))
        # Phase 0: every innocent parks one verified flow (held open — the
        # survival sentinels the flood must not kill).
        pre = []
        for subscriber in innocents:
            opened = yield from self._open_flow(bed, segment, tag, subscriber, responder)
            pre.append(opened)
        # Phase 1+2, concurrently: the flood, and the innocents' retries.
        flood_done = Future()
        SimTask(
            bed.sim,
            self._flood(bed, segment, tag, result, flood_done),
            name=f"attack_flood:{tag}",
        )
        counters = [[0, 0] for _ in innocents]
        innocent_done: List[Future] = []
        for slot, subscriber in enumerate(innocents):
            done = Future()
            innocent_done.append(done)
            SimTask(
                bed.sim,
                self._innocent(bed, segment, tag, subscriber, responder, counters[slot], done),
                name=f"attack_innocent:{tag}:{subscriber}",
            )
        yield flood_done
        for done in innocent_done:
            yield done
        # Phase 3: do the pre-attack flows still pass traffic?
        alive = 0
        total = 0
        for socket, flow_id, ok in pre:
            if ok:
                total += 1
                got = Future(timeout=self.grace)

                def on_reply(payload: bytes, _ip, _port, got: Future = got, flow_id: int = flow_id) -> None:
                    if len(payload) >= 8 and int.from_bytes(payload[0:8], "big") == flow_id:
                        got.set_result(True)

                socket.on_receive = on_reply
                daemon.invoke("respond", flow_id, 0)
                if (yield got):
                    alive += 1
            socket.close()
        result.innocent_flows = [established for established, _refused in counters]
        result.innocent_refused = [refused for _established, refused in counters]
        result.fairness = jain_fairness(result.innocent_flows)
        result.victim_survival = (alive / total) if total else 0.0

    def _flood(
        self,
        bed: Nat444Topology,
        segment,
        tag: str,
        result: AttackPortfloodResult,
        done: Future,
    ) -> Generator:
        home = segment.homes[0].gateway.nat  # the attacker's own gateway
        cgn = segment.cgn.nat
        count = int(round(self.rate * self.duration))
        # One source port per packet, bounded to the flood's own range so
        # the shield can never eat an innocent's traffic.
        count = min(count, 65535 - FLOOD_SRC_BASE)
        interval = 1.0 / self.rate
        attacker = AttackerNode(
            bed.client, bed.client_iface(tag, 1).index, label=f"flood:{tag}"
        )
        attacker.shield(FLOOD_SRC_BASE, FLOOD_SRC_BASE + count)
        # The target's firewall DROPs the SYN port: the SYN still opens a
        # transitory binding at every NAT tier it crosses, and nothing comes
        # back to clear it.
        unfirewall = bed.server.install_intercept(
            lambda packet, _iface: getattr(packet.payload, "dst_port", None) == ATTACK_SYN_PORT
        )
        client_ip = bed.client_ip(tag, 1)
        home_before = home.bindings_refused + home.bindings_rate_refused + home.bindings_port_exhausted
        cgn_udp_before = cgn.port_exhausted_for("udp")
        cgn_tcp_before = cgn.port_exhausted_for("tcp")
        start = bed.sim.now
        try:
            for ordinal in range(count):
                src_port = FLOOD_SRC_BASE + ordinal
                if ordinal % 2 == 0:
                    attacker.send_udp(client_ip, src_port, segment.server_ip, ATTACK_UDP_PORT)
                else:
                    attacker.send_syn(client_ip, src_port, segment.server_ip, ATTACK_SYN_PORT)
                yield interval
                if result.home_onset is None:
                    refused = home.bindings_refused + home.bindings_rate_refused + home.bindings_port_exhausted
                    if refused > home_before:
                        result.home_onset = bed.sim.now - start
                        result.home_cause = home.refusal_cause("udp") or home.refusal_cause("tcp")
                if result.cgn_onset is None and (
                    cgn.port_exhausted_for("udp") > cgn_udp_before
                    or cgn.port_exhausted_for("tcp") > cgn_tcp_before
                ):
                    result.cgn_onset = bed.sim.now - start
        finally:
            attacker.unshield()
            unfirewall()
        result.attack_packets = attacker.packets_sent
        result.home_refused = (
            home.bindings_refused + home.bindings_rate_refused + home.bindings_port_exhausted
        ) - home_before
        result.cgn_refused_udp = cgn.port_exhausted_for("udp") - cgn_udp_before
        result.cgn_refused_tcp = cgn.port_exhausted_for("tcp") - cgn_tcp_before
        done.set_result(True)

    def _innocent(
        self,
        bed: Nat444Topology,
        segment,
        tag: str,
        subscriber: int,
        responder: _Responder,
        counter: List[int],
        done: Future,
    ) -> Generator:
        interval = self.duration / self.INNOCENT_ROUNDS
        for _round in range(self.INNOCENT_ROUNDS):
            yield interval
            flow_id = next(self._flows)
            iface = bed.client_iface(tag, subscriber)
            socket = bed.client.udp.bind(0, iface.index)
            arrival = responder.expect(flow_id, timeout=self.grace)
            socket.send_to(flow_id.to_bytes(8, "big"), segment.server_ip, ATTACK_UDP_PORT)
            endpoint = yield arrival
            if endpoint is None:
                counter[1] += 1
            else:
                counter[0] += 1
            # The socket closes but its bindings live on until the tiers
            # time them out — contention the flood has to beat, as in life.
            socket.close()
        done.set_result(True)


# ---------------------------------------------------------------------------
# attack_keepalive
# ---------------------------------------------------------------------------


@dataclass
class AttackKeepaliveResult:
    """Spoofed-keepalive outcome for one segment's victim population."""

    tag: str
    subscribers: int
    #: The device's filtering behaviour (the attack's gatekeeper).
    filtering: str
    #: Natural idle life of an untouched victim flow: min across tiers.
    natural_timeout: float
    scans: int = 0
    spoofed_packets: int = 0
    #: Victims probed *after* the natural timeout that were still alive —
    #: the spoofs kept their bindings refreshed from off-path.
    refreshed: int = 0
    refreshed_total: int = 0
    #: Victims probed *before* the natural timeout that were already dead —
    #: the spoof shifted the binding into a shorter-lived state (eviction).
    evicted: int = 0
    evicted_total: int = 0
    #: Spoofed keepalives the home tier's filtering discarded.
    home_filtered: int = 0
    #: Seconds from flow establishment to the first sweep that crossed a
    #: home gateway (None = every spoof was filtered).
    onset: Optional[float] = None
    fairness: float = 0.0
    victim_survival: float = 0.0


class AttackKeepaliveProbe:
    """Sweep spoofed keepalives over the CGN pool; probe victim flows."""

    #: Sweep instants as fractions of the earliest natural timeout.
    SCAN_FRACTIONS = (0.45, 0.9, 1.35)
    #: Eviction probe instant (before natural death; after the first sweep).
    MID_FRACTION = 0.8
    #: Refresh probe: past every tier's natural upper bound by this factor.
    LATE_FRACTION = 1.75

    def __init__(self, grace: float = DEFAULT_GRACE):
        self.grace = grace

    def run_all(self, bed: Nat444Topology) -> Dict[str, AttackKeepaliveResult]:
        tags = bed.tags()
        self._flows = itertools.count(1)
        channel = ManagementChannel(bed.sim)
        daemon = Testrund("server", channel)
        responder = _Responder(bed, ATTACK_UDP_PORT)
        daemon.register("respond", responder.respond)
        results = {}
        for tag in tags:
            profile = bed.segment(tag).profile
            device_timeout = profile.udp_timeouts.timeout_for(STATE_OUTBOUND_ONLY, ATTACK_UDP_PORT)
            results[tag] = AttackKeepaliveResult(
                tag,
                subscribers=bed.subscribers,
                filtering=profile.nat.filtering.value,
                natural_timeout=min(device_timeout, bed.cgn_policy.udp_timeout),
            )
        tasks = [
            SimTask(bed.sim, self._segment_task(bed, tag, responder, daemon, results[tag]), name=f"attack_keepalive:{tag}")
            for tag in tags
        ]
        run_tasks(bed.sim, tasks)
        responder.detach()
        return results

    def _segment_task(
        self,
        bed: Nat444Topology,
        tag: str,
        responder: _Responder,
        daemon: Testrund,
        result: AttackKeepaliveResult,
    ) -> Generator:
        segment = bed.segment(tag)
        policy = bed.cgn_policy
        profile = segment.profile
        victims = list(range(1, bed.subscribers + 1))
        flows: List[Optional[int]] = []
        sockets = []
        for subscriber in victims:
            iface = bed.client_iface(tag, subscriber)
            socket = bed.client.udp.bind(0, iface.index)
            sockets.append(socket)
            flow_id = None
            for _attempt in range(ESTABLISH_ATTEMPTS):
                candidate = next(self._flows)
                arrival = responder.expect(candidate, timeout=self.grace)
                socket.send_to(candidate.to_bytes(8, "big"), segment.server_ip, ATTACK_UDP_PORT)
                endpoint = yield arrival
                if endpoint is not None:
                    flow_id = candidate
                    break
            flows.append(flow_id)
        # The timeline: sweep before the earliest natural death, probe the
        # "mid" group before it and the "late" group past every tier's
        # natural upper bound (device granularity rounds deadlines up).
        low = result.natural_timeout
        high = min(
            profile.udp_timeouts.timeout_for(STATE_OUTBOUND_ONLY, ATTACK_UDP_PORT)
            + profile.udp_timeouts.timer_granularity,
            policy.udp_timeout + policy.timer_granularity,
        )
        established_at = bed.sim.now
        scan_times = [fraction * low for fraction in self.SCAN_FRACTIONS]
        mid_at = self.MID_FRACTION * low
        late_at = max(self.LATE_FRACTION * low, high + 0.5 * low)
        attacker = AttackerNode(
            bed.server, segment.server_iface_index, label=f"keepalive:{tag}"
        )
        cgn_ip = segment.cgn.wan_ip
        pool_lo = policy.first_external_port
        pool_hi = pool_lo + policy.pool_ports
        homes = segment.homes

        def filtered_total() -> int:
            return sum(home.gateway.nat.inbound_filtered for home in homes)

        def delivered_total() -> int:
            return sum(home.gateway.forwarded_down for home in homes)

        filtered_before = filtered_total()
        # Interleave sweeps and probes on one absolute-time schedule.
        events = sorted(
            [(when, "scan") for when in scan_times] + [(mid_at, "mid"), (late_at, "late")]
        )
        mid_alive = 0
        mid_total = 0
        late_alive = 0
        late_total = 0
        for when, kind in events:
            delay = established_at + when - bed.sim.now
            if delay > 0:
                yield delay
            if kind == "scan":
                delivered_before = delivered_total()
                for port in range(pool_lo, pool_hi):
                    # Spoofed source: the victims' remote address with a
                    # blind port.  The CGN's ADDRESS_DEPENDENT filter passes
                    # it; the home tier's filtering policy gets the last word.
                    attacker.send_udp(segment.server_ip, SPOOF_SRC_PORT, cgn_ip, port)
                result.scans += 1
                yield 0.5  # let the sweep cross (or die in) the chain
                if result.onset is None and delivered_total() > delivered_before:
                    result.onset = bed.sim.now - established_at
                continue
            # Probe half the victims: odd subscriber ordinals late (refresh
            # evidence), even ones mid-timeline (eviction evidence).
            for slot, subscriber in enumerate(victims):
                in_late = subscriber % 2 == 1
                if (kind == "late") != in_late:
                    continue
                flow_id = flows[slot]
                if flow_id is None:
                    continue
                socket = sockets[slot]
                got = Future(timeout=self.grace)

                def on_reply(payload: bytes, _ip, _port, got: Future = got, flow_id: int = flow_id) -> None:
                    if len(payload) >= 8 and int.from_bytes(payload[0:8], "big") == flow_id:
                        got.set_result(True)

                socket.on_receive = on_reply
                daemon.invoke("respond", flow_id, 0)
                alive = bool((yield got))
                if kind == "late":
                    late_total += 1
                    late_alive += 1 if alive else 0
                else:
                    mid_total += 1
                    mid_alive += 1 if alive else 0
        for socket in sockets:
            socket.close()
        result.spoofed_packets = attacker.udp_sent
        result.home_filtered = filtered_total() - filtered_before
        result.refreshed = late_alive
        result.refreshed_total = late_total
        result.evicted = mid_total - mid_alive
        result.evicted_total = mid_total
        probed_alive = mid_alive + late_alive
        probed = mid_total + late_total
        result.victim_survival = (probed_alive / probed) if probed else 0.0
        result.fairness = jain_fairness(
            [1] * probed_alive + [0] * (probed - probed_alive)
        )


# ---------------------------------------------------------------------------
# attack_rst
# ---------------------------------------------------------------------------


@dataclass
class AttackRstResult:
    """Off-path RST teardown outcome for one segment's victims."""

    tag: str
    subscribers: int
    filtering: str
    #: TCP connections established before the sweep.
    victims: int = 0
    spoofed_rsts: int = 0
    #: Victim bindings torn down at the CGN tier (rst_clears, no sequence
    #: check — the shared tier falls for every swept port).
    cgn_torn: int = 0
    #: Victim bindings torn down at their home gateways (EIF/ADM devices
    #: forward the spoof inward; APDF devices filter it).
    home_torn: int = 0
    #: Spoofed RSTs the home tier's filtering discarded.
    home_filtered: int = 0
    #: Victim endpoints that actually reset (RFC 793 window check: ~none).
    victims_reset: int = 0
    #: Seconds from sweep start to the first CGN binding teardown.
    onset: Optional[float] = None
    #: Victims whose connection still passed data after the sweep.
    survived: int = 0
    fairness: float = 0.0
    victim_survival: float = 0.0


class AttackRstProbe:
    """Sweep forged RSTs over the CGN pool; then poke every victim flow."""

    #: The attacker's blind sequence guess; the endpoints' 64 KB receive
    #: windows sit in the low 2^32 space, so this is ~surely out-of-window.
    BLIND_SEQ = 0x20000000

    def __init__(self, rate: float = DEFAULT_ATTACK_RATE, grace: float = DEFAULT_GRACE):
        if rate <= 0:
            raise ValueError(f"attack rate must be positive, got {rate}")
        self.rate = rate
        self.grace = grace

    def run_all(self, bed: Nat444Topology) -> Dict[str, AttackRstResult]:
        tags = bed.tags()
        self._nonces = itertools.count(1)
        channel = ManagementChannel(bed.sim)
        daemon = Testrund("server", channel)
        tcp_server = _Tcp1Server(bed, ATTACK_TCP_PORT)
        daemon.register("tcp_respond", tcp_server.respond)
        daemon.register("tcp_abort", tcp_server.abort)
        results = {
            tag: AttackRstResult(
                tag,
                subscribers=bed.subscribers,
                filtering=bed.segment(tag).profile.nat.filtering.value,
            )
            for tag in tags
        }
        tasks = [
            SimTask(bed.sim, self._segment_task(bed, tag, daemon, results[tag]), name=f"attack_rst:{tag}")
            for tag in tags
        ]
        run_tasks(bed.sim, tasks)
        return results

    def _segment_task(
        self, bed: Nat444Topology, tag: str, daemon: Testrund, result: AttackRstResult
    ) -> Generator:
        segment = bed.segment(tag)
        policy = bed.cgn_policy
        victims = []
        for subscriber in range(1, bed.subscribers + 1):
            iface = bed.client_iface(tag, subscriber)
            nonce = next(self._nonces)
            established = Future(timeout=ESTABLISH_TIMEOUT)
            conn = bed.client.tcp.connect(segment.server_ip, ATTACK_TCP_PORT, iface_index=iface.index)
            conn.on_established = established.set_result
            ok = yield established
            if not ok:
                conn.abort()
                continue
            conn.send(nonce.to_bytes(8, "big"))
            victims.append((subscriber, nonce, conn))
        yield 0.5  # let the nonces (and their ACKs) clear both tiers
        result.victims = len(victims)
        cgn = segment.cgn.nat
        homes = segment.homes
        cgn_before = cgn.binding_count("tcp")
        home_before = [home.gateway.nat.binding_count("tcp") for home in homes]
        filtered_before = sum(home.gateway.nat.inbound_filtered for home in homes)
        attacker = AttackerNode(
            bed.server, segment.server_iface_index, label=f"rst:{tag}"
        )
        cgn_ip = segment.cgn.wan_ip
        interval = 1.0 / self.rate
        start = bed.sim.now
        for port in range(policy.first_external_port, policy.first_external_port + policy.pool_ports):
            attacker.send_rst(segment.server_ip, SPOOF_SRC_PORT, cgn_ip, port, seq=self.BLIND_SEQ)
            yield interval
            if result.onset is None and cgn.binding_count("tcp") < cgn_before:
                result.onset = bed.sim.now - start
        yield 1.0  # let the tail of the sweep land
        result.spoofed_rsts = attacker.rst_sent
        result.cgn_torn = max(0, cgn_before - cgn.binding_count("tcp"))
        result.home_torn = sum(
            1
            for before, home in zip(home_before, homes)
            if home.gateway.nat.binding_count("tcp") < before
        )
        result.home_filtered = (
            sum(home.gateway.nat.inbound_filtered for home in homes) - filtered_before
        )
        survived = 0
        for _subscriber, nonce, conn in victims:
            if conn.state == "CLOSED":
                result.victims_reset += 1
            data_arrived = Future(timeout=self.grace)
            conn.on_data = lambda _data, got=data_arrived: got.set_result(True)
            daemon.invoke("tcp_respond", nonce)
            if (yield data_arrived):
                survived += 1
            daemon.invoke("tcp_abort", nonce)
            conn.abort()
        result.survived = survived
        result.victim_survival = (survived / len(victims)) if victims else 0.0
        result.fairness = jain_fairness(
            [1] * survived + [0] * (len(victims) - survived)
        )


# ---------------------------------------------------------------------------
# Registry: descriptors, report section.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttackKnobs(Nat444Knobs):
    """A NAT444 bed whose attacker paces its packets."""

    attack_rate: float = registry.knob(DEFAULT_ATTACK_RATE, "--attack-rate",
                                       help="attacker packet rate in pkt/s (default: 50)")


@dataclass(frozen=True)
class FloodKnobs(AttackKnobs):
    """The binding-exhaustion flood: a paced attack of fixed duration."""

    attack_duration: float = registry.knob(DEFAULT_ATTACK_DURATION, "--attack-duration",
                                           help="flood duration in seconds (default: 20)")


def _onset_text(onset: Optional[float]) -> str:
    return f"{onset:.1f}" if onset is not None else "never"


def _render_attack(results) -> Optional[str]:
    flood = results.family("attack_portflood")
    keepalive = results.family("attack_keepalive")
    rst = results.family("attack_rst")
    if not flood and not keepalive and not rst:
        return None
    parts = ["## Adversarial tier: NAT abuse (ReDAN attack families)"]
    if flood:
        parts.append(
            "Binding-exhaustion flood from one compromised subscriber; "
            "exhaustion onset per tier, and what the innocent subscribers "
            "could still do:"
        )
        lines = [
            "| device | home onset [s] | home cause | CGN onset [s] "
            "| CGN refused (udp/tcp) | innocent flows | fairness | survival |",
            "|---|---|---|---|---|---|---|---|",
        ]
        for tag in sorted(flood):
            cell = flood[tag]
            lines.append(
                f"| {tag} | {_onset_text(cell.home_onset)} | {cell.home_cause or '-'} "
                f"| {_onset_text(cell.cgn_onset)} "
                f"| {cell.cgn_refused_udp}/{cell.cgn_refused_tcp} "
                f"| {sum(cell.innocent_flows)} | {cell.fairness:.3f} "
                f"| {cell.victim_survival:.2f} |"
            )
        parts.append("\n".join(lines))
    if keepalive:
        parts.append(
            "Spoofed keepalive sweeps over the CGN pool (blind source "
            "port): refreshed = victims alive past their natural timeout, "
            "evicted = victims dead before it:"
        )
        lines = [
            "| device | filtering | refreshed | evicted | filtered "
            "| onset [s] | fairness | survival |",
            "|---|---|---|---|---|---|---|---|",
        ]
        for tag in sorted(keepalive):
            cell = keepalive[tag]
            lines.append(
                f"| {tag} | {cell.filtering} "
                f"| {cell.refreshed}/{cell.refreshed_total} "
                f"| {cell.evicted}/{cell.evicted_total} | {cell.home_filtered} "
                f"| {_onset_text(cell.onset)} | {cell.fairness:.3f} "
                f"| {cell.victim_survival:.2f} |"
            )
        parts.append("\n".join(lines))
    if rst:
        parts.append(
            "Off-path RST sweeps (blind port and sequence): the CGN tier "
            "tears bindings for everyone, the per-device columns show which "
            "CPEs would have filtered the spoof on their own:"
        )
        lines = [
            "| device | filtering | CGN torn | home torn | filtered "
            "| endpoints reset | onset [s] | fairness | survival |",
            "|---|---|---|---|---|---|---|---|---|",
        ]
        for tag in sorted(rst):
            cell = rst[tag]
            lines.append(
                f"| {tag} | {cell.filtering} | {cell.cgn_torn}/{cell.victims} "
                f"| {cell.home_torn}/{cell.victims} | {cell.home_filtered} "
                f"| {cell.victims_reset} | {_onset_text(cell.onset)} "
                f"| {cell.fairness:.3f} | {cell.victim_survival:.2f} |"
            )
        parts.append("\n".join(lines))
    return "\n\n".join(parts)


registry.register_family(registry.ExperimentFamily(
    name="attack_portflood",
    order=300,
    cell_type=AttackPortfloodResult,
    knobs=FloodKnobs,
    probe_factory=lambda knobs: AttackPortfloodProbe(rate=knobs.attack_rate, duration=knobs.attack_duration).run_all,
    testbed_factory=nat444_factory,
    default_selected=False,
))

registry.register_family(registry.ExperimentFamily(
    name="attack_keepalive",
    order=310,
    cell_type=AttackKeepaliveResult,
    knobs=Nat444Knobs,
    probe_factory=lambda knobs: AttackKeepaliveProbe().run_all,
    testbed_factory=nat444_factory,
    default_selected=False,
))

registry.register_family(registry.ExperimentFamily(
    name="attack_rst",
    order=320,
    cell_type=AttackRstResult,
    knobs=AttackKnobs,
    probe_factory=lambda knobs: AttackRstProbe(rate=knobs.attack_rate).run_all,
    testbed_factory=nat444_factory,
    default_selected=False,
))

registry.register_section(registry.ReportSection(
    key="attack",
    order=96,
    families=("attack_portflood", "attack_keepalive", "attack_rst"),
    render=_render_attack,
))
