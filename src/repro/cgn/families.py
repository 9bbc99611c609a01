"""The CGN experiment families: ``cgn_timeouts`` and ``cgn_exhaustion``.

Both families probe a :class:`~repro.cgn.topology.Nat444Topology` — the
double-NAT chain — instead of the paper's single-gateway testbed, which
they declare through the registry's ``testbed_factory`` hook.

* **cgn_timeouts** re-runs the paper's UDP-1 and TCP-1 style probes end to
  end through both NAT tiers and reports the *effective* binding timeout of
  the chain.  Nothing in the probe knows there are two tiers: it opens a
  flow, idles, asks the server to respond, and observes whether the reply
  makes it back.  The min-across-tiers behaviour is *emergent* — whichever
  tier expires first eats the response — which is exactly the property the
  acceptance test perturbs one tier to verify.

* **cgn_exhaustion** ramps concurrent subscriber flows until the CGN's
  per-subscriber port blocks run out (quota) or the shared pool drains
  (the ReDAN failure mode).  It reports each subscriber's established-flow
  count, the flow ordinal at which each first saw a blocked flow, and
  Jain's fairness index over the final allocation.

Both families are registered ``default_selected=False``: they multiply the
population by ``subscribers`` and belong to the NAT444 campaign (CLI
``--cgn`` or an explicit ``--families`` selection), not the paper's menu.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence

from repro.cgn.topology import Nat444Topology
from repro.core import registry
from repro.core.binary_search import BindingSearch, ParallelBindingSearch, SearchOutcome
from repro.core.results import median
from repro.core.runtime import Future, SimTask, run_tasks
from repro.core.tcp_binding import ESTABLISH_TIMEOUT, RESPONSE_GRACE, _Tcp1Server
from repro.core.udp_timeouts import _Responder
from repro.devices.cgn_profiles import CgnPolicy
from repro.testbed.testrund import ManagementChannel, Testrund

__all__ = [
    "CgnTimeoutResult",
    "CgnTimeoutProbe",
    "CgnExhaustionResult",
    "CgnExhaustionProbe",
    "Nat444Knobs",
    "cgn_policy_for",
    "nat444_factory",
]

CGN_UDP_PORT = 34700
CGN_TCP_PORT = 34701
#: End-to-end UDP search ceiling: generously above both tiers' defaults.
DEFAULT_UDP_CUTOFF = 780.0
#: End-to-end TCP search ceiling: above the CGN's 2400 s established
#: timeout, far below the paper's 24 h (the chain can never outlive its
#: shortest tier, so searching past the CGN default wastes virtual time).
DEFAULT_TCP_CUTOFF = 3600.0
DEFAULT_GRACE = 2.0
#: Establishment attempts for one flow before the chain is declared dead.
ESTABLISH_ATTEMPTS = 3


# ---------------------------------------------------------------------------
# cgn_timeouts
# ---------------------------------------------------------------------------


@dataclass
class CgnTimeoutResult:
    """Effective end-to-end binding timeouts of one device's NAT444 chain."""

    tag: str
    subscribers: int
    block_size: int
    udp_samples: List[float] = field(default_factory=list)
    udp_censored: int = 0
    udp_cutoff: float = DEFAULT_UDP_CUTOFF
    tcp_samples: List[float] = field(default_factory=list)
    tcp_censored: int = 0
    tcp_cutoff: float = DEFAULT_TCP_CUTOFF


class CgnTimeoutProbe:
    """UDP-1/TCP-1 style searches through the double-NAT chain.

    Each UDP probe binds a *fresh* ephemeral client socket, so every
    iteration opens a brand-new binding chain at both tiers — no quiescence
    wait is needed (the paper's modification exists because its probe
    re-used one source port; a fresh 5-tuple starts clean by construction).
    """

    def __init__(
        self,
        udp_cutoff: float = DEFAULT_UDP_CUTOFF,
        tcp_cutoff: float = DEFAULT_TCP_CUTOFF,
        grace: float = DEFAULT_GRACE,
        repetitions: int = 1,
        tcp_fanout: int = 8,
    ):
        self.udp_cutoff = udp_cutoff
        self.tcp_cutoff = tcp_cutoff
        self.grace = grace
        self.repetitions = repetitions
        self.tcp_fanout = tcp_fanout

    def run_all(self, bed: Nat444Topology) -> Dict[str, CgnTimeoutResult]:
        tags = bed.tags()
        # Flow ids and nonces restart per run (pcap/trace determinism).
        self._flows = itertools.count(1)
        self._nonces = itertools.count(1)
        channel = ManagementChannel(bed.sim)
        daemon = Testrund("server", channel)
        responder = _Responder(bed, CGN_UDP_PORT)
        tcp_server = _Tcp1Server(bed, CGN_TCP_PORT)
        daemon.register("respond", responder.respond)
        daemon.register("tcp_respond", tcp_server.respond)
        daemon.register("tcp_abort", tcp_server.abort)
        results = {
            tag: CgnTimeoutResult(
                tag,
                subscribers=bed.subscribers,
                block_size=bed.cgn_policy.block_size,
                udp_cutoff=self.udp_cutoff,
                tcp_cutoff=self.tcp_cutoff,
            )
            for tag in tags
        }
        tasks = [
            SimTask(bed.sim, self._segment_task(bed, tag, responder, daemon, results[tag]), name=f"cgn_timeouts:{tag}")
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
        result: CgnTimeoutResult,
    ) -> Generator:
        # Subscriber 1 carries the timeout measurement; the rest of the
        # population exists so the chain is a *loaded* CGN, not a lab one.
        for _repetition in range(self.repetitions):
            search = BindingSearch(
                lambda sleep: self._udp_probe(bed, tag, responder, daemon, sleep),
                cutoff=self.udp_cutoff,
            )
            outcome = yield from search.run()
            if outcome.censored:
                result.udp_censored += 1
            elif outcome.estimate is not None:
                result.udp_samples.append(outcome.estimate)
        for _repetition in range(self.repetitions):
            search = ParallelBindingSearch(
                lambda sleep: self._spawn_tcp_probe(bed, tag, daemon, sleep),
                cutoff=self.tcp_cutoff,
                fanout=self.tcp_fanout,
            )
            outcome: SearchOutcome = yield from search.run()
            if outcome.censored:
                result.tcp_censored += 1
            elif outcome.estimate is not None:
                result.tcp_samples.append(outcome.estimate)

    def _udp_probe(
        self, bed: Nat444Topology, tag: str, responder: _Responder, daemon: Testrund, sleep: float
    ) -> Generator:
        """One end-to-end UDP probe: fresh chain, idle, response, verdict."""
        segment = bed.segment(tag)
        iface = bed.client_iface(tag, 1)
        socket = bed.client.udp.bind(0, iface.index)
        try:
            flow_id = None
            for _attempt in range(ESTABLISH_ATTEMPTS):
                candidate = next(self._flows)
                arrival = responder.expect(candidate, timeout=self.grace)
                socket.send_to(candidate.to_bytes(8, "big"), segment.server_ip, CGN_UDP_PORT)
                endpoint = yield arrival
                if endpoint is not None:
                    flow_id = candidate
                    break
            if flow_id is None:
                raise RuntimeError(f"{tag}: probe never crossed the NAT444 chain")
            yield sleep
            got = Future(timeout=self.grace)

            def on_reply(payload: bytes, _ip, _port, got: Future = got, flow_id: int = flow_id) -> None:
                if len(payload) >= 8 and int.from_bytes(payload[0:8], "big") == flow_id:
                    got.set_result(True)

            socket.on_receive = on_reply
            daemon.invoke("respond", flow_id, 0)
            alive = yield got
            return bool(alive)
        finally:
            socket.close()

    def _spawn_tcp_probe(self, bed: Nat444Topology, tag: str, daemon: Testrund, sleep: float) -> Future:
        verdict = Future()
        SimTask(bed.sim, self._tcp_probe(bed, tag, daemon, sleep, verdict), name=f"cgn_tcp:{tag}:{sleep:.0f}")
        return verdict

    def _tcp_probe(
        self, bed: Nat444Topology, tag: str, daemon: Testrund, sleep: float, verdict: Future
    ) -> Generator:
        """One end-to-end TCP probe: connect, identify, idle, poke, observe."""
        segment = bed.segment(tag)
        iface = bed.client_iface(tag, 1)
        nonce = next(self._nonces)
        established = Future(timeout=ESTABLISH_TIMEOUT)
        conn = bed.client.tcp.connect(segment.server_ip, CGN_TCP_PORT, iface_index=iface.index)
        conn.on_established = established.set_result
        ok = yield established
        if not ok:
            conn.abort()
            verdict.set_result(False)
            return
        conn.send(nonce.to_bytes(8, "big"))
        yield 0.5  # let the nonce (and its ACK) clear both tiers
        yield sleep
        data_arrived = Future(timeout=RESPONSE_GRACE)
        conn.on_data = lambda _data: data_arrived.set_result(True)
        daemon.invoke("tcp_respond", nonce)
        got = yield data_arrived
        daemon.invoke("tcp_abort", nonce)
        conn.abort()
        verdict.set_result(bool(got))


# ---------------------------------------------------------------------------
# cgn_exhaustion
# ---------------------------------------------------------------------------


@dataclass
class CgnExhaustionResult:
    """Port-block exhaustion profile of one device's NAT444 segment."""

    tag: str
    subscribers: int
    block_size: int
    pool_ports: int
    #: Flows each subscriber had established when the ramp ended.
    flows_established: List[int] = field(default_factory=list)
    #: Flow ordinal (1-based) at which each subscriber first hit a blocked
    #: flow; ``None`` = never blocked before the ramp ended.
    blocked_onset: List[Optional[int]] = field(default_factory=list)
    rounds: int = 0
    #: Jain's fairness index over ``flows_established`` (1.0 = perfectly fair).
    fairness: float = 0.0

    @property
    def total_flows(self) -> int:
        return sum(self.flows_established)


def jain_fairness(values: Sequence[int]) -> float:
    """Jain's index ``(Σx)² / (n·Σx²)``; 1.0 when every share is equal."""
    if not values:
        return 0.0
    square_sum = sum(v * v for v in values)
    if square_sum == 0:
        return 0.0
    total = sum(values)
    return (total * total) / (len(values) * square_sum)


class CgnExhaustionProbe:
    """Ramp one flow per subscriber per round until the blocks run dry.

    The ramp is strictly round-robin — subscriber 1 opens flow ``r``, then
    subscriber 2, … — so "fair" pool policies show near-simultaneous onset
    while quota-bound ones cut individual subscribers off early.  The whole
    ramp completes in well under the CGN's UDP timeout, so bindings opened
    in round 1 still pin their ports when the pool finally drains (the
    steady-state peak-hour picture, not a trickle).
    """

    def __init__(self, grace: float = DEFAULT_GRACE, max_rounds: Optional[int] = None):
        self.grace = grace
        self.max_rounds = max_rounds

    def run_all(self, bed: Nat444Topology) -> Dict[str, CgnExhaustionResult]:
        tags = bed.tags()
        self._flows = itertools.count(1)
        channel = ManagementChannel(bed.sim)
        daemon = Testrund("server", channel)
        responder = _Responder(bed, CGN_UDP_PORT)
        daemon.register("respond", responder.respond)
        policy = bed.cgn_policy
        results = {
            tag: CgnExhaustionResult(
                tag,
                subscribers=bed.subscribers,
                block_size=policy.block_size,
                pool_ports=policy.pool_ports,
            )
            for tag in tags
        }
        tasks = [
            SimTask(bed.sim, self._segment_task(bed, tag, responder, results[tag]), name=f"cgn_exhaustion:{tag}")
            for tag in tags
        ]
        run_tasks(bed.sim, tasks)
        responder.detach()
        return results

    def _segment_task(
        self, bed: Nat444Topology, tag: str, responder: _Responder, result: CgnExhaustionResult
    ) -> Generator:
        segment = bed.segment(tag)
        policy = bed.cgn_policy
        n = bed.subscribers
        established = [0] * n
        onset: List[Optional[int]] = [None] * n
        sockets = []  # held open: each socket pins one port at both tiers
        # Every subscriber can be refused at most once (it stops at onset),
        # so the pool and the quota bound the ramp; +2 rounds of margin.
        limit = self.max_rounds
        if limit is None:
            limit = min(
                policy.blocks_per_subscriber * policy.block_size,
                policy.pool_ports,
            ) + 2
        rounds = 0
        while rounds < limit and any(o is None for o in onset):
            rounds += 1
            for subscriber in range(1, n + 1):
                if onset[subscriber - 1] is not None:
                    continue
                flow_id = next(self._flows)
                iface = bed.client_iface(tag, subscriber)
                socket = bed.client.udp.bind(0, iface.index)
                arrival = responder.expect(flow_id, timeout=self.grace)
                socket.send_to(flow_id.to_bytes(8, "big"), segment.server_ip, CGN_UDP_PORT)
                endpoint = yield arrival
                if endpoint is None:
                    # The flow died inside the chain: its port block was
                    # refused (cgn.block_exhausted fired) and the opening
                    # packet dropped with cause port_exhausted.
                    onset[subscriber - 1] = established[subscriber - 1] + 1
                    socket.close()
                else:
                    established[subscriber - 1] += 1
                    sockets.append(socket)
        for socket in sockets:
            socket.close()
        result.flows_established = established
        result.blocked_onset = onset
        result.rounds = rounds
        result.fairness = jain_fairness(established)


# ---------------------------------------------------------------------------
# Registry: NAT444 testbed factory, descriptors, report section.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Nat444Knobs:
    """The NAT444 population of every CGN-tier bed; the other tiers' knob classes extend it."""

    cgn_subscribers: int = registry.knob(8, "--subscribers", help="home gateways behind each CGN (default: 8)")
    cgn_block_size: int = registry.knob(16, "--block-size",
                                        help="external ports per CGN allocation block (default: 16)")


def cgn_policy_for(knobs: Nat444Knobs) -> CgnPolicy:
    """The campaign's CGN policy, derived from the survey knobs.

    The pool is sized at two blocks per subscriber — half the default
    four-block quota — so exhaustion is *pool-bound* (the shared-resource
    contention CGN deployments actually hit) rather than an artifact of the
    per-subscriber cap.
    """
    return CgnPolicy(block_size=knobs.cgn_block_size, pool_ports=2 * knobs.cgn_subscribers * knobs.cgn_block_size)


def nat444_factory(knobs: Nat444Knobs):
    """``testbed_factory`` hook: knobs -> ``build(profiles, seed, fastpath)``."""
    policy = cgn_policy_for(knobs)

    def build(profiles, seed, fastpath=True):
        return Nat444Topology.build(
            profiles, seed=seed, subscribers=knobs.cgn_subscribers, cgn_policy=policy, fastpath=fastpath
        )

    return build


def _render_cgn(results) -> Optional[str]:
    timeouts = results.family("cgn_timeouts")
    exhaustion = results.family("cgn_exhaustion")
    if not timeouts and not exhaustion:
        return None
    parts = ["## NAT444: behind a carrier-grade NAT"]
    if timeouts:
        any_result = next(iter(timeouts.values()))
        parts.append(
            f"Effective end-to-end binding timeouts through "
            f"{any_result.subscribers} subscribers sharing one CGN "
            f"(min across tiers, rediscovered by probing):"
        )
        lines = ["| device | UDP eff. timeout [s] | TCP eff. timeout [s] |", "|---|---|---|"]
        for tag in sorted(timeouts):
            cell = timeouts[tag]
            udp_text = f"{median(cell.udp_samples):.1f}" if cell.udp_samples else f">{cell.udp_cutoff:.0f} (censored)"
            tcp_text = f"{median(cell.tcp_samples):.1f}" if cell.tcp_samples else f">{cell.tcp_cutoff:.0f} (censored)"
            lines.append(f"| {tag} | {udp_text} | {tcp_text} |")
        parts.append("\n".join(lines))
    if exhaustion:
        parts.append("Port-block exhaustion under a round-robin subscriber flow ramp:")
        lines = [
            "| device | pool [ports] | flows at exhaustion | first blocked flow | fairness |",
            "|---|---|---|---|---|",
        ]
        for tag in sorted(exhaustion):
            cell = exhaustion[tag]
            onsets = [o for o in cell.blocked_onset if o is not None]
            onset_text = str(min(onsets)) if onsets else "never"
            lines.append(
                f"| {tag} | {cell.pool_ports} | {cell.total_flows} "
                f"| {onset_text} | {cell.fairness:.3f} |"
            )
        parts.append("\n".join(lines))
    return "\n\n".join(parts)


registry.register_family(registry.ExperimentFamily(
    name="cgn_timeouts",
    order=200,
    cell_type=CgnTimeoutResult,
    knobs=Nat444Knobs,
    probe_factory=lambda knobs: CgnTimeoutProbe().run_all,
    testbed_factory=nat444_factory,
    default_selected=False,
))

registry.register_family(registry.ExperimentFamily(
    name="cgn_exhaustion",
    order=210,
    cell_type=CgnExhaustionResult,
    knobs=Nat444Knobs,
    probe_factory=lambda knobs: CgnExhaustionProbe().run_all,
    testbed_factory=nat444_factory,
    default_selected=False,
))

registry.register_section(registry.ReportSection(
    key="cgn", order=95, families=("cgn_timeouts", "cgn_exhaustion"), render=_render_cgn,
))
