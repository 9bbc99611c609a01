"""The workload experiment families: ``workload_mix`` and ``fwcost_scaling``.

Both run over the same :class:`~repro.cgn.topology.Nat444Topology` the CGN
families use (one segment per device profile, ``--subscribers`` homes
each), declared through the registry's ``testbed_factory`` hook.

* **workload_mix** ramps the number of *active* subscribers per segment
  (``--load-ramp``, default powers of two up to ``--subscribers``) and
  runs one application-mix window (``--mix``) per load point, measuring
  goodput, flow-completion-time percentiles, NAT table occupancy at both
  tiers, and CGN port-block pressure.  Windows are spaced closer than the
  CGN's UDP timeout, so churned bindings *accumulate* across the ramp —
  the steady-state peak-hour picture, not a trickle.

* **fwcost_scaling** is the netfilter analogue: a constant-rate echo train
  through subscriber 1 while the home gateway's firewall rule count (and,
  in a second curve, its emulated connection-table size) ramps
  (``--rules``).  Reported per point: delivered throughput inside the
  measurement window and echo RTT statistics — the performance-loss curve
  per gateway profile.

Both are ``default_selected=False``: they belong to the ``--workload``
campaign, not the paper's menu.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cgn.families import Nat444Knobs, nat444_factory
from repro.cgn.topology import Nat444Topology
from repro.core import codec, registry
from repro.core.results import mean
from repro.gateway.forwarding import PER_ENTRY_COST, PER_RULE_COST, REFERENCE_RATE_BPS
from repro.workload.generator import (
    WorkloadGenerator,
    WorkloadServer,
    echo_request,
)
from repro.workload.mixes import MIXES, mix_for

__all__ = [
    "LoadPoint",
    "WorkloadMixResult",
    "WorkloadMixProbe",
    "RulePoint",
    "FwCostResult",
    "FwCostProbe",
    "WorkloadMixKnobs",
    "FwCostKnobs",
    "parse_points",
    "default_load_ramp",
    "scaling_curves",
]

#: One workload measurement window, seconds of offered load.
WINDOW = 2.0
#: Post-window drain grace before sockets close and stats snapshot.
GRACE = 1.0
#: Idle spacing between load points: long enough for gateway queues to
#: drain, short enough (vs. the 120 s CGN UDP timeout) that churned
#: bindings accumulate across the ramp.
QUIESCE = 30.0

#: Default firewall-cost ramp (rules, and separately conntrack entries).
DEFAULT_FW_RAMP = "0,256,1024,4096"
#: Echo offered rate and window for ``fwcost_scaling``.
FW_RATE_PPS = 200.0
FW_WINDOW = 1.0
#: Idle margin between rule points, on top of the point's computed drain
#: time (every echo crosses the gateway twice, each crossing serialized
#: behind the per-packet CPU cost).
FW_GAP = 0.5
FW_PAYLOAD = 256


def parse_points(spec: str, what: str = "ramp") -> List[int]:
    """Parse a ``"1,2,4,8"`` ramp spec into a list of non-negative ints."""
    points: List[int] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            value = int(token)
        except ValueError:
            raise ValueError(f"bad {what} point {token!r} in {spec!r}") from None
        if value < 0:
            raise ValueError(f"negative {what} point {value} in {spec!r}")
        points.append(value)
    if not points:
        raise ValueError(f"empty {what} spec {spec!r}")
    return points


def default_load_ramp(subscribers: int) -> List[int]:
    """Powers of two up to the population: ``8 -> [1, 2, 4, 8]``."""
    ramp = [1]
    while ramp[-1] * 2 <= subscribers:
        ramp.append(ramp[-1] * 2)
    if ramp[-1] != subscribers:
        ramp.append(subscribers)
    return ramp


def _percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile; None on an empty sample set."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(1, int(math.ceil(q * len(ordered))))
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# workload_mix
# ---------------------------------------------------------------------------


@dataclass
class LoadPoint:
    """One (active-subscriber count) point of the offered-load ramp."""

    subscribers: int
    flows: int
    completed: int
    offered_bytes: int
    delivered_bytes: int
    goodput_bps: float
    fct_p50: Optional[float]
    fct_p95: Optional[float]
    fct_p99: Optional[float]
    gw_bindings: int
    cgn_bindings: int
    bindings_created: int
    blocks_in_use: int
    blocks_allocated: int
    refusals: int


@dataclass
class WorkloadMixResult:
    """One device's goodput/FCT/occupancy scaling curve."""

    tag: str
    mix: str
    subscribers: int
    window: float
    points: List[LoadPoint] = field(default_factory=list)


class WorkloadMixProbe:
    """Drive the application-mix ramp over every segment of the bed."""

    def __init__(self, mix_name: str = "residential", ramp_spec: str = ""):
        self.mix_name = mix_name
        self.ramp_spec = ramp_spec

    def run_all(self, bed: Nat444Topology) -> Dict[str, WorkloadMixResult]:
        tags = bed.tags()
        # Flow ids restart per run (trace/pcap determinism, the PR-3 rule).
        self._flows = itertools.count(1)
        mix = mix_for(self.mix_name)
        if self.ramp_spec:
            ramp = parse_points(self.ramp_spec, "load-ramp")
            if any(n < 1 for n in ramp):
                raise ValueError(f"load-ramp points must be >= 1: {self.ramp_spec!r}")
        else:
            ramp = default_load_ramp(bed.subscribers)
        server = WorkloadServer(bed)
        generator = WorkloadGenerator(bed, mix, self._flows)
        t0 = bed.sim.now + 1.0
        period = WINDOW + GRACE + QUIESCE
        for k, subscribers in enumerate(ramp):
            for tag in tags:
                generator.schedule_window(tag, t0 + k * period, WINDOW, subscribers, GRACE)
        bed.sim.run(until=t0 + len(ramp) * period + 1.0)
        server.detach()
        results: Dict[str, WorkloadMixResult] = {}
        for tag in tags:
            result = WorkloadMixResult(
                tag=tag, mix=mix.name, subscribers=bed.subscribers, window=WINDOW
            )
            for window in generator.windows[tag]:
                stats = window.stats
                result.points.append(
                    LoadPoint(
                        subscribers=stats.subscribers,
                        flows=stats.flows,
                        completed=stats.completed,
                        offered_bytes=stats.offered_bytes,
                        delivered_bytes=stats.delivered_bytes,
                        goodput_bps=stats.delivered_bytes * 8.0 / WINDOW,
                        fct_p50=_percentile(stats.fct_samples, 0.50),
                        fct_p95=_percentile(stats.fct_samples, 0.95),
                        fct_p99=_percentile(stats.fct_samples, 0.99),
                        gw_bindings=stats.gw_bindings,
                        cgn_bindings=stats.cgn_bindings,
                        bindings_created=stats.bindings_created,
                        blocks_in_use=stats.blocks_in_use,
                        blocks_allocated=stats.blocks_allocated,
                        refusals=stats.refusals,
                    )
                )
            results[tag] = result
        return results


# ---------------------------------------------------------------------------
# fwcost_scaling
# ---------------------------------------------------------------------------


@dataclass
class RulePoint:
    """One firewall-cost point: a rule count or an emulated table size."""

    rules: int
    entries: int
    per_packet_cost: float
    sent: int
    delivered: int
    throughput_pps: float
    rtt_mean: Optional[float]
    rtt_p95: Optional[float]


@dataclass
class FwCostResult:
    """One device's forwarding-cost curves (rules, then table size)."""

    tag: str
    offered_pps: float
    window: float
    rule_points: List[RulePoint] = field(default_factory=list)
    table_points: List[RulePoint] = field(default_factory=list)


class _FwRun:
    """Client-side state of one segment's echo train across all points."""

    def __init__(self, bed: Nat444Topology, tag: str, flow_id: int, port: int, points: int):
        self.bed = bed
        self.tag = tag
        self.flow_id = flow_id
        self.port = port
        iface = bed.client_iface(tag, 1)
        self.socket = bed.client.udp.bind(0, iface.index)
        self.socket.on_receive = self._on_reply
        self.server_ip = bed.segment(tag).server_ip
        self.sent = [0] * points
        self.delivered = [0] * points
        self.rtt_samples: List[List[float]] = [[] for _ in range(points)]
        self.starts = [0.0] * points
        self.last_arrival: List[Optional[float]] = [None] * points
        #: seq -> (point index, send instant).
        self._pending: Dict[int, tuple] = {}
        self._seqs = itertools.count(0)

    def send(self, point: int) -> None:
        seq = next(self._seqs)
        self._pending[seq] = (point, self.bed.sim.now)
        self.sent[point] += 1
        self.socket.send_to(
            echo_request(self.flow_id, seq, FW_PAYLOAD), self.server_ip, self.port
        )

    def _on_reply(self, payload: bytes, _src_ip, _src_port) -> None:
        if len(payload) < 13 or int.from_bytes(payload[0:8], "big") != self.flow_id:
            return
        seq = int.from_bytes(payload[9:13], "big")
        entry = self._pending.pop(seq, None)
        if entry is None:
            return
        point, sent_at = entry
        now = self.bed.sim.now
        self.delivered[point] += 1
        self.last_arrival[point] = now
        self.rtt_samples[point].append(now - sent_at)

    def throughput(self, point: int) -> float:
        """Steady-state echoes per second: delivered over busy time.

        The busy period runs from the point's first send to its last reply;
        under zero rule cost that is the one-second send window, under a
        binding CPU cost it stretches to the serialized drain — the true
        forwarding capacity either way.
        """
        arrival = self.last_arrival[point]
        if arrival is None:
            return 0.0
        elapsed = max(arrival - self.starts[point], FW_WINDOW)
        return self.delivered[point] / elapsed

    def close(self) -> None:
        self.socket.close()


class FwCostProbe:
    """Echo trains against a ramping rule set / conntrack size per segment."""

    def __init__(self, ramp_spec: str = ""):
        self.ramp_spec = ramp_spec

    def run_all(self, bed: Nat444Topology) -> Dict[str, FwCostResult]:
        from repro.workload.generator import WORKLOAD_PORT

        tags = bed.tags()
        self._flows = itertools.count(1)
        ramp = parse_points(self.ramp_spec or DEFAULT_FW_RAMP, "rules")
        # Two curves over the same ramp values: rules with an empty table,
        # then table size with an empty chain.
        points = [(rules, 0) for rules in ramp] + [(0, entries) for entries in ramp]
        server = WorkloadServer(bed)
        sim = bed.sim
        train = int(FW_RATE_PPS * FW_WINDOW)
        t0 = sim.now + 1.0
        runs: Dict[str, _FwRun] = {}
        tag_costs: Dict[str, List[float]] = {}
        horizon = t0
        for tag in tags:
            run = _FwRun(bed, tag, next(self._flows), WORKLOAD_PORT, len(points))
            runs[tag] = run
            gateway = bed.segment(tag).homes[0].gateway
            engine = gateway.engine
            # The schedule is a function of this tag alone (its own scaled
            # costs): a segment's cell must not depend on which other tags
            # share the shard.
            costs = []
            for rules, entries in points:
                base = rules * PER_RULE_COST + entries * PER_ENTRY_COST
                if base > 0.0 and engine.policy.combined_rate_bps is not None:
                    base *= REFERENCE_RATE_BPS / engine.policy.combined_rate_bps
                costs.append(base)
            tag_costs[tag] = costs
            start = t0
            for index, (rules, entries) in enumerate(points):
                run.starts[index] = start
                sim.schedule_at(start - 0.2, gateway.install_ruleset, rules, entries)
                for i in range(train):
                    sim.schedule_at(start + i / FW_RATE_PPS, run.send, index)
                # Each point is spaced by its own worst-case drain: every
                # echo pays the per-packet cost twice (request up, reply
                # down), serialized on the one CPU.
                start += FW_WINDOW + 2.0 * train * costs[index] + FW_GAP
            # Back to the factory (empty-chain) path once the ramp is done.
            sim.schedule_at(start, gateway.install_ruleset, 0, 0)
            horizon = max(horizon, start)
        sim.run(until=horizon + 0.1)
        server.detach()
        results: Dict[str, FwCostResult] = {}
        for tag in tags:
            run = runs[tag]
            run.close()
            result = FwCostResult(tag=tag, offered_pps=FW_RATE_PPS, window=FW_WINDOW)
            for index, (rules, entries) in enumerate(points):
                samples = run.rtt_samples[index]
                point = RulePoint(
                    rules=rules,
                    entries=entries,
                    per_packet_cost=tag_costs[tag][index],
                    sent=run.sent[index],
                    delivered=run.delivered[index],
                    throughput_pps=run.throughput(index),
                    rtt_mean=mean(samples) if samples else None,
                    rtt_p95=_percentile(samples, 0.95),
                )
                (result.rule_points if index < len(ramp) else result.table_points).append(point)
            results[tag] = result
        return results


# ---------------------------------------------------------------------------
# Registry descriptors, report section, scaling curves.
# ---------------------------------------------------------------------------


def scaling_curves(results) -> Optional[Dict]:
    """The workload scaling curves of a campaign, JSON-ready.

    Built from decoded family results (``SurveyResults``); this is the
    block ``tools/plot_scaling.py`` draws from a store (and ``--json`` emits).
    """
    workload = results.family("workload_mix")
    fwcost = results.family("fwcost_scaling")
    if not workload and not fwcost:
        return None
    return {
        "workload_mix": {
            tag: codec.encode(WorkloadMixResult, cell) for tag, cell in sorted(workload.items())
        },
        "fwcost_scaling": {
            tag: codec.encode(FwCostResult, cell) for tag, cell in sorted(fwcost.items())
        },
    }


def _fmt_ms(value: Optional[float]) -> str:
    return "-" if value is None else f"{value * 1e3:.1f}"


def _render_workload(results) -> Optional[str]:
    workload = results.family("workload_mix")
    fwcost = results.family("fwcost_scaling")
    if not workload and not fwcost:
        return None
    parts = ["## Subscriber workload: application mixes and firewall cost"]
    if workload:
        any_result = next(iter(workload.values()))
        parts.append(
            f"Per-segment offered-load ramp ({any_result.mix!r} mix, "
            f"{any_result.window:.0f} s windows; bindings accumulate across "
            f"points, as on a loaded CGN):"
        )
        lines = [
            "| device | active subs | goodput [Mb/s] | flows done | FCT p95 [ms] "
            "| gw binds | cgn binds | blocks | refusals |",
            "|---|---|---|---|---|---|---|---|---|",
        ]
        for tag in sorted(workload):
            for point in workload[tag].points:
                lines.append(
                    f"| {tag} | {point.subscribers} "
                    f"| {point.goodput_bps / 1e6:.2f} "
                    f"| {point.completed}/{point.flows} "
                    f"| {_fmt_ms(point.fct_p95)} "
                    f"| {point.gw_bindings} | {point.cgn_bindings} "
                    f"| {point.blocks_in_use} | {point.refusals} |"
                )
        parts.append("\n".join(lines))
    if fwcost:
        any_result = next(iter(fwcost.values()))
        parts.append(
            f"Forwarding cost vs. firewall rule count and conntrack size "
            f"({any_result.offered_pps:.0f} pkt/s echo train; the netfilter "
            f"performance-loss curve):"
        )
        lines = [
            "| device | rules | entries | throughput [pkt/s] | RTT mean [ms] | RTT p95 [ms] |",
            "|---|---|---|---|---|---|",
        ]
        for tag in sorted(fwcost):
            cell = fwcost[tag]
            for point in cell.rule_points + cell.table_points:
                lines.append(
                    f"| {tag} | {point.rules} | {point.entries} "
                    f"| {point.throughput_pps:.0f} "
                    f"| {_fmt_ms(point.rtt_mean)} | {_fmt_ms(point.rtt_p95)} |"
                )
        parts.append("\n".join(lines))
    return "\n\n".join(parts)


@dataclass(frozen=True)
class WorkloadMixKnobs(Nat444Knobs):
    """``workload_mix``: the NAT444 population, its application mix and load ramp."""

    workload_mix: str = registry.knob("residential", "--mix", choices=tuple(MIXES),
                                      help="application mix driving workload_mix (default: residential)")
    workload_ramp: str = registry.knob("", "--load-ramp", metavar="N,N,...",
                                       help="active-subscriber counts per workload_mix load point, e.g. 1,2,4,8 "
                                       "(default: powers of two up to --subscribers)")


@dataclass(frozen=True)
class FwCostKnobs(Nat444Knobs):
    """``fwcost_scaling``: the NAT444 population and the firewall rule / conntrack ramp."""

    fw_rules: str = registry.knob("", "--rules", metavar="N,N,...",
                                  help="firewall rule counts (and, in a second curve, conntrack sizes) for "
                                  "fwcost_scaling, e.g. 0,256,1024,4096 (default: 0,256,1024,4096)")


registry.register_family(registry.ExperimentFamily(
    name="workload_mix",
    order=230,
    cell_type=WorkloadMixResult,
    knobs=WorkloadMixKnobs,
    probe_factory=lambda knobs: WorkloadMixProbe(mix_name=knobs.workload_mix, ramp_spec=knobs.workload_ramp).run_all,
    testbed_factory=nat444_factory,
    default_selected=False,
))

registry.register_family(registry.ExperimentFamily(
    name="fwcost_scaling",
    order=240,
    cell_type=FwCostResult,
    knobs=FwCostKnobs,
    probe_factory=lambda knobs: FwCostProbe(ramp_spec=knobs.fw_rules).run_all,
    testbed_factory=nat444_factory,
    default_selected=False,
))

registry.register_section(registry.ReportSection(
    key="workload", order=98, families=("workload_mix", "fwcost_scaling"), render=_render_workload,
))
