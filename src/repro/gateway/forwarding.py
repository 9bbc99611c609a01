"""The gateway forwarding plane: rates, buffers, processing delay.

Each direction (upstream = LAN→WAN, downstream = WAN→LAN) passes through a
token bucket enforcing that direction's forwarding rate, optionally capped
by a *shared* bucket modelling the single forwarding CPU.  Two queueing
disciplines exist, selected by the device profile:

* **split** (default): one drop-tail queue per direction.  Bidirectional
  load contends only for the shared rate.
* **shared**: one FIFO through the forwarding engine for both directions.
  A downstream packet waits behind queued upstream packets, which is what
  makes the paper's weakest devices (ls1, dl10) jump from ~100 ms to
  ~300-400 ms of delay under bidirectional load.

The queue is the "over-dimensioned transmission buffer" of TCP-3: when TCP
pushes faster than the bucket drains, sojourn time here *is* the queuing
delay the payload timestamps measure.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, Optional

from repro.devices.profile import ForwardingPolicy
from repro.netsim.queues import DropTailQueue, TokenBucket
from repro.netsim.sim import Simulation

UPSTREAM = "up"
DOWNSTREAM = "down"
_SHARED = "shared"

#: Token-bucket burst: two full-size frames, small enough that rate
#: enforcement is tight at the timescales the delay test can observe.
BURST_BYTES = 2 * 1600

#: Per-packet CPU cost of one firewall rule, seconds.  Models a netfilter
#: style linear rule scan on an embedded CPE CPU (hundreds of MHz, no
#: flow-offload): a few microseconds per rule per packet, so rule sets in
#: the hundreds visibly bend the forwarding-throughput curve the way the
#: netfilter performance studies measure on real iptables chains.
PER_RULE_COST = 4e-6
#: Per-packet CPU cost of one connection-table entry, seconds.  Models the
#: hash-bucket walk growing with conntrack occupancy — smaller than a rule
#: (the table is hashed, the chain is not) but linear once buckets chain.
PER_ENTRY_COST = 2.5e-6
#: Combined forwarding rate the rule-cost constants are calibrated against.
#: A profile's ``combined_rate_bps`` doubles as its CPU-speed proxy, so a
#: slower box pays proportionally more per rule per packet.
REFERENCE_RATE_BPS = 160e6


class ForwardingEngine:
    """Store-and-forward engine with per-direction or shared queueing."""

    def __init__(self, sim: Simulation, policy: ForwardingPolicy):
        self.sim = sim
        self.policy = policy
        self._buckets = {
            UPSTREAM: TokenBucket(policy.up_rate_bps, BURST_BYTES),
            DOWNSTREAM: TokenBucket(policy.down_rate_bps, BURST_BYTES),
        }
        self._shared_bucket: Optional[TokenBucket] = None
        if policy.combined_rate_bps is not None:
            self._shared_bucket = TokenBucket(policy.combined_rate_bps, BURST_BYTES)
        # The pps cap rides on a TokenBucket by measuring packets in units of
        # one "byte" each: rate_bps = 8 * pps makes the arithmetic line up.
        self._packet_bucket: Optional[TokenBucket] = None
        if policy.pps_limit is not None:
            self._packet_bucket = TokenBucket(policy.pps_limit * 8.0, 2)
        #: Firewall/conntrack cost model (the ``fwcost_scaling`` knob): the
        #: installed rule count, the emulated connection-table size, and the
        #: serialized per-packet CPU they cost.  The cost rides on its own
        #: packets-per-second bucket so it composes with a profile's native
        #: ``pps_limit``; both directions share it, like the one CPU the
        #: rules actually run on.
        self.rule_count = 0
        self.conntrack_entries = 0
        self._cpu_bucket: Optional[TokenBucket] = None
        if policy.shared_queue:
            self._queues: Dict[str, DropTailQueue] = {_SHARED: DropTailQueue(policy.buffer_bytes)}
            self._lanes = (_SHARED,)
        else:
            self._queues = {
                UPSTREAM: DropTailQueue(policy.buffer_bytes),
                DOWNSTREAM: DropTailQueue(policy.buffer_bytes),
            }
            self._lanes = (UPSTREAM, DOWNSTREAM)
        self._pending = {lane: False for lane in self._lanes}
        self.forwarded = {UPSTREAM: 0, DOWNSTREAM: 0}
        self.dropped = {UPSTREAM: 0, DOWNSTREAM: 0}
        #: Observability label (the owning device's tag); names this engine
        #: in ``pkt.drop`` trace events.
        self.label: Optional[str] = None
        # Eager fast-path state.  A lane is eager-capable only when its
        # service order is a pure function of its own token bucket: no
        # shared CPU bucket, no pps cap, split queues.  Those cases couple
        # lanes through bucket state at dispatch instants, which the staged
        # engine resolves by interleaving heap events.
        self._eager_capable = (
            self._shared_bucket is None
            and self._packet_bucket is None
            and self._cpu_bucket is None
            and not policy.shared_queue
        )
        #: Per-lane service frontier: the virtual instant the lane's last
        #: admitted packet consumes its tokens (the staged engine's dispatch
        #: time), advanced in closed form.
        self._frontier = {lane: 0.0 for lane in self._lanes}
        #: Per-lane ledger of admitted-but-not-yet-dispatched packet sizes,
        #: for buffer-occupancy (tail-drop) accounting: (dispatch_t, size).
        self._eager_queued = {lane: deque() for lane in self._lanes}
        self._eager_bytes = {lane: 0 for lane in self._lanes}
        #: Voidable in-flight registry for crash flushes: eid -> entry.
        self._eager_inflight: Dict[int, Any] = {}
        self._next_eid = 0

    def _lane_for(self, direction: str) -> str:
        return _SHARED if self.policy.shared_queue else direction

    def install_ruleset(self, rules: int, conntrack_entries: int = 0) -> None:
        """Install a firewall rule set (and an emulated conntrack load).

        Every forwarded packet then pays a serialized CPU cost of
        ``rules * PER_RULE_COST + conntrack_entries * PER_ENTRY_COST``
        seconds — the linear rule scan plus the table walk — capping the
        box at ``1 / cost`` packets per second across both directions.
        ``install_ruleset(0)`` clears the model.  Install only at quiesced
        instants (no packets queued or in flight): a non-zero cost drops
        the engine to the staged path, whose dispatch arithmetic assumes
        the CPU bucket existed when the queue head was admitted.
        """
        if rules < 0 or conntrack_entries < 0:
            raise ValueError("rule and conntrack counts must be non-negative")
        self.rule_count = int(rules)
        self.conntrack_entries = int(conntrack_entries)
        cost = self.per_packet_cost()
        # pps rides on a TokenBucket via the same 8x trick as pps_limit.
        self._cpu_bucket = TokenBucket(8.0 / cost, 2) if cost > 0.0 else None
        self._eager_capable = (
            self._shared_bucket is None
            and self._packet_bucket is None
            and self._cpu_bucket is None
            and not self.policy.shared_queue
        )

    def per_packet_cost(self) -> float:
        """Seconds of serialized CPU each forwarded packet pays, scaled to
        this box's speed (``combined_rate_bps`` as the CPU proxy)."""
        cost = self.rule_count * PER_RULE_COST + self.conntrack_entries * PER_ENTRY_COST
        if cost > 0.0 and self.policy.combined_rate_bps is not None:
            cost *= REFERENCE_RATE_BPS / self.policy.combined_rate_bps
        return cost

    def forward(self, direction: str, item: Any, size_bytes: int, deliver: Callable[[Any], None]) -> bool:
        """Enqueue ``item``; ``deliver(item)`` fires when it leaves the box.

        Returns False when the buffer tail-dropped the item.
        """
        if direction not in (UPSTREAM, DOWNSTREAM):
            raise ValueError(f"unknown direction {direction!r}")
        lane = self._lane_for(direction)
        sim = self.sim
        if (
            self._eager_capable
            and sim.fastpath
            and sim.bus is None
            and not self._pending[lane]
            and not self._queues[lane]
        ) or self._frontier[lane] > sim.now:
            return self._forward_eager(direction, lane, item, size_bytes, deliver)
        if not self._queues[lane].offer((direction, item, deliver), size_bytes):
            self.dropped[direction] += 1
            bus = self.sim.bus
            if bus is not None:
                # TCP-3's "over-dimensioned transmission buffer" overflowing:
                # the drop cause the paper could only infer, recorded.
                bus.emit("pkt.drop", dev=self.label, cause="queue_full", dir=direction, size=size_bytes)
            return False
        self._pump(lane)
        return True

    def _forward_eager(self, direction: str, lane: str, item: Any, size_bytes: int, deliver: Callable[[Any], None]) -> bool:
        """Admit one packet through the analytic service kernel.

        Evaluates the staged engine's pump/dispatch float arithmetic at
        admission time — same :class:`TokenBucket` calls at the same
        (future) instants, so dispatch and delivery land on bit-identical
        timestamps — and schedules only the delivery event.
        """
        sim = self.sim
        now = sim.now
        ledger = self._eager_queued[lane]
        while ledger and ledger[0][0] <= now:
            self._eager_bytes[lane] -= ledger.popleft()[1]
        queue = self._queues[lane]
        if self._eager_bytes[lane] + size_bytes > queue.capacity_bytes:
            self.dropped[direction] += 1
            queue.dropped += 1
            bus = sim.bus
            if bus is not None:
                bus.emit("pkt.drop", dev=self.label, cause="queue_full", dir=direction, size=size_bytes)
            return False
        base = self._frontier[lane]
        if base <= now:
            base = now
            sim.fastpath_windows += 1
        bucket = self._buckets[direction]
        # The staged engine's pump→dispatch→(repump) chain, eagerly.
        t = base + bucket.delay_until_available(base, size_bytes)
        while not bucket.can_consume(t, size_bytes):
            t = t + bucket.delay_until_available(t, size_bytes)
        # The can_consume that ended the loop refilled the bucket at ``t``.
        bucket.consume_unchecked(size_bytes)
        self._frontier[lane] = t
        if t > now:
            ledger.append((t, size_bytes))
            self._eager_bytes[lane] += size_bytes
        queue.enqueued += 1
        self.forwarded[direction] += 1
        eid = self._next_eid
        self._next_eid = eid + 1
        self._eager_inflight[eid] = (direction, t)
        sim.schedule_at(t + self.policy.base_delay, self._eager_deliver, deliver, item, eid)
        sim.fastpath_events_saved += 1  # the staged dispatch event
        return True

    def _eager_deliver(self, deliver: Callable[[Any], None], item: Any, eid: int) -> None:
        if self._eager_inflight.pop(eid, None) is None:
            return  # voided by a crash flush while still queued
        deliver(item)

    def queue_depth_bytes(self, direction: str) -> int:
        lane = self._lane_for(direction)
        ledger = self._eager_queued[lane]
        now = self.sim.now
        while ledger and ledger[0][0] <= now:
            self._eager_bytes[lane] -= ledger.popleft()[1]
        return self._queues[lane].occupied_bytes + self._eager_bytes[lane]

    def flush(self) -> None:
        """Drop everything queued in the forwarding plane (crash/reboot).

        Pending dispatch events fire harmlessly on the emptied queues; the
        dropped packets are counted against their original direction.
        """
        bus = self.sim.bus
        flushed = {UPSTREAM: 0, DOWNSTREAM: 0}
        for queue in self._queues.values():
            while True:
                entry = queue.poll()
                if entry is None:
                    break
                (direction, _item, _deliver), _size = entry
                self.dropped[direction] += 1
                flushed[direction] += 1
        # Void eager admissions that have not reached their dispatch instant
        # — the staged engine would still hold them in the queue.  Their
        # delivery events become no-ops and their forwarded count unwinds
        # (it was taken optimistically at admission).
        now = self.sim.now
        if self._eager_inflight:
            for eid, (direction, t) in list(self._eager_inflight.items()):
                if t > now:
                    del self._eager_inflight[eid]
                    self.forwarded[direction] -= 1
                    self.dropped[direction] += 1
                    flushed[direction] += 1
            # The frontier (== each bucket's last-refill instant) stays put:
            # winding it back would send the token buckets' clocks backwards.
            for lane in self._lanes:
                self._eager_queued[lane].clear()
                self._eager_bytes[lane] = 0
        if bus is not None:
            for direction, count in flushed.items():
                if count:
                    bus.emit("pkt.drop", dev=self.label, cause="flush", dir=direction, count=count)

    # -- internal ------------------------------------------------------------

    def _head_delay(self, lane: str) -> Optional[float]:
        """Seconds until the head of ``lane`` has tokens in every bucket it
        must pass; None when the lane is empty."""
        queue = self._queues[lane]
        size = queue.peek_size()
        if size is None:
            return None
        direction = queue._items[0][0][0]
        delay = self._buckets[direction].delay_until_available(self.sim.now, size)
        if self._shared_bucket is not None:
            delay = max(delay, self._shared_bucket.delay_until_available(self.sim.now, size))
        if self._packet_bucket is not None:
            delay = max(delay, self._packet_bucket.delay_until_available(self.sim.now, 1))
        if self._cpu_bucket is not None:
            delay = max(delay, self._cpu_bucket.delay_until_available(self.sim.now, 1))
        return delay

    def _pump(self, lane: str) -> None:
        if self._pending[lane]:
            return
        delay = self._head_delay(lane)
        if delay is None:
            return
        self._pending[lane] = True
        self.sim.schedule(delay, self._dispatch, lane)

    def _dispatch(self, lane: str) -> None:
        self._pending[lane] = False
        queue = self._queues[lane]
        size = queue.peek_size()
        if size is None:
            return
        direction = queue._items[0][0][0]
        now = self.sim.now
        bucket = self._buckets[direction]
        # Another lane may have drained the shared bucket since the delay
        # was computed; check both before consuming either.
        if (
            not bucket.can_consume(now, size)
            or (self._shared_bucket is not None and not self._shared_bucket.can_consume(now, size))
            or (self._packet_bucket is not None and not self._packet_bucket.can_consume(now, 1))
            or (self._cpu_bucket is not None and not self._cpu_bucket.can_consume(now, 1))
        ):
            self._pump(lane)
            return
        # The can_consume checks above refilled every bucket at ``now``;
        # consume without refilling a second time at the same instant.
        bucket.consume_unchecked(size)
        if self._shared_bucket is not None:
            self._shared_bucket.consume_unchecked(size)
        if self._packet_bucket is not None:
            self._packet_bucket.consume_unchecked(1)
        if self._cpu_bucket is not None:
            self._cpu_bucket.consume_unchecked(1)
        entry = queue.poll()
        if entry is None:  # pragma: no cover - defensive
            return
        (_direction, item, deliver), _size = entry
        self.forwarded[direction] += 1
        self.sim.schedule(self.policy.base_delay, deliver, item)
        self._pump(lane)
