"""Full-duplex point-to-point links.

A :class:`Link` joins two interfaces with independent transmitters per
direction.  Each transmitter serializes frames at the link rate through a
drop-tail queue, then the frame propagates for ``delay`` seconds — the usual
store-and-forward model.  The testbed's "100 Mb/sec Ethernet" links are
``Link(sim, rate_bps=100e6)``.
"""

from __future__ import annotations

import random
from collections import deque
from heapq import heappush
from typing import Any, Optional

from repro.netsim.impair import Impairment, LinkImpairer
from repro.netsim.node import Interface
from repro.netsim.queues import DropTailQueue
from repro.netsim.sim import _COMPACT_MIN_HEAP, Simulation

#: Default transmit-queue size; generous enough that host-side queues are
#: never the bottleneck (the interesting buffers live inside the gateways).
DEFAULT_TX_QUEUE_BYTES = 4 * 1024 * 1024


def frame_wire_size(frame: Any) -> int:
    """Bytes a frame occupies on the wire (delegates to the frame)."""
    size = frame.wire_size()
    if size <= 0:
        raise ValueError(f"frame reports non-positive wire size: {size}")
    return size


class LinkEndpoint:
    """One direction-of-entry into a link: the transmitter at one end.

    Two engines share this transmitter and its timing model:

    * the staged event path (``_start_next``/``_transmission_done``), which
      schedules a serialization-done event and then a delivery event per
      frame — required whenever the link is impaired, severed, or the run
      is being flight-recorded; and
    * the eager fast path, which advances a ``busy_until`` serialization
      frontier in closed form and schedules *one* delivery event per frame.
      The frontier arithmetic is literally the staged path's float
      expressions evaluated early (``start = max(now, busy_until)``;
      ``done = start + tx_time``; ``deliver_at = done + delay``), so the
      delivery instants are bit-identical and the two engines are
      interchangeable mid-run at link-idle boundaries.
    """

    __slots__ = (
        "link",
        "iface",
        "peer",
        "queue",
        "_transmitting",
        "frames_dropped",
        "_busy_until",
        "_pending_frames",
        "_pending_bytes",
        "_inflight",
        "_next_eid",
        "_drain_scheduled",
    )

    def __init__(self, link: "Link", iface: Interface, queue_bytes: int):
        self.link = link
        self.iface = iface
        self.peer: Optional["LinkEndpoint"] = None
        self.queue = DropTailQueue(queue_bytes)
        self._transmitting = False
        #: Frames this transmitter lost: tail drops, flushed-on-sever queue
        #: contents, and frames in flight when the cable was cut.
        self.frames_dropped = 0
        # Eager-kernel state: the serialization frontier, the ledger of
        # accepted-but-not-yet-started frames (for tail-drop accounting),
        # and the registry of in-flight deliveries (voidable by flush).
        self._busy_until = 0.0
        self._pending_frames: deque = deque()  # (eid, start_time, size)
        self._pending_bytes = 0
        self._inflight: dict = {}  # eid -> start_time
        self._next_eid = 0
        self._drain_scheduled = False

    def transmit(self, frame: Any) -> None:
        """Queue a frame for serialization onto the wire."""
        link = self.link
        sim = link.sim
        if (
            sim.fastpath
            and sim.bus is None
            and link.impairer is None
            and not link.broken
            and not self._transmitting
            and self.peer is not None
        ):
            self._transmit_eager(frame, sim)
            return
        if not self.queue.offer(frame, frame_wire_size(frame)):
            self.frames_dropped += 1  # tail drop
            bus = sim.bus
            if bus is not None:
                bus.emit("link.drop", link=link.label, cause="tail_drop")
            return
        if not self._transmitting:
            if self._busy_until > sim.now:
                # Eager frames still own the transmitter; kick the staged
                # engine once the frontier drains (mid-run mode flip, e.g.
                # a trace bus attached while a link was busy).
                if not self._drain_scheduled:
                    self._drain_scheduled = True
                    sim.schedule_at(self._busy_until, self._drain_after_eager)
                return
            self._start_next()

    def _transmit_eager(self, frame: Any, sim) -> None:
        now = sim.now
        size = frame.wire_size()  # the staged offer path keeps the guard
        pending = self._pending_frames
        while pending and pending[0][0] <= now:
            self._pending_bytes -= pending.popleft()[1]
        queue = self.queue
        if self._pending_bytes + size > queue.capacity_bytes:
            queue.dropped += 1
            self.frames_dropped += 1  # tail drop
            return
        link = self.link
        busy = self._busy_until
        start = busy if busy > now else now
        if start <= now:
            sim.fastpath_windows += 1
        done = start + size * 8.0 / link.rate_bps
        self._busy_until = done
        eid = self._next_eid
        self._next_eid = eid + 1
        if start > now:
            pending.append((start, size))
            self._pending_bytes += size
        queue.enqueued += 1
        self._inflight[eid] = (start, done)
        # Inlined sim.schedule_at: ``done + delay >= now`` by construction,
        # so the past-check is redundant on the hottest push in the model.
        heap = sim._heap
        if sim._stale_entries and sim._stale_entries * 2 > len(heap) >= _COMPACT_MIN_HEAP:
            sim._compact()
        heappush(heap, (done + link.delay, next(sim._seq), self._eager_deliver, (frame, eid)))
        sim.fastpath_events_saved += 1  # the staged serialization-done event

    def _eager_deliver(self, frame: Any, eid: int) -> None:
        entry = self._inflight.pop(eid, None)
        if entry is None:
            return  # voided by a crash flush while still queued
        link = self.link
        done = entry[1]
        if (link.broken and done >= link._broken_at) or (
            link._outages and link._severed_at(done)
        ):
            # The cable was cut before this frame finished serializing; the
            # staged engine drops it at its serialization-done event.  The
            # closed-outage check covers a sever()+mend() cycle that both
            # happened before this (later) delivery event fired — the wire
            # was down at the instant the frame would have left it.
            self.frames_dropped += 1
            bus = link.sim.bus
            if bus is not None:
                bus.emit("link.drop", link=link.label, cause="severed")
            return
        link.frames_carried += 1
        self.peer.iface.deliver(frame)

    def _drain_after_eager(self) -> None:
        self._drain_scheduled = False
        if not self._transmitting:
            self._start_next()

    def flush(self) -> None:
        """Discard everything queued for transmission (counted as drops)."""
        flushed = len(self.queue)
        self.frames_dropped += flushed
        self.queue.clear()
        # Void eager frames that have not started serializing yet; a frame
        # already on the wire (started) propagates, exactly as in the staged
        # engine where only *queued* frames are flushed.
        now = self.link.sim.now
        if self._inflight:
            new_busy = now
            for eid, (start, done) in list(self._inflight.items()):
                if start > now:
                    del self._inflight[eid]
                    self.frames_dropped += 1
                    flushed += 1
                elif done > new_busy:
                    new_busy = done  # still serializing; it finishes and propagates
            self._busy_until = new_busy
            self._pending_frames.clear()
            self._pending_bytes = 0
        if flushed:
            bus = self.link.sim.bus
            if bus is not None:
                bus.emit("link.drop", link=self.link.label, cause="flush", count=flushed)

    def _start_next(self) -> None:
        entry = self.queue.poll()
        if entry is None:
            self._transmitting = False
            return
        frame, size = entry
        self._transmitting = True
        tx_time = size * 8.0 / self.link.rate_bps
        sim = self.link.sim
        sim.schedule(tx_time, self._transmission_done, frame)

    def _transmission_done(self, frame: Any) -> None:
        link = self.link
        peer = self.peer
        bus = link.sim.bus
        if peer is None:
            self._start_next()
            return
        if link.broken:
            self.frames_dropped += 1  # in flight when the cable was cut
            if bus is not None:
                bus.emit("link.drop", link=link.label, cause="severed")
        elif link.impairer is None:
            if bus is not None:
                bus.emit("link.tx", link=link.label, size=frame_wire_size(frame), _frame=frame)
            link.sim.schedule(link.delay, peer.iface.deliver, frame)
            link.frames_carried += 1
        else:
            # The frame made it onto the wire; what the impairment stage does
            # to it in flight (loss/corruption/duplication) is the impairer's
            # own story, published from plan_delivery.
            if bus is not None:
                bus.emit("link.tx", link=link.label, size=frame_wire_size(frame), _frame=frame)
            for extra in link.impairer.plan_delivery():
                link.sim.schedule(link.delay + extra, peer.iface.deliver, frame)
                link.frames_carried += 1
        self._start_next()


class Link:
    """A full-duplex wire between exactly two interfaces."""

    def __init__(
        self,
        sim: Simulation,
        rate_bps: float = 100e6,
        delay: float = 50e-6,
        queue_bytes: int = DEFAULT_TX_QUEUE_BYTES,
    ):
        if rate_bps <= 0:
            raise ValueError(f"link rate must be positive, got {rate_bps}")
        if delay < 0:
            raise ValueError(f"link delay must be non-negative, got {delay}")
        self.sim = sim
        self.rate_bps = rate_bps
        self.delay = delay
        self._queue_bytes = queue_bytes
        self.endpoint_a: Optional[LinkEndpoint] = None
        self.endpoint_b: Optional[LinkEndpoint] = None
        self.broken = False
        #: Instant of the most recent :meth:`sever`; eager deliveries whose
        #: serialization finished after this drop, like the staged engine's
        #: broken check at transmission-done.
        self._broken_at = 0.0
        #: Closed ``[sever, mend)`` windows.  An eager delivery event fires
        #: ``delay`` after its serialization-done instant, so an outage that
        #: opened *and* closed in between leaves ``broken`` False by the time
        #: the event runs — these windows are how it still sees the cut.
        self._outages: list = []
        self.frames_carried = 0
        self.impairer: Optional[LinkImpairer] = None
        #: Observability label (``"<device>:<role>"`` in the testbed); names
        #: this link in trace events and pcap files.
        self.label: str = "link"

    def attach(self, iface_a: Interface, iface_b: Interface) -> "Link":
        """Plug both ends in."""
        if self.endpoint_a is not None or self.endpoint_b is not None:
            raise RuntimeError("link already attached")
        if iface_a.attached or iface_b.attached:
            raise RuntimeError("interface already attached to another link")
        self.endpoint_a = LinkEndpoint(self, iface_a, self._queue_bytes)
        self.endpoint_b = LinkEndpoint(self, iface_b, self._queue_bytes)
        self.endpoint_a.peer = self.endpoint_b
        self.endpoint_b.peer = self.endpoint_a
        iface_a.endpoint = self.endpoint_a
        iface_b.endpoint = self.endpoint_b
        return self

    def sever(self) -> None:
        """Cut the cable: queued and in-flight frames are lost (and counted).

        Flushing the transmit queues matters: without it, frames queued during
        an outage would burst out on :meth:`mend`, which no unplugged cable
        ever does.
        """
        if not self.broken:
            # Re-severing an already-cut cable must not move the outage
            # start forward (it would wrongly spare frames cut earlier).
            self._broken_at = self.sim.now
        self.broken = True
        for endpoint in (self.endpoint_a, self.endpoint_b):
            if endpoint is not None:
                endpoint.flush()

    def mend(self) -> None:
        if self.broken:
            self._outages.append((self._broken_at, self.sim.now))
        self.broken = False

    def _severed_at(self, instant: float) -> bool:
        """True when ``instant`` fell inside a closed sever..mend window.

        Half-open ``[sever, mend)``: the staged engine's broken check at a
        serialization-done event scheduled for the mend instant itself runs
        after ``mend()`` (scheduled earlier) has cleared ``broken``.
        """
        for start, end in self._outages:
            if start <= instant < end:
                return True
        return False

    def impair(self, config: Impairment, rng: Optional[random.Random] = None) -> "Link":
        """Install an impairment stage on this link's delivery path.

        ``rng`` must be dedicated to this link (see :func:`impair_seed`); it
        defaults to a fresh RNG seeded from the simulation seed, which is only
        appropriate for single-link setups.  Flap windows are scheduled
        relative to *now*.
        """
        if rng is None:
            rng = random.Random(self.sim.seed)
        self.impairer = LinkImpairer(config, rng)
        self.impairer.link = self  # lets the impairer publish trace events
        if config.flap_at is not None:
            self.sim.schedule(config.flap_at, self.sever)
            self.sim.schedule(config.flap_at + config.flap_for, self.mend)
        return self
