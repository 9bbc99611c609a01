"""Event scheduler and virtual clock.

The simulation core is a classic calendar queue: a binary heap of
``(time, sequence, callback, args)`` entries.  The ``sequence`` counter makes
the ordering total and deterministic — two events scheduled for the same
instant fire in the order they were scheduled, which keeps every run of the
reproduction bit-for-bit repeatable.  Argument tuples are stored directly in
the heap entry (no per-event closure allocation), which matters: a reduced
survey run pushes around a million events.

Time is a float in seconds.  The measurement suite routinely simulates hours
of idle time (TCP binding timeouts run to a 24-hour cutoff), which costs
nothing here: the clock jumps straight to the next event.

Cancelled and restarted timers are lazy: the superseded heap entry stays
queued and is discarded when popped.  The scheduler counts those stale
entries and compacts the heap when more than half of it is dead, so a 24-h
binding-timeout run with millions of re-armed NAT timers keeps its heap (and
its ``heappush`` cost) proportional to the *live* event count.
"""

from __future__ import annotations

import heapq
import itertools
from heapq import heappop, heappush
import random
from typing import Any, Callable, List, Optional, Tuple

#: Never bother compacting heaps smaller than this.
_COMPACT_MIN_HEAP = 64


class WatchdogExpired(RuntimeError):
    """The simulation tried to advance past its virtual-time watchdog limit.

    Campaign shards arm this (see ``SurveyRunner``) so a runaway measurement
    — a probe stuck re-arming timers forever against a crashed gateway —
    fails loudly instead of spinning, and the failure is deterministic: it
    depends only on virtual time, never on wall-clock.
    """


class Timer:
    """A cancellable, reschedulable handle for a pending event.

    ``Timer`` is the workhorse of every timeout in the reproduction: NAT
    binding timers, TCP retransmission timers, DHCP lease timers and the
    measurement sleep timers are all ``Timer`` instances.  A fired or
    cancelled timer can be re-armed with :meth:`restart`.

    Liveness of a heap entry is decided by a generation counter: every
    ``start``/``cancel`` bumps ``_gen``, and an entry only fires when the
    generation it was scheduled with is still current.  (A float-equality
    check on the deadline is not enough — a timer restarted to a coincident
    deadline could be fired by the stale entry.)
    """

    __slots__ = ("_sim", "_callback", "_args", "_deadline", "_alive", "_gen", "_pending")

    def __init__(self, sim: "Simulation", callback: Callable[..., None], *args: Any):
        self._sim = sim
        self._callback = callback
        self._args = args
        self._deadline: Optional[float] = None
        self._alive = False
        #: Generation of the currently armed schedule; heap entries carry the
        #: generation they were scheduled under.
        self._gen = 0
        #: Heap entries (live or stale) still referencing this timer.
        self._pending = 0

    @property
    def deadline(self) -> Optional[float]:
        """Absolute firing time, or ``None`` when not armed."""
        return self._deadline if self._alive else None

    @property
    def armed(self) -> bool:
        """True while the timer is pending."""
        return self._alive

    def start(self, delay: float) -> "Timer":
        """Arm the timer ``delay`` seconds from now; re-arms if already armed."""
        if delay < 0:
            raise ValueError(f"negative timer delay: {delay}")
        if self._alive:
            # The previously scheduled entry is superseded and now stale.
            self._sim._stale_entries += 1
        self._gen += 1
        self._alive = True
        self._deadline = self._sim.now + delay
        self._sim._schedule_abs(self._deadline, self._fire, self._gen)
        self._pending += 1
        return self

    # ``restart`` reads better at call sites that re-arm an existing timer.
    restart = start

    def start_at(self, deadline: float) -> "Timer":
        """Arm the timer at an *absolute* instant.

        The fast-path lazy re-arm pattern (NAT idle timers, TCP
        retransmission timers) precomputes the exact legacy deadline float
        and defers the heap push; when the deferred wake-up finally chases
        the real deadline it must land on the *same* float instant a
        ``restart(deadline - now)`` at activity time would have produced.
        ``start_at`` schedules that instant verbatim instead of round-
        tripping it through ``now + (deadline - now)``, which is not an
        identity under IEEE-754 rounding.
        """
        if deadline < self._sim.now:
            raise ValueError(f"timer deadline in the past: {deadline} < {self._sim.now}")
        if self._alive:
            self._sim._stale_entries += 1
        self._gen += 1
        self._alive = True
        self._deadline = deadline
        self._sim._schedule_abs(deadline, self._fire, self._gen)
        self._pending += 1
        return self

    def cancel(self) -> None:
        """Disarm the timer.  Safe to call on an unarmed timer."""
        if self._alive:
            self._sim._stale_entries += 1
            self._gen += 1  # invalidate the pending heap entry
        self._alive = False
        self._deadline = None

    def _fire(self, gen: int) -> None:
        self._pending -= 1
        if gen != self._gen or not self._alive:
            # Stale entry from a cancelled or restarted schedule.
            self._sim._stale_entries -= 1
            return
        self._alive = False
        self._deadline = None
        bus = self._sim.bus
        if bus is not None:
            bus.emit("timer.fire", cb=getattr(self._callback, "__qualname__", type(self._callback).__name__))
        self._callback(*self._args)


class Simulation:
    """The virtual world: a clock, an event heap, and a seeded RNG.

    All model objects (hosts, links, gateways) hold a reference to the one
    ``Simulation`` they live in and schedule their behaviour through it.

    Everything downstream of a ``Simulation`` is a pure function of its
    ``seed`` plus the model built on top of it: the event heap breaks
    time ties by insertion sequence, and all stochastic decisions draw
    either from ``self.rng`` or from RNGs derived deterministically from
    ``seed`` (per-link impairments, per-shard survey seeds).  That is the
    foundation of the repo-wide ``jobs=N ≡ jobs=1`` contract.

    Observability attaches here: :meth:`repro.obs.TraceBus.attach` sets
    ``self.bus``, and every publisher in the model guards its emission
    with one ``sim.bus is not None`` check — so an unobserved run pays
    one attribute load per would-be event, and an observed run emits
    passively (no RNG draws, no scheduling) and measures identically.
    """

    #: Process-wide count of Simulation constructions.  Test hook for the
    #: zero-resimulation guarantee: ``repro report --from DIR`` must render
    #: without this moving.
    constructed_total = 0

    def __init__(self, seed: int = 0):
        Simulation.constructed_total += 1
        self.now: float = 0.0
        self.seed = seed
        self._heap: List[Tuple[float, int, Callable[..., None], tuple]] = []
        self._seq = itertools.count()
        self.rng = random.Random(seed)
        self.events_processed = 0
        #: Observability hook: a :class:`repro.obs.TraceBus` when the run is
        #: being flight-recorded, else ``None``.  Publishers guard every
        #: emission with an ``is not None`` check, so the disabled path costs
        #: one attribute load per would-be event and allocates nothing.
        self.bus = None
        #: Virtual-time ceiling; processing an event past it raises
        #: :class:`WatchdogExpired`.  ``None`` disables the watchdog.
        self.watchdog_limit: Optional[float] = None
        # Stale-entry bookkeeping (cancelled/restarted timers).
        self._stale_entries = 0
        #: Number of compaction passes run.
        self.stale_purges = 0
        #: Total dead heap entries dropped by compaction.
        self.stale_entries_purged = 0
        #: Master switch for the hybrid flow-level fast path.  When True
        #: (the default), links, the gateway forwarding plane and the
        #: idle-timer machinery advance their state with closed-form
        #: analytic kernels between interesting instants instead of
        #: scheduling every intermediate event.  The kernels execute the
        #: *same* float arithmetic as the staged event path, so results are
        #: bit-identical; publishers that need full event fidelity (an
        #: attached trace bus, impaired links) fall back per call site.
        self.fastpath = True
        #: Heap events the fast path counts as elided (the analytic
        #: kernels' dividend).  ``events_processed + fastpath_events_saved``
        #: is reported as ``segments_modeled``; it overcounts the events
        #: the staged engine runs (see ``SimStats.family_segments``).
        self.fastpath_events_saved = 0
        #: Idle→busy transitions of an analytic kernel (one "window" of
        #: closed-form advance: a link busy run, a forwarding service chain).
        self.fastpath_windows = 0

    @property
    def segments_modeled(self) -> int:
        """Work units modeled: processed events plus the events the analytic
        fast path counts as elided (an overcount; see ``fastpath_events_saved``)."""
        return self.events_processed + self.fastpath_events_saved

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        heap = self._heap
        if self._stale_entries and self._stale_entries * 2 > len(heap) >= _COMPACT_MIN_HEAP:
            self._compact()
        heappush(heap, (self.now + delay, next(self._seq), callback, args))

    def schedule_at(self, when: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at absolute simulated time ``when``."""
        if when < self.now:
            raise ValueError(f"cannot schedule into the past (when={when}, now={self.now})")
        heap = self._heap
        if self._stale_entries and self._stale_entries * 2 > len(heap) >= _COMPACT_MIN_HEAP:
            self._compact()
        heappush(heap, (when, next(self._seq), callback, args))

    def timer(self, callback: Callable[..., None], *args: Any) -> Timer:
        """Create an (unarmed) :class:`Timer` bound to this simulation."""
        return Timer(self, callback, *args)

    def _schedule_abs(self, when: float, callback: Callable[..., None], *args: Any) -> None:
        heap = self._heap
        if self._stale_entries and self._stale_entries * 2 > len(heap) >= _COMPACT_MIN_HEAP:
            self._compact()
        heapq.heappush(heap, (when, next(self._seq), callback, args))

    def _compact(self) -> None:
        """Drop dead timer entries and re-heapify.

        An entry is dead when it belongs to a :class:`Timer` whose generation
        has moved on (cancelled or restarted since it was pushed).  Ordinary
        events are never stale.
        """
        fire = Timer._fire
        live: List[Tuple[float, int, Callable[..., None], tuple]] = []
        dropped = 0
        for entry in self._heap:
            callback = entry[2]
            if getattr(callback, "__func__", None) is fire:
                timer: Timer = callback.__self__
                if entry[3][0] != timer._gen or not timer._alive:
                    timer._pending -= 1
                    dropped += 1
                    continue
            live.append(entry)
        if dropped:
            heapq.heapify(live)
            self._heap[:] = live
            self.stale_purges += 1
            self.stale_entries_purged += dropped
            self._stale_entries -= dropped

    # -- execution --------------------------------------------------------

    def step(self) -> bool:
        """Process one event.  Returns False when the heap is empty."""
        if not self._heap:
            return False
        if self.watchdog_limit is not None and self._heap[0][0] > self.watchdog_limit:
            raise WatchdogExpired(
                f"virtual-time watchdog expired: next event at t={self._heap[0][0]:.3f}s "
                f"is past the limit of {self.watchdog_limit:.3f}s"
            )
        when, _seq, callback, args = heappop(self._heap)
        self.now = when
        self.events_processed += 1
        callback(*args)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Drain the event heap.

        ``until`` stops the clock at an absolute time (pending later events
        stay queued and the clock is advanced to ``until``).  ``max_events``
        guards against runaway models.
        """
        processed = 0
        # The event dispatch below is :meth:`step` inlined (same semantics,
        # watchdog included), as in ``run_tasks``: one Python call per event
        # is measurable across a campaign's millions of events.
        heap = self._heap
        while heap:
            when = heap[0][0]
            if until is not None and when > until:
                self.now = max(self.now, until)
                return
            if max_events is not None and processed >= max_events:
                raise RuntimeError(f"simulation exceeded {max_events} events")
            if self.watchdog_limit is not None and when > self.watchdog_limit:
                self.step()  # raises WatchdogExpired with the canonical message
            when, _seq, callback, args = heappop(heap)
            self.now = when
            self.events_processed += 1
            callback(*args)
            processed += 1
        if until is not None:
            self.now = max(self.now, until)

    def run_for(self, duration: float, max_events: Optional[int] = None) -> None:
        """Advance the clock by ``duration`` seconds."""
        self.run(until=self.now + duration, max_events=max_events)

    @property
    def pending_events(self) -> int:
        """Number of *live* events still queued (stale timer entries excluded)."""
        return len(self._heap) - self._stale_entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulation t={self.now:.6f}s pending={self.pending_events}>"
