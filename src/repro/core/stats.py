"""Lightweight performance counters for the measurement campaign.

:class:`SimStats` aggregates what the simulator core and the campaign driver
already know — events processed, stale-entry purges, wall-clock per
experiment family, split into bed setup and probe — into one block.
:class:`SurveyRunner` attaches it to its results; ``repro survey`` prints
it, and ``tools/golden.py`` holds the per-family work counters of a
canonical campaign to committed values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class SimStats:
    """Counters for one campaign run (or one shard of it)."""

    #: Simulator events processed, summed over every testbed the run built.
    events_processed: int = 0
    #: Heap events the fast path counts as elided (serialization-done
    #: dispatches, deferred timer re-arms).  It overcounts: see
    #: ``family_segments``.
    fastpath_events_saved: int = 0
    #: Idle→busy transitions of the eager kernels (analytic service windows).
    fastpath_windows: int = 0
    #: Wall-clock seconds spent inside the measurement families' probes
    #: (bed setup excluded: see ``family_setup``).
    wall_seconds: float = 0.0
    #: Heap compaction passes run by the schedulers.
    stale_purges: int = 0
    #: Dead heap entries dropped by those passes.
    stale_entries_purged: int = 0
    #: Wall-clock seconds per experiment family, probe only.
    family_wall: Dict[str, float] = field(default_factory=dict)
    #: Wall-clock seconds per experiment family building and bringing up
    #: its beds, before the probe's clock starts.
    family_setup: Dict[str, float] = field(default_factory=dict)
    #: Simulator events per experiment family, bring-up included.
    family_events: Dict[str, int] = field(default_factory=dict)
    #: Work modeled per family: events processed + events the fast path
    #: counts as elided.  It is not engine-independent: a traced run,
    #: which elides only bring-up events, matches the staged engine's
    #: ``family_events`` exactly, but the fast path overcounts them (by 7.9%
    #: on ``tools/golden.py``'s campaign, UDP-only families included).
    #: Compare it only between runs of one engine.
    family_segments: Dict[str, int] = field(default_factory=dict)
    #: Worker processes that executed shards (1 == serial).
    jobs: int = 1

    @property
    def setup_seconds(self) -> float:
        """Wall-clock seconds of bed setup, summed over families."""
        return sum(self.family_setup.values())

    @property
    def events_per_sec(self) -> float:
        """Simulated events per wall-clock second of setup plus probe, the
        time those events ran in (0 when nothing ran)."""
        seconds = self.wall_seconds + self.setup_seconds
        if seconds <= 0:
            return 0.0
        return self.events_processed / seconds

    @property
    def segments_modeled(self) -> int:
        """Total work modeled: events processed plus those counted as elided (see ``family_segments``)."""
        return self.events_processed + self.fastpath_events_saved

    def note_family(
        self, family: str, wall: float, events: int, saved: int = 0, windows: int = 0
    ) -> None:
        """Accumulate one family run's wall time and event counts."""
        self.family_wall[family] = self.family_wall.get(family, 0.0) + wall
        self.family_events[family] = self.family_events.get(family, 0) + events
        self.family_segments[family] = self.family_segments.get(family, 0) + events + saved
        self.events_processed += events
        self.fastpath_events_saved += saved
        self.fastpath_windows += windows

    def note_setup(self, family: str, seconds: float) -> None:
        """Accumulate one bed's build and bring-up time for ``family``."""
        self.family_setup[family] = self.family_setup.get(family, 0.0) + seconds

    def note_run(self, family: str, wall: float, sim) -> None:
        """Accumulate one family run: its wall time and its simulation's counters.

        ``sim`` is the :class:`~repro.netsim.sim.Simulation` the family ran on.
        """
        self.note_family(
            family,
            wall,
            sim.events_processed,
            saved=sim.fastpath_events_saved,
            windows=sim.fastpath_windows,
        )
        self.wall_seconds += wall
        self.stale_purges += sim.stale_purges
        self.stale_entries_purged += sim.stale_entries_purged

    def merge(self, other: "SimStats") -> None:
        """Fold a shard's counters into this aggregate.

        Wall-clock is summed: under parallel execution the aggregate is CPU
        seconds across workers, not elapsed time (the runner records elapsed
        time separately, as ``last_elapsed``).
        """
        self.events_processed += other.events_processed
        self.fastpath_events_saved += other.fastpath_events_saved
        self.fastpath_windows += other.fastpath_windows
        self.wall_seconds += other.wall_seconds
        self.stale_purges += other.stale_purges
        self.stale_entries_purged += other.stale_entries_purged
        for family, wall in other.family_wall.items():
            self.family_wall[family] = self.family_wall.get(family, 0.0) + wall
        for family, seconds in other.family_setup.items():
            self.note_setup(family, seconds)
        for family, events in other.family_events.items():
            self.family_events[family] = self.family_events.get(family, 0) + events
        for family, segments in other.family_segments.items():
            self.family_segments[family] = self.family_segments.get(family, 0) + segments
