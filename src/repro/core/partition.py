"""Conservative parallel simulation of partitionable mega-topologies.

:class:`~repro.core.survey.SurveyRunner` runs every campaign.  With
``partitions=k`` set, each selected partitionable family leaves its
per-device shard plan and runs once through :func:`run_partitioned`.
Where the survey shards *per device* (independent simulations,
embarrassingly parallel), this module cuts **one** simulation into islands
along its boundary links and runs the islands in worker processes that
synchronize in conservative lookahead windows:

* the partitionable family (see
  :attr:`~repro.core.registry.ExperimentFamily.partition_factory`) supplies
  *hooks* — builders for the full single-process topology, for the hub's
  core island, and for each worker's segment island, plus the ``lookahead``
  (the boundary links' propagation delay ``d``) and a virtual ``horizon``
  past which nothing measurable happens;
* the hub (this process) computes the **global event floor** ``M`` — the
  minimum over every island's next event time and every boundary frame
  awaiting injection — and grants every island the window ``[*, M + d)``:
  no frame shipped during that window can arrive before ``M + d``, so no
  island can receive anything that would rewind it (the classic
  conservative-lookahead bound, CMB-style);
* boundary frames travel over pipes as ``(arrival, channel, frame)``
  triples; the hub routes them and, crucially, **sorts every island's
  injections by** ``(arrival, segment index)`` so the injection order is a
  pure function of the frames themselves — independent of how many
  partitions produced them;
* idle stretches collapse: the floor jumps straight to the next event in
  the whole system, so a quiet topology costs rounds proportional to its
  boundary traffic, not to its virtual duration.

The determinism contract is the same one the per-device shard engine and
the eager fastpath already honor, extended across processes: store cells
from ``--partitions 1``, ``2`` and ``4`` are **byte-identical**, and a
partitioned campaign may be resumed by any later run regardless of its
partition count.  ``docs/SCALING.md`` develops the full argument; the
property tests in ``tests/test_partition.py`` enforce it.
"""

from __future__ import annotations

import math
import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core import registry
from repro.core.stats import SimStats
from repro.devices.profile import DeviceProfile

__all__ = ["PartitionError", "PartitionStats", "run_partitioned"]


class PartitionError(RuntimeError):
    """A partitioned run could not start or an island died mid-window."""


@dataclass
class _WorkerSpec:
    """Everything one worker needs to rebuild its island (picklable).

    The worker re-derives its hooks from ``(family, knobs)`` through the
    registry rather than receiving live objects, so the pipe carries only
    plain data and the island is constructed exactly as the hub's
    ``build_segments`` contract describes.
    """

    family: str
    knobs: Any
    #: ``(global segment index, profile)`` pairs, contiguous, ascending.
    numbered: List[Tuple[int, DeviceProfile]]
    worker: int
    seed: int
    fastpath: bool
    family_timeout: Optional[float]


def _frame_key(entry: Tuple[float, str, Any]) -> Tuple[float, int]:
    """Canonical injection order: ``(arrival, global segment index)``.

    The segment index comes from the channel name (``up:7`` / ``down:7``)
    and is compared numerically — string order would put segment 10 before
    segment 2 and silently break partition-count independence.
    """
    arrival, channel, _frame = entry
    return (arrival, int(channel.rsplit(":", 1)[1]))


def _drain_island(island) -> List[Tuple[float, str, Any]]:
    """Collect one island's outbound boundary frames, channel-tagged."""
    out: List[Tuple[float, str, Any]] = []
    for channel, half in island.halves.items():
        for arrival, frame in half.drain_outbound():
            out.append((arrival, channel, frame))
    return out


def _inject(island, frames: Sequence[Tuple[float, str, Any]]) -> None:
    """Inject routed frames into an island, in canonical order."""
    for arrival, channel, frame in sorted(frames, key=_frame_key):
        island.inject_map[channel].inject(arrival, frame)


def _island_stats(island) -> Dict[str, Any]:
    sim = island.sim
    return {
        "events": sim.events_processed,
        "saved": sim.fastpath_events_saved,
        "windows": sim.fastpath_windows,
        "stale_purges": sim.stale_purges,
        "stale_entries_purged": sim.stale_entries_purged,
        "frames_shipped": sum(h.frames_shipped for h in island.halves.values()),
        "frames_dropped": sum(h.frames_dropped for h in island.halves.values()),
        # Whole-process CPU: the worker does nothing but build and run its
        # island, so this is the island's cost on a core of its own — the
        # number the critical-path projection sums (see docs/SCALING.md).
        "cpu_seconds": time.process_time(),
    }


def _partition_worker(conn, spec: _WorkerSpec) -> None:
    """Run one segment island to the hub's drum (worker-process entry).

    Protocol, worker side::

        send ("ready", next_event_time)
        loop:
          recv ("run", bound, frames)  -> inject, run_window(bound),
                                          send ("window", out, next_event_time)
          recv ("collect",)            -> send ("cells", {tag: cell}, stats)
          recv ("stop",)               -> exit without collecting

    Any exception turns into ``("error", type, message, traceback)`` so the
    hub can re-raise with the worker's context instead of hanging.
    """
    try:
        family = registry.family(spec.family)
        hooks = family.partition_factory(spec.knobs)
        island = hooks.build_segments(
            spec.numbered, spec.seed, spec.worker, fastpath=spec.fastpath
        )
        if spec.family_timeout is not None:
            island.sim.watchdog_limit = island.sim.now + spec.family_timeout
        conn.send(("ready", island.sim.next_event_time()))
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "run":
                _, bound, frames = message
                _inject(island, frames)
                island.sim.run_window(bound)
                conn.send(("window", _drain_island(island), island.sim.next_event_time()))
            elif kind == "collect":
                conn.send(("cells", island.collect(), _island_stats(island)))
                return
            elif kind == "stop":
                return
            else:  # pragma: no cover - protocol bug
                raise PartitionError(f"unknown hub message {kind!r}")
    except Exception as exc:  # pragma: no cover - exercised via hub re-raise
        try:
            conn.send(("error", type(exc).__name__, str(exc), traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


@dataclass
class PartitionStats:
    """How the partitioned families of one campaign run were executed.

    Attributes
    ----------
    partitions : int
        Worker processes per family (``1`` = the in-process full build).
    sync_rounds : int
        Lookahead windows the hub granted.
    boundary_frames : int
        Frames shipped across partition boundaries.
    island_cpu_seconds : list of float
        Whole-process CPU seconds per worker island (build + windows +
        collect), one entry per island per family run.
    hub_cpu_seconds : float
        The parent process's CPU seconds: the core island and frame
        routing, or the whole build at ``partitions=1``.
    critical_path_seconds : float
        Per family, hub CPU plus its slowest island's CPU, summed over
        families.  An honest projection of the wall-clock on a host with at
        least ``partitions + 1`` cores: worker islands run concurrently, so
        only the slowest one bounds the run, while the hub's core island
        and routing are serial with every window.  On a single-core host
        the measured wall is instead the *sum* of all islands (plus IPC),
        which is why ``repro survey`` prints both.
    """

    partitions: int
    sync_rounds: int = 0
    boundary_frames: int = 0
    island_cpu_seconds: List[float] = field(default_factory=list)
    hub_cpu_seconds: float = 0.0
    critical_path_seconds: float = 0.0

    def merge(self, other: "PartitionStats") -> None:
        """Fold another family run's record into this one."""
        self.sync_rounds += other.sync_rounds
        self.boundary_frames += other.boundary_frames
        self.island_cpu_seconds.extend(other.island_cpu_seconds)
        self.hub_cpu_seconds += other.hub_cpu_seconds
        self.critical_path_seconds += other.critical_path_seconds


@dataclass
class _PartitionedOutcome:
    """What one partitioned family run hands back to the runner."""

    #: The family's result mapping: one cell per segment, not yet encoded.
    mapping: Dict[str, Any]
    #: The simulation counters :meth:`SimStats.note_run` reads: the full
    #: build's ``Simulation``, or every island's summed into a ``SimStats``.
    counters: Any
    run: PartitionStats


class _Hub:
    """The parent-process side of one partitioned family run.

    Owns the core island (run inline — the hub would otherwise idle while
    workers simulate) and the boundary-frame router.  One instance per
    ``(family, population)``; :meth:`run` drives the whole window protocol
    and returns the merged cells.
    """

    def __init__(
        self,
        family: registry.ExperimentFamily,
        knobs: Any,
        numbered: Sequence[Tuple[int, DeviceProfile]],
        seed: int,
        partitions: int,
        fastpath: bool,
        family_timeout: Optional[float],
    ):
        self.family = family
        self.knobs = knobs
        self.numbered = list(numbered)
        self.seed = seed
        self.partitions = partitions
        self.fastpath = fastpath
        self.family_timeout = family_timeout
        self.hooks = family.partition_factory(knobs)

    def _groups(self) -> List[List[Tuple[int, DeviceProfile]]]:
        """Contiguous, near-equal segment groups, one per worker."""
        count = len(self.numbered)
        workers = min(self.partitions, count)
        bounds = [round(w * count / workers) for w in range(workers + 1)]
        return [self.numbered[bounds[w]:bounds[w + 1]] for w in range(workers)]

    def _owner_of(self, groups) -> Dict[int, int]:
        owners: Dict[int, int] = {}
        for w, group in enumerate(groups):
            for index, _profile in group:
                owners[index] = w
        return owners

    def run(self) -> _PartitionedOutcome:
        """Drive the window protocol to the horizon; return merged cells."""
        hooks = self.hooks
        lookahead = hooks.lookahead
        if not lookahead > 0:
            raise PartitionError(
                f"family {self.family.name!r} reports non-positive lookahead "
                f"{lookahead!r}; boundary links must have real propagation delay"
            )
        core = hooks.build_core(self.numbered, self.seed, fastpath=self.fastpath)
        if self.family_timeout is not None:
            core.sim.watchdog_limit = core.sim.now + self.family_timeout
        groups = self._groups()
        owners = self._owner_of(groups)
        context = multiprocessing.get_context()
        workers: List[Tuple[Any, Any]] = []
        run = PartitionStats(self.partitions)
        outcome = _PartitionedOutcome(mapping={}, counters=SimStats(), run=run)
        hub_cpu_start = time.process_time()
        try:
            for w, group in enumerate(groups):
                spec = _WorkerSpec(
                    family=self.family.name,
                    knobs=self.knobs,
                    numbered=group,
                    worker=w,
                    seed=self.seed,
                    fastpath=self.fastpath,
                    family_timeout=self.family_timeout,
                )
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=_partition_worker, args=(child_conn, spec), daemon=True
                )
                process.start()
                child_conn.close()
                workers.append((process, parent_conn))
            worker_next = [self._recv(conn, "ready")[1] for _proc, conn in workers]
            pending: List[List[Tuple[float, str, Any]]] = [[] for _ in workers]
            while True:
                floor = min(
                    [core.sim.next_event_time()]
                    + worker_next
                    + [entry[0] for frames in pending for entry in frames]
                )
                if floor == math.inf or floor > hooks.horizon:
                    break
                bound = floor + lookahead
                run.sync_rounds += 1
                for w, (_proc, conn) in enumerate(workers):
                    conn.send(("run", bound, sorted(pending[w], key=_frame_key)))
                    pending[w] = []
                core.sim.run_window(bound)
                for entry in _drain_island(core):
                    _arrival, channel, _frame = entry
                    index = int(channel.rsplit(":", 1)[1])
                    pending[owners[index]].append(entry)
                    run.boundary_frames += 1
                inbound: List[Tuple[float, str, Any]] = []
                for w, (_proc, conn) in enumerate(workers):
                    _kind, out, next_t = self._recv(conn, "window")
                    worker_next[w] = next_t
                    inbound.extend(out)
                run.boundary_frames += len(inbound)
                _inject(core, inbound)
            for _proc, conn in workers:
                conn.send(("collect",))
                _kind, cells, raw = self._recv(conn, "cells")
                overlap = set(cells) & set(outcome.mapping)
                if overlap:  # pragma: no cover - builder contract violation
                    raise PartitionError(f"duplicate cells across islands: {sorted(overlap)}")
                outcome.mapping.update(cells)
                run.island_cpu_seconds.append(raw["cpu_seconds"])
                self._fold(outcome.counters, raw)
            self._fold(outcome.counters, _island_stats(core))
            run.hub_cpu_seconds = time.process_time() - hub_cpu_start
            run.critical_path_seconds = run.hub_cpu_seconds + max(run.island_cpu_seconds)
            for process, conn in workers:
                conn.close()
                process.join(timeout=30)
        finally:
            for process, _conn in workers:
                if process.is_alive():  # pragma: no cover - crash cleanup
                    process.terminate()
                    process.join()
        return outcome

    @staticmethod
    def _fold(stats: SimStats, raw: Mapping[str, int]) -> None:
        stats.events_processed += raw["events"]
        stats.fastpath_events_saved += raw["saved"]
        stats.fastpath_windows += raw["windows"]
        stats.stale_purges += raw["stale_purges"]
        stats.stale_entries_purged += raw["stale_entries_purged"]

    @staticmethod
    def _recv(conn, expected: str):
        try:
            message = conn.recv()
        except EOFError as exc:
            raise PartitionError(
                "partition worker died without reporting an error "
                f"(while waiting for {expected!r})"
            ) from exc
        if message[0] == "error":
            _kind, name, text, trace = message
            raise PartitionError(
                f"partition worker failed with {name}: {text}\n{trace}"
            )
        if message[0] != expected:
            raise PartitionError(
                f"protocol error: expected {expected!r}, got {message[0]!r}"
            )
        return message


def _run_single(
    family: registry.ExperimentFamily,
    knobs: Any,
    profiles: Sequence[DeviceProfile],
    seed: int,
    fastpath: bool,
    family_timeout: Optional[float],
) -> _PartitionedOutcome:
    """The ``partitions=1`` reference engine: one simulation, inline."""
    cpu_start = time.process_time()
    bed = family.partition_factory(knobs).build_full(profiles, seed, fastpath=fastpath)
    if family_timeout is not None:
        bed.sim.watchdog_limit = bed.sim.now + family_timeout
    mapping = family.probe_factory(knobs)(bed)
    cpu = time.process_time() - cpu_start
    run = PartitionStats(1, hub_cpu_seconds=cpu, critical_path_seconds=cpu)
    return _PartitionedOutcome(mapping=mapping, counters=bed.sim, run=run)


def run_partitioned(
    family: registry.ExperimentFamily,
    knobs: Any,
    numbered: Sequence[Tuple[int, DeviceProfile]],
    seed: int,
    partitions: int,
    fastpath: bool,
    family_timeout: Optional[float],
) -> _PartitionedOutcome:
    """Run one partitionable family, with its knob instance, once over its ``numbered`` segments.

    ``numbered`` pairs each profile with its 1-based position in the
    campaign population, the global index boundary channels are named by,
    whichever subset of the population runs.  ``partitions=1`` runs the
    family's full single-process build inline, the reference the
    byte-identity tests diff against; ``k >= 2`` cuts the topology across
    ``k`` worker processes.  A worker that dies or reports an error raises
    :class:`PartitionError`.
    """
    if partitions == 1:
        profiles = [profile for _index, profile in numbered]
        return _run_single(family, knobs, profiles, seed, fastpath, family_timeout)
    return _Hub(family, knobs, numbered, seed, partitions, fastpath, family_timeout).run()
