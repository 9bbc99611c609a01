"""Observer sessions: binding the trace bus to testbeds for a whole run.

:class:`ObsConfig` is the picklable description of what to record — it rides
inside the survey's shard config across the process-pool boundary, exactly
like :class:`~repro.netsim.impair.Impairment` does for chaos.
:class:`ShardObserver` is the live counterpart a campaign shard builds
from it: it owns the JSONL/pcap/metrics sinks for one subject's sequence
of measurement families and attaches a fresh
:class:`~repro.obs.bus.TraceBus` to each family's simulation.

Lifecycle for one shard::

    observer = ShardObserver(config, device=tag)
    for family in families:
        bed = build_testbed()
        observer.begin(bed, family)     # bus on, sinks subscribed
        run_probe(bed)
        observer.finish(bed, family)    # bus off, pcaps closed, span noted
    observer.close()                    # JSONL streams closed

The JSONL sink spans families (one file per device for the whole campaign);
pcap sinks are per family (a capture records one testbed's links); the
metrics registry spans the shard and is merged campaign-wide afterwards.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

from repro.obs.bus import TraceBus
from repro.obs.metrics import MetricsRegistry, MetricsSink
from repro.obs.sinks import JsonlTraceSink, PcapSink

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.testbed.testbed import Testbed

__all__ = ["ObsConfig", "ShardObserver"]


@dataclass(frozen=True)
class ObsConfig:
    """What to record.  All-``None``/``False`` (the default) records nothing."""

    #: Directory for per-device JSONL traces, or ``None`` to disable.
    trace_dir: Optional[str] = None
    #: Directory for per-link pcap captures, or ``None`` to disable.
    pcap_dir: Optional[str] = None
    #: Collect a :class:`~repro.obs.metrics.MetricsRegistry`.
    metrics: bool = False

    @property
    def enabled(self) -> bool:
        """True when any sink is requested (an observer is worth building)."""
        return bool(self.trace_dir or self.pcap_dir or self.metrics)

    def under(self, name: str) -> "ObsConfig":
        """The same recording, with its files in subdirectory ``name``."""
        return replace(
            self,
            trace_dir=str(pathlib.Path(self.trace_dir) / name) if self.trace_dir else None,
            pcap_dir=str(pathlib.Path(self.pcap_dir) / name) if self.pcap_dir else None,
        )


class ShardObserver:
    """Live observability session for one campaign shard."""

    def __init__(self, config: ObsConfig, device: Optional[str] = None):
        self.config = config
        self.device = device
        self.registry: Optional[MetricsRegistry] = MetricsRegistry() if config.metrics else None
        self._jsonl: Optional[JsonlTraceSink] = None
        if config.trace_dir is not None:
            self._jsonl = JsonlTraceSink(pathlib.Path(config.trace_dir), default_device=device)
        self._pcap: Optional[PcapSink] = None
        self._bus: Optional[TraceBus] = None
        self._family_started: float = 0.0

    def begin(self, bed: "Testbed", family: str) -> None:
        """Start observing ``bed`` for one measurement family."""
        bus = TraceBus.attach(bed.sim)
        if self._jsonl is not None:
            self._jsonl.family = family
            bus.subscribe(self._jsonl)
        if self.config.pcap_dir is not None:
            self._pcap = PcapSink(pathlib.Path(self.config.pcap_dir), family=family)
            bus.subscribe(self._pcap)
        if self.registry is not None:
            bus.subscribe(MetricsSink(self.registry))
        self._bus = bus
        self._family_started = bed.sim.now

    def finish(self, bed: "Testbed", family: str) -> None:
        """Stop observing after a family run; records its virtual-time span."""
        if self.registry is not None:
            self.registry.record_span(family, bed.sim.now - self._family_started)
            # Fast-path counters land here too, so ``--metrics`` dumps carry
            # them.  On a traced run they stay 0: attaching the bus is what
            # routes every call site back through the staged engine.
            if bed.sim.fastpath_events_saved:
                self.registry.inc("fastpath.events_saved", bed.sim.fastpath_events_saved)
            if bed.sim.fastpath_windows:
                self.registry.inc("fastpath.windows", bed.sim.fastpath_windows)
        if self._pcap is not None:
            self._pcap.close()
            self._pcap = None
        if self._bus is not None:
            # Closing record: the simulator's own counters, so a shipped
            # trace carries its run's engine accounting (fastpath counters
            # accrue only before attach — bring-up — since the bus itself
            # pins the staged engine).
            closing = {
                "events": bed.sim.events_processed,
                "fastpath_saved": bed.sim.fastpath_events_saved,
                "fastpath_windows": bed.sim.fastpath_windows,
            }
            if self.device is not None:
                closing["dev"] = self.device
            self._bus.emit("sim.stats", **closing)
            self._bus.detach()
            self._bus = None

    def close(self) -> None:
        """End the session: close the per-device JSONL streams."""
        if self._pcap is not None:  # defensive: finish() not reached
            self._pcap.close()
            self._pcap = None
        if self._jsonl is not None:
            self._jsonl.close()
