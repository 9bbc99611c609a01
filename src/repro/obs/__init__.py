"""Flight-recorder observability for the simulated testbed.

The paper's conclusions rest on *watching the wire*: NAT rewrites, binding
expiries and queue drops are all things Hätönen et al. established by
inspecting packet traces.  This package gives the reproduction the same
flight-recorder layer — every interesting internal transition is published
as a typed event on a :class:`~repro.obs.bus.TraceBus`, and pluggable sinks
turn the stream into durable, shareable artifacts:

* :class:`~repro.obs.sinks.JsonlTraceSink` — one JSON-lines file per device,
  byte-identical regardless of ``jobs=N`` (the determinism contract of the
  sharded survey extends to its traces);
* :class:`~repro.obs.sinks.PcapSink` — per-link Ethernet captures in classic
  libpcap format, readable in Wireshark/tcpdump;
* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges and
  histograms plus virtual-time spans per measurement family, mergeable
  across survey shards and printed as JSON by ``--metrics``.

The bus is **zero-overhead when disabled**: publishers guard every emission
with a single ``if sim.bus is not None`` check, no event objects are built,
and nothing subscribes.  Enabling observability never changes measurements —
emission is passive (no RNG draws, no scheduling), so a traced campaign is
field-for-field identical to an untraced one.

Typical use::

    from repro.core import SurveyRunner

    runner = SurveyRunner(jobs=4, trace_dir="out/trace",
                          pcap_dir="out/pcap", metrics=True)
    results = runner.run(["udp1", "tcp2"])
    results.metrics.as_dict()          # counters/histograms/spans
    # out/trace/<tag>.jsonl, out/pcap/<tag>.<family>.<role>.pcap

or, one level down, against a single testbed::

    from repro.obs import ObsConfig, ShardObserver

    observer = ShardObserver(ObsConfig(trace_dir="out"), device="je")
    observer.begin(bed, family="udp1")
    ...   # run a probe
    observer.finish(bed, family="udp1")
    observer.close()

Trace files are summarized by ``python -m repro trace`` (see
:mod:`repro.obs.summary`).
"""

from repro.obs.bus import (
    FAULT_BOOT,
    FAULT_CRASH,
    LINK_DROP,
    LINK_DUP,
    LINK_TX,
    NAT_BIND,
    NAT_EXPIRE,
    NAT_FLUSH,
    NAT_REFRESH,
    NAT_REFUSED,
    PKT_DROP,
    PKT_RX,
    PKT_TX,
    TIMER_FIRE,
    TraceBus,
)
from repro.obs.metrics import Histogram, MetricsRegistry, MetricsSink
from repro.obs.session import ObsConfig, ShardObserver
from repro.obs.sinks import JsonlTraceSink, PcapSink
from repro.obs.summary import render_summary, summarize_paths, summarize_trace

__all__ = [
    "TraceBus",
    "JsonlTraceSink",
    "PcapSink",
    "Histogram",
    "MetricsRegistry",
    "MetricsSink",
    "ObsConfig",
    "ShardObserver",
    "summarize_trace",
    "summarize_paths",
    "render_summary",
    "PKT_RX",
    "PKT_TX",
    "PKT_DROP",
    "NAT_BIND",
    "NAT_REFRESH",
    "NAT_EXPIRE",
    "NAT_REFUSED",
    "NAT_FLUSH",
    "LINK_TX",
    "LINK_DROP",
    "LINK_DUP",
    "TIMER_FIRE",
    "FAULT_CRASH",
    "FAULT_BOOT",
]
