"""Benchmark-side spans and a CPU sampler for the campaign benchmark.

Nothing here touches ``src/``: spans come from wrappers installed at class
level around public calls for the length of one pass and removed after it,
and CPU time comes from a ``SIGPROF`` sampler that charges each sample to
the innermost ``repro.*`` frame on the stack.  So time spent in the
standard library or in C goes to the program layer that called it.
"""

from __future__ import annotations

import functools
import json
import signal
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Module prefix -> layer.  The longest matching prefix wins; modules
#: outside ``repro`` and unlisted ``repro`` modules count as ``other``.
LAYER_OF_MODULE: Dict[str, str] = {
    "repro.netsim.sim": "netsim.sim",
    "repro.netsim.link": "netsim.link",
    "repro.netsim.queues": "netsim.queues",
    "repro.netsim.switch": "netsim.switch",
    "repro.netsim.impair": "netsim.impair",
    "repro.netsim": "netsim.other",
    "repro.gateway.nat": "gateway.nat",
    "repro.gateway.translation": "gateway.nat",
    "repro.gateway.icmp_translation": "gateway.nat",
    "repro.gateway.forwarding": "gateway.forwarding",
    "repro.gateway": "gateway.other",
    "repro.cgn": "cgn",
    "repro.protocols.tcp": "protocols.tcp",
    "repro.protocols.dhcp": "protocols.dhcp",
    "repro.protocols": "protocols.other",
    "repro.packets": "packets",
    "repro.core.runtime": "core.runtime",
    "repro.core.survey": "core.campaign",
    "repro.core.parallel": "core.campaign",
    "repro.core.store": "core.campaign",
    "repro.core.registry": "core.campaign",
    "repro.core.stats": "core.campaign",
    "repro.core": "core.probes",
    "repro.testbed": "testbed",
    "repro.traversal": "traversal",
    "repro.attack": "attack",
    "repro.workload": "workload",
    "repro.analysis": "analysis",
}

#: Every layer a sample can land in, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(LAYER_OF_MODULE.values())) + ("other",)


def layer_of(module: str) -> str:
    """The layer a module's samples are charged to."""
    name = module
    while name:
        layer = LAYER_OF_MODULE.get(name)
        if layer is not None:
            return layer
        name = name.rpartition(".")[0]
    return "other"


def attribute(frame) -> str:
    """Layer of the innermost ``repro.*`` frame at or above ``frame``."""
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module.startswith("repro."):
            return layer_of(module)
        frame = frame.f_back
    return "other"


class Sampler:
    """Counts ``ITIMER_PROF`` samples per layer while running."""

    def __init__(self, interval: float = 0.002):
        self.interval = interval
        self.counts: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        #: While set, samples are dropped (the harness's own timing loops).
        self.paused = False
        self._previous = None

    def _on_sample(self, _signum, frame) -> None:
        if not self.paused:
            self.counts[attribute(frame)] += 1

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)


#: One span: ``[name, start, end, parent_index, shard_tag]``.
Span = List[Any]


class Recorder:
    """In-memory spans of one pass; the enclosing shard tag is the span id."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.shard: Optional[str] = None

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.shard])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()


def _traced(recorder: Recorder, name: str, func: Callable) -> Callable:
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        index = recorder.begin(name)
        try:
            return func(*args, **kwargs)
        finally:
            recorder.end(index)

    return wrapper


class Patches:
    """Class-level wrappers, installed for one pass and then removed."""

    def __init__(self) -> None:
        self._saved: List[Tuple[type, str, Any]] = []

    def wrap(self, owner: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def span(self, recorder: Recorder, owner: type, attr: str) -> None:
        name = f"{owner.__name__}.{attr}"
        self.wrap(owner, attr, lambda func: _traced(recorder, name, func))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def write_chrome_trace(path, passes: List[Dict[str, Any]], origin: float) -> None:
    """Write the traced passes' spans as Chrome trace-event JSON, one row per pass."""
    events: List[Dict[str, Any]] = []
    for tid, record in enumerate(passes, start=1):
        spans = record["spans"]
        events.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                       "args": {"name": f"pass {record['index']}"}})
        for name, start, end, parent, shard in spans:
            events.append({
                "name": name,
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"shard": shard, "parent": spans[parent][0] if parent is not None else None},
            })
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
