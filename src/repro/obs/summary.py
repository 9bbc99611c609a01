"""Summarize JSONL trace files (the ``python -m repro trace`` subcommand).

A traced campaign leaves one ``<tag>.jsonl`` per device; this module reads
them back and answers the debugging questions a flight recorder exists for:
what happened to each device (event counts per kind), why packets died
(drop causes), and how long NAT bindings lived (from ``nat.expire``
lifetimes).  Everything is derived from the trace alone, so summaries work
on files shipped from another machine or another run.
"""

from __future__ import annotations

import json
import pathlib
import statistics
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

__all__ = ["summarize_trace", "summarize_paths", "render_summary"]

PathLike = Union[str, pathlib.Path]

#: Traversal-experiment event kinds surfaced as their own summary block:
#: a trace of a STUN/hole-punch/relay run answers "did the punch go out,
#: did anything come back, did we fall back?" at a glance.
_TRAVERSAL_KINDS = (
    "stun.request",
    "stun.response",
    "punch.tx",
    "punch.rx",
    "relay.fallback",
)


def summarize_trace(path: PathLike, device: Optional[str] = None) -> Dict[str, Any]:
    """Summarize one JSONL trace file into a JSON-safe dict.

    ``device`` names the summary (default: the file's stem).
    """
    events: Dict[str, int] = {}
    drops: Dict[str, int] = {}
    lifetimes: List[float] = []
    families: Dict[str, int] = {}
    span = [None, None]  # first/last timestamp
    total = 0
    sim_events = 0
    fastpath_saved = 0
    fastpath_windows = 0
    with open(path, encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            total += 1
            kind = record.get("kind", "?")
            events[kind] = events.get(kind, 0) + 1
            family = record.get("family")
            if family:
                families[family] = families.get(family, 0) + 1
            if kind.endswith(".drop") or kind == "nat.refused":
                cause = record.get("cause", "?")
                drops[cause] = drops.get(cause, 0) + int(record.get("count", 1))
            elif kind == "nat.expire" and "lifetime" in record:
                lifetimes.append(float(record["lifetime"]))
            elif kind == "sim.stats":
                # Closing record each observed family writes: the engine's
                # own counters (heap events, fast-path elisions).
                sim_events += int(record.get("events", 0))
                fastpath_saved += int(record.get("fastpath_saved", 0))
                fastpath_windows += int(record.get("fastpath_windows", 0))
            t = record.get("t")
            if t is not None:
                span[0] = t if span[0] is None else min(span[0], t)
                span[1] = t if span[1] is None else max(span[1], t)
    summary: Dict[str, Any] = {
        "device": device if device is not None else pathlib.Path(path).stem,
        "records": total,
        "events": dict(sorted(events.items())),
        "families": dict(sorted(families.items())),
        "drop_causes": dict(sorted(drops.items())),
        "virtual_span_seconds": None if span[0] is None else round(span[1] - span[0], 6),
    }
    traversal = {kind: events[kind] for kind in _TRAVERSAL_KINDS if kind in events}
    if traversal:
        summary["traversal"] = traversal
    if sim_events or fastpath_saved or fastpath_windows:
        summary["sim"] = {
            "events_processed": sim_events,
            "segments_modeled": sim_events + fastpath_saved,
            "fastpath_events_saved": fastpath_saved,
            "fastpath_windows": fastpath_windows,
        }
    if lifetimes:
        summary["binding_lifetimes_s"] = {
            "count": len(lifetimes),
            "min": round(min(lifetimes), 6),
            "median": round(statistics.median(lifetimes), 6),
            "max": round(max(lifetimes), 6),
        }
    return summary


def _expand(paths: Iterable[PathLike]) -> List[Tuple[pathlib.Path, str]]:
    """Resolve files and directories to ``(file, device name)`` pairs.

    A directory contributes its sorted ``*.jsonl`` files and then those one
    level down: a traced campaign of non-device subjects (traversal pairs)
    keeps each subject's files in their own subdirectory, and their devices
    are named ``<subject>/<device>``.
    """
    files: List[Tuple[pathlib.Path, str]] = []
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            for file in sorted(path.glob("*.jsonl")) + sorted(path.glob("*/*.jsonl")):
                files.append((file, file.relative_to(path).with_suffix("").as_posix()))
        else:
            files.append((path, path.stem))
    return files


def summarize_paths(paths: Iterable[PathLike]) -> List[Dict[str, Any]]:
    """Summarize every trace file named by ``paths`` (dirs are expanded)."""
    return [summarize_trace(path, device) for path, device in _expand(paths)]


def render_summary(summaries: List[Dict[str, Any]]) -> str:
    """Human-readable rendering of :func:`summarize_paths` output."""
    lines: List[str] = []
    for summary in summaries:
        lines.append(f"{summary['device']}: {summary['records']} events"
                     + (f" over {summary['virtual_span_seconds']:.3f}s virtual"
                        if summary["virtual_span_seconds"] is not None else ""))
        if summary["families"]:
            per_family = "  ".join(f"{name}:{count}" for name, count in summary["families"].items())
            lines.append(f"  families     {per_family}")
        for kind, count in summary["events"].items():
            lines.append(f"  {kind:<15}{count}")
        if summary["drop_causes"]:
            causes = "  ".join(f"{cause}:{count}" for cause, count in summary["drop_causes"].items())
            lines.append(f"  drop causes  {causes}")
        traversal = summary.get("traversal")
        if traversal:
            lines.append(
                "  traversal    "
                f"stun req/resp {traversal.get('stun.request', 0)}/{traversal.get('stun.response', 0)}  "
                f"punch tx/rx {traversal.get('punch.tx', 0)}/{traversal.get('punch.rx', 0)}  "
                f"relay fallbacks {traversal.get('relay.fallback', 0)}"
            )
        sim = summary.get("sim")
        if sim:
            lines.append(
                f"  simulator    {sim['segments_modeled']} segments modeled "
                f"({sim['events_processed']} heap events, "
                f"{sim['fastpath_events_saved']} elided in {sim['fastpath_windows']} fast-path windows)"
            )
        lifetimes = summary.get("binding_lifetimes_s")
        if lifetimes:
            lines.append(
                f"  bindings     {lifetimes['count']} expired; lifetime "
                f"min/median/max = {lifetimes['min']:.1f}/{lifetimes['median']:.1f}/{lifetimes['max']:.1f} s"
            )
    return "\n".join(lines)
