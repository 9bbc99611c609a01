"""One workload of the campaign benchmark, in a fresh interpreter.

``run.py`` starts this script once per workload.  It drives the public
campaign API the way ``repro survey --out DIR`` and then ``repro report
--from DIR`` do, for whole passes, and prints one JSON line: the metrics,
the correctness verdict and the raw per-pass numbers behind them.

Each pass builds the workload's ``SurveyRunner`` with a fresh store under
the work directory, times ``run()``, then times ``CampaignStore.open`` +
``load_results`` + ``render_report``.  The only hook in an untraced pass
is a wrapper around ``SurveyRunner.run_shard``: a ``perf_counter`` pair,
and before it a reference sample when the last one is 0.2 s old, so
every time can be scaled to the nominal host (``estimate.HostSpeed``).
With ``--trace 1`` every untraced pass is followed by a traced one, which
also wraps the bed builders and the store and runs the CPU sampler.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from estimate import INTERPRETER, JSON_DECODE, HostSpeed, per_key_median, self_times, sum_of_medians, tail_percentile
from tracing import LAYERS, Patches, Recorder, Sampler, write_chrome_trace
from workloads import WORKLOADS, Workload, build_runner

from repro.analysis import render_report
from repro.cgn.topology import Nat444Topology
from repro.core import registry
from repro.core.store import CampaignStore, subject_dirname
from repro.core.survey import SurveyRunner
from repro.testbed.testbed import Testbed
from repro.traversal.matrix import PairTopology

DIGEST_DIR = pathlib.Path(__file__).resolve().parent / "digests"
#: The seed the committed per-cell digests were taken at.
REFERENCE_SEED = 42
#: Fresh interpreters timed from spawn to a built runner, per run.
SETUP_PROBES = 7
#: Reports rendered per pass.  A report takes milliseconds on most
#: workloads, so one sample per pass would be mostly noise.
REPORT_REPEATS = 5
#: A setup probe: built runner, then, untimed, the probe's reference sample.
PROBE_CODE = (
    "import sys, repro.cli\n"
    "from workloads import WORKLOADS, build_runner\n"
    "build_runner(WORKLOADS[sys.argv[1]], int(sys.argv[2]), None)\n"
    "print('ready', flush=True)\n"
    "from estimate import reference_sample\n"
    "print(reference_sample(loops=9), flush=True)\n"
)
#: Bed builder class -> the layer name its spans are reported under.
BUILDERS = {Testbed: "testbed", Nat444Topology: "cgn", PairTopology: "traversal"}
SHARD_SPAN = "SurveyRunner.run_shard"
#: Span name -> the per-layer time metrics its self time adds to.  A
#: ``build`` span contains its ``bring_up``, so build time is construction only.
SPAN_METRICS = {
    f"{cls.__name__}.{attr}": (f"bed.{attr}_s", f"{kind}.{attr}_s")
    for cls, kind in BUILDERS.items()
    for attr in ("build", "bring_up")
}
SPAN_METRICS["CampaignStore.save_cell"] = ("store.save_s",)


def probe_setup(workload: Workload, seed: int) -> Dict[str, float]:
    """Seconds from spawning an interpreter to its built ``SurveyRunner``.

    ``setup_s`` is on the nominal host, scaled by the reference sample the
    probe takes after it is ready.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", PROBE_CODE, workload.name, str(seed)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        reference = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe exited {code} after printing {line!r}")
    return {"wall_s": elapsed, "setup_s": elapsed * INTERPRETER.nominal_s / float(reference)}


def cell_key(tag: str, family: str) -> str:
    return f"{subject_dirname(tag)}/{family}"


def timed_report(recorder: Recorder, speed: HostSpeed, store_dir: pathlib.Path) -> Dict[str, Any]:
    """``repro report --from store_dir``, minus the file write; times and digest."""
    top = recorder.begin("report")
    index = recorder.begin("report.open")
    store = CampaignStore.open(store_dir)
    recorder.end(index)
    load = recorder.begin("report.load")
    loaded = store.load_results()
    recorder.end(load)
    render = recorder.begin("report.render")
    text = render_report(loaded, title=f"Home gateway survey ({len(store.devices())} devices)")
    recorder.end(render)
    recorder.end(top)
    speed.sample()
    spans = recorder.spans
    return {
        "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "report_s": speed.seconds(*spans[top][1:3]),
        "report_load_s": speed.seconds(*spans[load][1:3]),
        "report_render_s": speed.seconds(*spans[render][1:3]),
    }


def run_pass(workload: Workload, seed: int, store_dir: pathlib.Path, traced: bool) -> Dict[str, Any]:
    """One campaign + reports, timed; returns the pass record."""
    recorder = Recorder()
    sampler = Sampler() if traced else None
    speed = HostSpeed(INTERPRETER, pause=sampler)
    report_speed = HostSpeed(JSON_DECODE, pause=sampler)
    shard_calls: List[tuple] = []
    patches = Patches()

    def shard_hook(func):
        @functools.wraps(func)
        def run_shard(self, tests=None, subject=None):
            speed.maybe_sample()
            shard_calls.append((subject.tag, tuple(tests)))
            recorder.shard = subject.tag
            index = recorder.begin(SHARD_SPAN)
            try:
                return func(self, tests, subject=subject)
            finally:
                recorder.end(index)
                recorder.shard = None

        return run_shard

    patches.wrap(SurveyRunner, "run_shard", shard_hook)
    if traced:
        for owner in BUILDERS:
            patches.span(recorder, owner, "build")
            patches.span(recorder, owner, "bring_up")
        for attr in ("create_or_open", "save_cell", "load_results"):
            patches.span(recorder, CampaignStore, attr)
    runner = build_runner(workload, seed, str(store_dir))
    try:
        if sampler is not None:
            sampler.start()
        speed.sample()
        campaign = recorder.begin("campaign")
        results = runner.run(list(workload.families))
        recorder.end(campaign)
        speed.sample()
        report_speed.sample()
        reports = [timed_report(recorder, report_speed, store_dir) for _ in range(REPORT_REPEATS)]
    finally:
        if sampler is not None:
            sampler.stop()
        patches.restore()

    spans = [tuple(span) for span in recorder.spans]
    shards: Dict[str, float] = {}
    shard_wall_s = 0.0
    first_shard: Optional[float] = None
    for name, start, end, _parent, shard in spans:
        if name == SHARD_SPAN:
            shards[shard] = shards.get(shard, 0.0) + speed.seconds(start, end)
            shard_wall_s += end - start
            if first_shard is None:
                first_shard = start
    _name, campaign_start, campaign_end, _parent, _shard = spans[campaign]
    campaign_wall_s = campaign_end - campaign_start
    # Time in run() outside shards, less the reference samples taken there.
    outside_wall_s = campaign_wall_s - shard_wall_s - speed.spent(campaign_start, campaign_end)
    if first_shard is None:
        first_shard = campaign_end
    lag_wall_s = first_shard - campaign_start - speed.spent(campaign_start, first_shard)
    outside_factor = speed.factor(campaign_start, campaign_end)

    cells: Dict[str, str] = {}
    store_bytes = 0
    for path in sorted((store_dir / CampaignStore.CELL_DIR).glob("*/*.json")):
        data = path.read_bytes()
        cells[f"{path.parent.name}/{path.stem}"] = hashlib.sha256(data).hexdigest()
        store_bytes += len(data)
    planned = set()
    for tag, tests in shard_calls:
        for name in tests:
            planned.add(cell_key(tag, name))
            planned.update(cell_key(tag, derived.name) for derived in registry.derived_families(name))

    stats = results.stats
    # Every time below is on the nominal host (see estimate.HostSpeed),
    # except the ``*_wall_s`` ones.
    record: Dict[str, Any] = {
        "campaign_wall_s": campaign_wall_s,
        "shard_wall_s": shard_wall_s,
        "campaign_s": math.fsum(shards.values()) + outside_wall_s * outside_factor,
        "shards": shards,
        "first_shard_lag_s": lag_wall_s * speed.factor(campaign_start, first_shard),
        "outside_shards_s": outside_wall_s * outside_factor,
        "reference_s": [seconds for _start, _end, seconds in speed.samples],
        "report_s": [r["report_s"] for r in reports],
        "report_load_s": [r["report_load_s"] for r in reports],
        "report_render_s": [r["report_render_s"] for r in reports],
        "cells": cells,
        "planned": sorted(planned),
        "store_bytes": store_bytes,
        # Every repeat must render the same bytes; a disagreement reads as
        # a report mismatch.
        "report_digest": "|".join(sorted({r["digest"] for r in reports})),
        "shard_errors": [str(error) for error in results.errors],
        "counters": {
            "events": stats.events_processed,
            "segments": stats.segments_modeled,
            "fastpath_saved": stats.fastpath_events_saved,
            "fastpath_windows": stats.fastpath_windows,
            "stale_purged": stats.stale_entries_purged,
        },
        "probe_s": math.fsum(stats.family_wall.values()) * outside_factor,
    }
    if traced:
        record["spans"] = spans
        record["span_self_s"] = [
            seconds * speed.factor(start, end)
            for (_name, start, end, _parent, _shard), seconds in zip(spans, self_times(spans))
        ]
        record["samples"] = dict(sampler.counts)
    return record


def check_outputs(passes: List[Dict[str, Any]], reference: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Compare every pass with the reference digests and with the first pass."""
    base = passes[0]
    attempted = failed = 0
    mismatches: List[List[str]] = []
    for number, record in enumerate(passes, start=1):
        expected = set(record["planned"]) | set(record["cells"])
        if reference is not None:
            expected |= set(reference["cells"])
        for key in sorted(expected):
            got = record["cells"].get(key)
            if got is None:
                reason = "missing (shard failed)"
            elif reference is not None and reference["cells"].get(key) != got:
                reason = "differs from reference"
            elif base["cells"].get(key) != got:
                reason = "differs from pass 1"
            else:
                continue
            subject, _, family = key.partition("/")
            mismatches.append([subject, family, f"pass {number}: {reason}"])
        # The rendered report counts as one more output per pass.
        digest = record["report_digest"]
        if reference is not None and reference["report"] != digest:
            mismatches.append(["report", "-", f"pass {number}: differs from reference"])
        elif digest != base["report_digest"]:
            mismatches.append(["report", "-", f"pass {number}: differs from pass 1"])
        attempted += len(expected) + 1
    return {"attempted": attempted, "failed": len(mismatches), "mismatches": mismatches}


def across(records: List[Dict[str, Any]], key: str) -> float:
    """Median of ``key`` over the passes; list values are pooled."""
    values: List[float] = []
    for record in records:
        value = record[key]
        values.extend(value if isinstance(value, list) else [value])
    return statistics.median(values)


def campaign_estimate(records: List[Dict[str, Any]]) -> float:
    """Sum over shards of each shard's median pass, plus the median time outside shards."""
    return sum_of_medians([r["shards"] for r in records]) + across(records, "outside_shards_s")


def end_to_end(plain: List[Dict[str, Any]], probes: List[Dict[str, float]], check: Dict[str, Any]) -> Dict[str, Any]:
    every_shard_ms = [value * 1000.0 for r in plain for value in r["shards"].values()]
    shard_ms = [value * 1000.0 for value in per_key_median([r["shards"] for r in plain]).values()]
    setup_s = statistics.median(p["setup_s"] for p in probes) + across(plain, "first_shard_lag_s")
    metrics = {
        "campaign_s": {"value": campaign_estimate(plain), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "report_s": {"value": across(plain, "report_s"), "unit": "s"},
        "shard_p50_ms": {"value": statistics.median(every_shard_ms), "unit": "ms", "samples": len(every_shard_ms)},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        "error_rate": {"value": check["failed"] / check["attempted"], "unit": "share"},
    }
    tail = tail_percentile(shard_ms)
    if tail is not None:
        metrics["shard_tail_ms"] = {"value": tail[1], "unit": "ms", "label": f"p{tail[0]}"}
    return metrics


def per_layer(plain: List[Dict[str, Any]], traced: List[Dict[str, Any]], campaign_s: float) -> Dict[str, Any]:
    """Span, sample and counter metrics; span times use the per-shard-median estimator."""
    by_shard: List[Dict[str, Dict[str, float]]] = []
    for record in traced:
        sample: Dict[str, Dict[str, float]] = {}
        for (name, _start, _end, _parent, shard), seconds in zip(record["spans"], record["span_self_s"]):
            for metric in SPAN_METRICS.get(name, ()):
                bucket = sample.setdefault(metric, {})
                bucket[shard] = bucket.get(shard, 0.0) + seconds
        by_shard.append(sample)

    layers: Dict[str, Dict[str, Any]] = {}

    def put(name: str, value: float, unit: str) -> None:
        layers[name] = {"value": value, "unit": unit}

    first = plain[0]
    put("survey.shards", len(first["shards"]), "count")
    put("survey.outside_shards_s", across(plain, "outside_shards_s"), "s")
    for metric in dict.fromkeys(m for metrics in SPAN_METRICS.values() for m in metrics):
        put(metric, sum_of_medians([sample.get(metric, {}) for sample in by_shard]), "s")
    span_names = [span[0] for span in traced[0]["spans"]]
    builds = {kind: span_names.count(f"{cls.__name__}.build") for cls, kind in BUILDERS.items()}
    put("bed.builds", sum(builds.values()), "count")
    for kind, count in builds.items():
        put(f"{kind}.builds", count, "count")
    put("store.cells", len(first["cells"]), "count")
    put("store.bytes", first["store_bytes"], "bytes")
    put("store.load_s", across(traced, "report_load_s"), "s")
    put("analysis.render_s", across(traced, "report_render_s"), "s")
    counters = first["counters"]
    for name in ("events", "segments", "fastpath_saved", "fastpath_windows", "stale_purged"):
        put(f"netsim.{name}", counters[name], "count")
    put("netsim.fastpath_share", counters["fastpath_saved"] / max(1, counters["segments"]), "share")
    put("core.probe_s", across(plain, "probe_s"), "s")
    totals = dict.fromkeys(LAYERS, 0)
    for record in traced:
        for layer, count in record["samples"].items():
            totals[layer] += count
    samples = sum(totals.values())
    for layer in LAYERS:
        put(f"cpu.{layer}", totals[layer] / max(1, samples), "share")
    put("cpu.samples", samples, "count")
    put("trace.overhead", campaign_estimate(traced) / campaign_s - 1.0, "share")
    coverage = min(r["shard_wall_s"] / r["campaign_wall_s"] for r in traced)
    put("trace.shard_coverage", coverage, "share")
    return layers


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--trace-out", type=pathlib.Path)
    parser.add_argument("--work", type=pathlib.Path, required=True)
    parser.add_argument("--update-digests", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    digest_path = DIGEST_DIR / f"{workload.name}.json"
    reference = None
    if args.seed == REFERENCE_SEED and digest_path.exists() and not args.update_digests:
        reference = json.loads(digest_path.read_text())

    origin = time.perf_counter()
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    # Setup probes are spread between the passes, so they sample the host
    # at different moments.
    probes = [probe_setup(workload, args.seed)]
    args.work.mkdir(parents=True, exist_ok=True)
    try:
        for round_number in range(1, workload.passes + 1):
            for is_traced, records in ((False, plain), (True, traced))[: 1 + args.trace]:
                store_dir = args.work / f"pass{len(plain) + len(traced)}"
                record = run_pass(workload, args.seed, store_dir, is_traced)
                record["index"] = len(records) + 1
                records.append(record)
                shutil.rmtree(store_dir)
            if len(probes) < SETUP_PROBES:
                probes.append(probe_setup(workload, args.seed))
            elapsed = time.perf_counter() - origin
            print(f"[{workload.name}] round {round_number}: {elapsed:.1f} s", file=sys.stderr, flush=True)
        while len(probes) < SETUP_PROBES:
            probes.append(probe_setup(workload, args.seed))
    finally:
        shutil.rmtree(args.work, ignore_errors=True)

    check = check_outputs(plain + traced, reference)
    shard_errors = sorted({error for record in plain + traced for error in record["shard_errors"]})
    metrics = end_to_end(plain, probes, check)
    counters = plain[0]["counters"]
    out: Dict[str, Any] = {
        "workload": workload.name,
        "seed": args.seed,
        "passes": len(plain),
        "traced_passes": len(traced),
        "measured_s": time.perf_counter() - origin,
        "shards": len(plain[0]["shards"]),
        "cells": len(plain[0]["cells"]),
        "reference": reference is not None,
        "correct": check["failed"] == 0,
        "attempted": check["attempted"],
        "failed": check["failed"],
        "mismatches": check["mismatches"],
        "shard_errors": shard_errors,
        "engine": {"fastpath_share": counters["fastpath_saved"] / max(1, counters["segments"])},
        "counters": counters,
        "metrics": metrics,
        "raw": {
            "setup_probes": probes,
            "campaign_wall_s": [r["campaign_wall_s"] for r in plain],
            "reference_s": [r["reference_s"] for r in plain],
            "shards_s": [r["shards"] for r in plain],
            "campaign_s": [r["campaign_s"] for r in plain],
            "traced_campaign_s": [r["campaign_s"] for r in traced],
            "report_s": [r["report_s"] for r in plain],
            "outside_shards_s": [r["outside_shards_s"] for r in plain],
            "first_shard_lag_s": [r["first_shard_lag_s"] for r in plain],
        },
    }
    if traced:
        out["layers"] = per_layer(plain, traced, metrics["campaign_s"]["value"])
        if args.trace_out is not None:
            args.trace_out.parent.mkdir(parents=True, exist_ok=True)
            write_chrome_trace(args.trace_out, traced, origin)
    if args.update_digests:
        if not out["correct"]:
            print(f"[{workload.name}] passes disagree; digests not written", file=sys.stderr)
            return 1
        reference = {
            "workload": workload.name,
            "seed": args.seed,
            "report": plain[0]["report_digest"],
            "cells": plain[0]["cells"],
        }
        digest_path.parent.mkdir(parents=True, exist_ok=True)
        digest_path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        print(f"[{workload.name}] wrote {digest_path.name}", file=sys.stderr)
    print(json.dumps(out, sort_keys=True))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
