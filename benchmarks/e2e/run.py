"""Campaign benchmark: run the workloads, print every metric, check outputs.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload W] [--seed 42] [--seconds S] [--trace 0|1]

Each workload runs in a fresh child interpreter (``harness.py``) on one
process at ``jobs=1``.  The script prints each workload's metrics by name
and unit (and, with ``--trace 1``, its per-layer table), writes one
self-describing result JSON, and prints as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
``end_to_end`` metrics of ``BENCHMARK.json``, or its ``per_layer`` metrics
under ``--trace 1``.  It exits non-zero when an output differs from the
committed digests or between passes.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

E2E = pathlib.Path(__file__).resolve().parent
ROOT = E2E.parents[1]
OUT_DIR = E2E / "out"
#: A workload child that runs longer than this is killed.
CHILD_TIMEOUT_S = 170
ESTIMATOR = (
    "closed loop, one process, jobs=1, PYTHONHASHSEED=0. Each run makes the workload's fixed number of "
    "whole passes. Every interval is scaled to the nominal host by reference samples taken just before "
    "and after it (an integer loop for simulation and set-up, JSON decoding for reports). "
    "campaign_s is the sum over shards of each shard's median across passes, plus the median time "
    "outside shards; shard_p50_ms is the median over every shard of every pass; report_s, store and "
    "render times are the median of 5 reports per pass, pooled; setup_s is the median of 7 fresh "
    "interpreters (spawn to import repro.cli and a built SurveyRunner) plus the median run() start "
    "to first shard."
)


def load_benchmark() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_commit() -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_stamp() -> Dict[str, Any]:
    model = None
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_model": model or platform.processor() or platform.machine(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def run_workload(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    """Run one workload's child interpreter and return its result object."""
    work = OUT_DIR / f"work-{os.getpid()}-{name}"
    command = [
        sys.executable, str(E2E / "harness.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--trace", str(args.trace),
        "--work", str(work),
    ]
    if args.trace:
        command += ["--trace-out", str(OUT_DIR / f"trace_{name}.json")]
    if args.update_digests:
        command.append("--update-digests")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), str(E2E), env.get("PYTHONPATH")]))
    # One string-hash layout for every run: with a random one per process,
    # the fastest of 20 reports of one store ranged 6.1-9.1 ms over eight
    # processes, and 6.5-7.4 ms with this fixed one.
    env["PYTHONHASHSEED"] = "0"
    # Its own process group, so a timeout also stops the setup probes it spawns.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"workload {name}: child exited {proc.returncode} without a result") from None


def describe(metrics: Dict[str, Any], declared: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """Attach each metric's direction and bound from BENCHMARK.json."""
    out = {}
    for name, metric in metrics.items():
        entry = dict(metric)
        spec = declared.get(name)
        if spec is not None:
            if spec["unit"] != metric["unit"]:
                raise SystemExit(f"metric {name}: harness unit {metric['unit']!r}, BENCHMARK.json {spec['unit']!r}")
            entry["better"] = spec["better"]
            if "bound" in spec:
                entry["bound"] = spec["bound"]
        out[name] = entry
    return out


def in_declared_order(metrics: Dict[str, Any], order: List[str]) -> List[str]:
    """Metric names in BENCHMARK.json order, then the others by name."""
    rank = {name: i for i, name in enumerate(order)}
    return sorted(metrics, key=lambda name: (rank.get(name, len(rank)), name))


def print_table(result: Dict[str, Any], order: List[str]) -> None:
    print(
        f"== {result['workload']}  seed {result['seed']}  passes {result['passes']}"
        f"{' + ' + str(result['traced_passes']) + ' traced' if result['traced_passes'] else ''}"
        f"  shards {result['shards']}  cells {result['cells']}"
        f"  fastpath share {result['engine']['fastpath_share']:.3f}"
        f"  reference {'yes' if result['reference'] else 'no'}"
    )
    for name in in_declared_order(result["metrics"], order):
        metric = result["metrics"][name]
        note = metric.get("label") or (f"n={metric['samples']}" if "samples" in metric else "")
        bound = f"bound {metric['bound']:.0%}" if "bound" in metric else ""
        print(f"  {name:<16} {metric['value']:>14.6f} {metric['unit']:<6} {note:<8} {bound}")
    if "layers" in result:
        print("  -- per layer (traced passes; counters from untraced passes)")
        for name in in_declared_order(result["layers"], order):
            metric = result["layers"][name]
            print(f"  {name:<28} {metric['value']:>16.6f} {metric['unit']}")
    for subject, family, reason in result["mismatches"][:20]:
        print(f"  MISMATCH {subject}/{family}: {reason}")
    for error in result["shard_errors"][:20]:
        print(f"  SHARD ERROR {error}")


def contract_line(results: List[Dict[str, Any]], bench: Dict[str, Any], trace: int) -> Dict[str, Any]:
    """The last stdout line: the BENCHMARK.json metrics of the run."""
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    metrics: Dict[str, Any] = {}
    for result in results:
        source = result["layers"] if trace else result["metrics"]
        prefix = "" if len(results) == 1 else result["workload"] + "."
        for spec in wanted:
            metric = source[spec["name"]]
            metrics[prefix + spec["name"]] = {"value": metric["value"], "unit": metric["unit"]}
    return {
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    bench = load_benchmark()
    names = [workload["name"] for workload in bench["workloads"]]
    parser = argparse.ArgumentParser(description="Campaign benchmark (see benchmarks/e2e/README.md).")
    parser.add_argument("--workload", action="append", help=f"one of {', '.join(names)} or smoke; repeatable")
    parser.add_argument("--seed", type=int, default=42)
    # The common benchmark command line passes the nominal run length; it is
    # recorded, and changes nothing: each workload's pass count fixes the
    # work of a run, so that runs of two commits do the same work.
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"],
                        help="nominal run length (BENCHMARK.json run_seconds); recorded only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add traced passes, print per-layer tables and write Chrome traces to out/")
    parser.add_argument("--result", type=pathlib.Path, default=OUT_DIR / "result.json")
    parser.add_argument("--update-digests", action="store_true",
                        help="rewrite digests/<workload>.json from this run (seed 42 only)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.update_digests and args.seed != 42:
        parser.error("--update-digests needs --seed 42, the reference seed")
    selected = args.workload or names
    for name in selected:
        if name not in names and name != "smoke":
            parser.error(f"unknown workload {name!r}; choose from {', '.join(names)} or smoke")

    specs = bench["end_to_end"] + bench["per_layer"]
    declared = {spec["name"]: spec for spec in specs}
    started = time.time()
    results = []
    for name in selected:
        result = run_workload(name, args)
        result["metrics"] = describe(result["metrics"], declared)
        if "layers" in result:
            result["layers"] = describe(result["layers"], declared)
        print_table(result, [spec["name"] for spec in specs])
        results.append(result)

    why = {workload["name"]: workload["why"] for workload in bench["workloads"]}
    document = {
        "benchmark": "benchmarks/e2e",
        "started_unix": started,
        "host": host_stamp(),
        "git_commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "jobs": 1,
        "trace": args.trace,
        "estimator": ESTIMATOR,
        "workloads": {result["workload"]: dict(result, why=why.get(result["workload"])) for result in results},
    }
    args.result.parent.mkdir(parents=True, exist_ok=True)
    args.result.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.result}")
    line = contract_line(results, bench, args.trace)
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
