"""Compare result files of a parent commit and a change, pair by pair.

Usage::

    python3 benchmarks/e2e/compare.py PARENT.json... -- CHANGE.json...

Each argument is a result JSON written by ``run.py --result``.  The i-th
parent and the i-th change form a pair; run them alternately, switching
which side goes first, with the same benchmark code and settings.  At
least ten pairs are needed.  For every workload and end-to-end metric the
script prints both sides' medians and quartiles, the share of pairs the
change wins (ties count for neither side) and a verdict:

* ``improved``: the change wins at least 9 pairs in 10 and its median
  beats the parent's by more than the parent's quartile spread;
* ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved``: the parent's own quartile spread is wider than the bound,
  unless every change run beats every parent run;
* ``unchanged``: otherwise.

A change with more failed outputs than its parent gets no ``improved``.
Exits 1 when any metric regressed, and 2 without a verdict when the
results of a workload were made with different numbers of passes.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
from typing import Dict, List, Optional, Sequence

ROOT = pathlib.Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def verdict(parent: Sequence[float], change: Sequence[float], better: str, bound: float) -> Dict[str, object]:
    """Verdict of one workload x metric over paired runs."""
    sign = 1.0 if better == "lower" else -1.0
    p1, pmed, p3 = statistics.quantiles(parent, n=4)
    c1, cmed, c3 = statistics.quantiles(change, n=4)
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    worse = sign * (cmed - pmed) / pmed
    spread = (p3 - p1) / pmed
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if wins >= WIN_SHARE * len(parent) and sign * (pmed - cmed) > p3 - p1:
        outcome = "improved"
    elif worse > bound:
        outcome = "regressed"
    elif spread > bound and not all_better:
        outcome = "unresolved"
    else:
        outcome = "unchanged"
    return {
        "parent": (p1, pmed, p3),
        "change": (c1, cmed, c3),
        "win_share": wins / len(parent),
        "worse_by": worse,
        "verdict": outcome,
    }


def load(paths: Sequence[str]) -> List[Dict]:
    return [json.loads(pathlib.Path(path).read_text()) for path in paths]


def values(results: List[Dict], workload: str, metric: str) -> Optional[List[float]]:
    out = []
    for result in results:
        entry = result["workloads"].get(workload, {}).get("metrics", {}).get(metric)
        if entry is None:
            return None
        out.append(entry["value"])
    return out


def failed(results: List[Dict], workload: str) -> int:
    return sum(result["workloads"][workload]["failed"] for result in results)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    parent, change = load(argv[:split]), load(argv[split + 1:])
    if len(parent) != len(change) or len(parent) < MIN_PAIRS:
        print(f"need the same number of parent and change results, at least {MIN_PAIRS} each; "
              f"got {len(parent)} and {len(change)}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w for w in parent[0]["workloads"] if all(w in r["workloads"] for r in parent + change)]
    # Results made over other pass counts are different measurements.
    for workload in workloads:
        counts = {(r["workloads"][workload]["passes"], r["workloads"][workload]["traced_passes"])
                  for r in parent + change}
        if len(counts) > 1:
            print(f"{workload}: results differ in (passes, traced passes): {sorted(counts)}", file=sys.stderr)
            return 2
    regressed = False
    line = "{:<14} {:<14} {:<32} {:<32} {:>5} {:>7}  {}"
    print(line.format("workload", "metric", "parent median [q1, q3]", "change median [q1, q3]",
                      "wins", "worse", "verdict"))
    for workload in workloads:
        more_failures = failed(change, workload) > failed(parent, workload)
        for spec in bench["end_to_end"]:
            p = values(parent, workload, spec["name"])
            c = values(change, workload, spec["name"])
            if p is None or c is None:
                continue
            row = verdict(p, c, spec["better"], spec["bound"])
            if more_failures and row["verdict"] == "improved":
                row["verdict"] = "unchanged (more failures)"
            regressed |= row["verdict"] == "regressed"
            p1, pm, p3 = row["parent"]
            c1, cm, c3 = row["change"]
            print(line.format(workload, spec["name"], f"{pm:.5g} [{p1:.5g}, {p3:.5g}]",
                              f"{cm:.5g} [{c1:.5g}, {c3:.5g}]", f"{row['win_share']:.0%}",
                              f"{row['worse_by']:+.1%}", row["verdict"]))
        if more_failures:
            print(f"{workload}: failed outputs, parent {failed(parent, workload)}, change {failed(change, workload)}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
