#!/usr/bin/env python3
"""Hold a small canonical campaign to its committed digests under five engine variants.

Usage::

    python tools/golden.py            # check every variant against tests/data/golden.json
    python tools/golden.py --update   # rewrite the digests from the reference, staged and traced runs

The golden campaign is declared once, in the ``campaign`` block of
``tests/data/golden.json``: catalog device tags, a seed and the knobs
that keep it small.  It runs every runnable family, opt-in ones included
(derived ``udp4`` comes along).  Each variant runs it into a temporary
store:

* ``reference`` — ``jobs=1``, fast path on, no recorder;
* ``jobs2`` — ``jobs=2``;
* ``staged`` — ``fastpath=False``;
* ``traced`` — ``trace_dir``, ``pcap_dir`` and ``metrics=True``;
* ``resume`` — a copy of the reference store that loses the i-th
  registered family's cell on device ``i mod len(devices)`` (the i-th
  subject's, for a non-device family) and gains a torn ``<cell>.json.tmp``,
  resumed with ``jobs=2``.

Every variant must reproduce the sha256 of each store file and of the
report rendered from the store — and of the report rendered from the
results its ``run()`` returned, so ``run()`` ≡ ``report --from`` holds on
every engine variant — and the traced run one sha256 over its
whole pcap tree (``pcap``: every capture's relative path and bytes, in
path order), which holds every checksum byte on every link.  The
reference and ``jobs2`` runs must also reproduce the fast-path work
counters (``counters.fast``: events and segments per family) and the
staged run the staged ones (``counters.staged``: events per family).  A
recorder pins the staged engine once bring-up is over, so the traced
run's segments must equal the staged events of every family: bring-up
elision is exact.

Prints one line per variant and exits 1, listing every mismatch, when a
gate fails.  ``--update`` refuses to write when the reference, staged
and traced stores differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import shutil
import sys
import tempfile
import time
from typing import Any, Dict, List, Mapping, Optional

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis import render_report  # noqa: E402
from repro.core import SimStats, SurveyResults, SurveyRunner, registry  # noqa: E402
from repro.core.store import CampaignStore  # noqa: E402
from repro.devices import catalog_profiles  # noqa: E402

GOLDEN = ROOT / "tests" / "data" / "golden.json"


def fast_counters(stats: SimStats) -> Dict[str, List[int]]:
    """``{family: [events, segments]}`` — the shape of ``counters.fast``."""
    return {name: [events, stats.family_segments[name]] for name, events in stats.family_events.items()}


#: Each variant: its ``SurveyRunner`` engine keywords, and the golden
#: ``counters`` entry its run must reproduce with the counters it computes.
VARIANTS = (
    ("reference", {}, ("fast", fast_counters)),
    ("jobs2", {"jobs": 2}, ("fast", fast_counters)),
    ("staged", {"fastpath": False}, ("staged", lambda stats: dict(stats.family_events))),
    ("traced", {"metrics": True}, ("staged", lambda stats: dict(stats.family_segments))),
    ("resume", {"resume": True, "jobs": 2}, None),
)


def recorder(work: pathlib.Path) -> Dict[str, str]:
    """The traced variant's recorder directories under ``work``."""
    return {"trace_dir": str(work / "trace"), "pcap_dir": str(work / "pcap")}


def run_campaign(campaign: Mapping[str, Any], store: pathlib.Path, **engine: Any) -> SurveyResults:
    """Run the golden campaign into ``store`` under one engine variant."""
    runner = SurveyRunner(
        profiles=catalog_profiles(campaign["devices"]),
        seed=campaign["seed"],
        store_dir=str(store),
        **engine,
        **campaign["knobs"],
    )
    return runner.run(tests=list(registry.runnable_names()))


def store_digests(root: pathlib.Path) -> Dict[str, str]:
    """The sha256 of every file under a store directory, keyed by its relative path."""
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def tree_digest(root: pathlib.Path) -> str:
    """One sha256 over every file under ``root``: relative path, length and bytes, in path order."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
            digest.update(data)
    return digest.hexdigest()


def report_digest(results: SurveyResults) -> str:
    """The sha256 of the report rendered from a campaign's results."""
    return hashlib.sha256(render_report(results).encode()).hexdigest()


def knock_out(campaign: Mapping[str, Any], store: pathlib.Path) -> None:
    """Delete one cell per registered family and leave a torn write behind, as a killed campaign does."""
    profiles = catalog_profiles(campaign["devices"])
    knobs = registry.resolve_knobs(campaign["knobs"])
    cells = CampaignStore.open(store)
    for index, family in enumerate(registry.families()):
        subjects = family.subjects_of(profiles, family.knobs_of(knobs))
        path = cells.cell_path(subjects[index % len(subjects)].tag, family.name)
        path.unlink()
        if index == 0:
            path.with_name(path.name + ".tmp").write_text('{"torn": ')


def diff_mapping(what: str, golden: Mapping[str, Any], got: Mapping[str, Any]) -> List[str]:
    """One line per key whose value differs between ``golden`` and ``got``."""
    return [
        f"{what} {key}: {got.get(key, 'missing')} != golden {golden.get(key, 'absent')}"
        for key in sorted(golden.keys() | got.keys())
        if golden.get(key) != got.get(key)
    ]


def check(golden: Dict[str, Any], work: pathlib.Path) -> int:
    campaign = golden["campaign"]
    problems: List[str] = []
    for name, engine, counters in VARIANTS:
        store = work / name
        if name == "resume":
            shutil.copytree(work / "reference", store)
            knock_out(campaign, store)
        if name == "traced":
            engine = dict(engine, **recorder(work))
        started = time.perf_counter()
        results = run_campaign(campaign, store, **engine)
        elapsed = time.perf_counter() - started
        found = [f"shard {error}" for error in results.errors]
        found += diff_mapping("file", golden["files"], store_digests(store))
        if report_digest(CampaignStore.open(store).load_results()) != golden["report"]:
            found.append("report sha256 differs")
        if report_digest(results) != golden["report"]:
            found.append("run() report sha256 differs")
        if name == "traced" and tree_digest(work / "pcap") != golden["pcap"]:
            found.append("pcap tree sha256 differs")
        if counters is not None:
            key, compute = counters
            found += diff_mapping(f"counters.{key}", golden["counters"][key], compute(results.stats))
        print(f"{name:<12} {elapsed:6.1f}s  {f'{len(found)} mismatch(es)' if found else 'ok'}", flush=True)
        problems += [f"{name}: {line}" for line in found]
    if problems:
        print("\n".join(problems))
        return 1
    return 0


def update(golden: Dict[str, Any], work: pathlib.Path) -> int:
    campaign = golden["campaign"]
    reference = run_campaign(campaign, work / "reference")
    staged = run_campaign(campaign, work / "staged", fastpath=False)
    traced = run_campaign(campaign, work / "traced", metrics=True, **recorder(work))
    problems = [f"shard {error}" for error in reference.errors + staged.errors + traced.errors]
    files = store_digests(work / "reference")
    problems += diff_mapping("staged file", files, store_digests(work / "staged"))
    problems += diff_mapping("traced file", files, store_digests(work / "traced"))
    if problems:
        print("\n".join(problems + [f"not writing {GOLDEN.relative_to(ROOT)}"]))
        return 1
    golden.update(
        files=files,
        report=report_digest(CampaignStore.open(work / "reference").load_results()),
        pcap=tree_digest(work / "pcap"),
        counters={"fast": fast_counters(reference.stats), "staged": dict(staged.stats.family_events)},
    )
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}: {len(files)} files, {len(reference.stats.family_events)} families")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the digests and counters from the reference, staged and traced runs")
    args = parser.parse_args(argv)
    golden = json.loads(GOLDEN.read_text())
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        return (update if args.update else check)(golden, pathlib.Path(tmp))


if __name__ == "__main__":
    raise SystemExit(main())
