"""Simulator-core performance smoke bench.

Times a canned single-device TCP bulk transfer — the hot path the survey
spends most of its wall-clock in — and dumps events/sec plus scheduler
health counters as a ``BENCH_core.json`` payload under the test's
temporary directory, so a run leaves the tree untouched.  Unlike the
figure benches this one asserts nothing about the paper; it only guards
the engine's throughput.
"""

from __future__ import annotations

import json

from repro.core.stats import write_bench_json
from repro.core.store import SCHEMA_VERSION, campaign_fingerprint
from repro.core.throughput import ThroughputProbe
from repro.devices import catalog_profiles
from repro.testbed import Testbed

TRANSFER_BYTES = 512 * 1024


def _run_transfer():
    """One TCP-2 upload/download/bidir run through a single mid-range device."""
    profile = next(p for p in catalog_profiles() if p.tag == "dl1")
    bed = Testbed.build([profile], seed=0)
    probe = ThroughputProbe(transfer_bytes=TRANSFER_BYTES)
    results = probe.run_all(bed)
    return bed.sim, results[profile.tag]


def test_tcp_transfer_event_rate(benchmark, tmp_path):
    sim_holder = {}

    def run():
        sim, result = _run_transfer()
        sim_holder["sim"] = sim
        return result

    result = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)

    # Sanity: the transfer actually moved data in all four directions.
    assert result.upload is not None and result.upload.bytes_moved >= TRANSFER_BYTES
    assert result.download is not None
    assert result.upload_bidir is not None and result.download_bidir is not None

    sim = sim_holder["sim"]
    wall = benchmark.stats.stats.mean
    profile = next(p for p in catalog_profiles() if p.tag == "dl1")
    payload = {
        "bench": "tcp2_single_device_transfer",
        "schema_version": SCHEMA_VERSION,
        "config_hash": campaign_fingerprint([profile], 0, {"transfer_bytes": TRANSFER_BYTES}),
        "transfer_bytes": TRANSFER_BYTES,
        "events_processed": sim.events_processed,
        "segments_modeled": sim.segments_modeled,
        "fastpath_events_saved": sim.fastpath_events_saved,
        "fastpath_windows": sim.fastpath_windows,
        "wall_seconds_mean": wall,
        "events_per_sec": sim.events_processed / wall if wall > 0 else 0.0,
        "stale_purges": sim.stale_purges,
        "stale_entries_purged": sim.stale_entries_purged,
        "throughput_mbps": result.as_mbps(),
    }
    dump = tmp_path / "BENCH_core.json"
    write_bench_json(dump, payload)
    assert json.loads(dump.read_text())["events_processed"] > 0
