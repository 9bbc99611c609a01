"""Self-tests of the campaign benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import pathlib
import random
import subprocess
import sys
import time

import pytest

from compare import main as compare_main
from compare import verdict
from estimate import (
    INTERPRETER,
    HostSpeed,
    nearest_rank,
    per_key_median,
    self_times,
    sum_of_medians,
    tail_percentile,
)
from harness import check_outputs
from tracing import LAYERS, Sampler, attribute, layer_of

E2E = pathlib.Path(__file__).resolve().parent
ROOT = E2E.parents[1]


# -- estimator -----------------------------------------------------------------


def bimodal_pass(fast, rng, slow_factor=1.9, burst=4):
    """One pass's scaled shard times on a host that runs slow in bursts of shards.

    Each shard is bracketed by reference samples that slow down with it,
    give or take 5%, as on the host the references were chosen on.
    """
    speed = HostSpeed(INTERPRETER)
    clock, slow, left, spans = 0.0, False, 0, {}
    for tag, base in fast.items():
        if left == 0:
            slow, left = rng.random() < 0.5, rng.randint(1, burst)
        left -= 1
        factor = slow_factor if slow else 1.0
        speed.add(clock, clock + 0.001, INTERPRETER.nominal_s * factor * rng.uniform(0.95, 1.05))
        spans[tag] = (clock + 0.001, clock + 0.001 + base * factor)
        clock = spans[tag][1]
    speed.add(clock, clock + 0.001, INTERPRETER.nominal_s * (slow_factor if slow else 1.0))
    return {tag: speed.seconds(start, end) for tag, (start, end) in spans.items()}, clock


def test_scaled_medians_recover_the_nominal_host_from_bimodal_passes():
    rng = random.Random(7)
    fast = {f"d{i}": rng.uniform(0.05, 0.5) for i in range(34)}
    passes, walls = zip(*(bimodal_pass(fast, rng) for _ in range(3)))
    # Wall time reads tens of percent slow...
    assert max(walls) > 1.2 * sum(fast.values())
    # ...the scaled sum of per-shard medians lands within a few percent.
    assert sum_of_medians(passes) == pytest.approx(sum(fast.values()), rel=0.03)


def test_sum_of_medians_takes_each_shard_middle_pass():
    passes = [{"a": 1.0, "b": 1.9}, {"a": 1.9, "b": 1.0}, {"a": 1.2, "b": 1.3}]
    assert per_key_median(passes) == {"a": 1.2, "b": 1.3}
    assert sum_of_medians(passes) == pytest.approx(2.5)


def test_per_key_median_keeps_keys_missing_from_some_passes():
    assert per_key_median([{"a": 2.0}, {"a": 1.0, "b": 3.0}]) == {"a": 1.5, "b": 3.0}


def test_host_speed_scales_by_the_samples_around_an_interval():
    speed = HostSpeed(INTERPRETER)
    nominal = INTERPRETER.nominal_s
    speed.add(0.0, 0.1, nominal)
    speed.add(2.0, 2.1, 2 * nominal)
    speed.add(5.0, 5.1, 2 * nominal)
    # Between a sample at nominal speed and one at half speed: the mean.
    assert speed.seconds(0.5, 1.5) == pytest.approx(1.0 / 1.5)
    # Both neighbours at half speed: a slow stretch reads as fast.
    assert speed.seconds(2.5, 4.5) == pytest.approx(1.0)
    # After the last sample only the one before counts.
    assert speed.seconds(6.0, 7.0) == pytest.approx(0.5)
    assert speed.spent(0.0, 2.1) == pytest.approx(0.2)
    assert speed.spent(0.05, 4.0) == pytest.approx(0.1)


def test_host_speed_needs_a_sample():
    with pytest.raises(ValueError):
        HostSpeed(INTERPRETER).factor(0.0, 1.0)


def test_self_time_subtracts_child_coverage():
    spans = [
        ("build", 0.0, 10.0, None, "al"),
        ("bring_up", 2.0, 6.0, 0, "al"),
        ("step", 3.0, 4.0, 1, "al"),
    ]
    assert self_times(spans) == [6.0, 3.0, 1.0]


# -- tail percentile -------------------------------------------------------------


@pytest.mark.parametrize("n, pct", [(20, 50), (34, 70), (100, 90), (1088, 99)])
def test_tail_is_highest_percentile_with_ten_beyond(n, pct):
    values = [float(i) for i in range(1, n + 1)]
    label, value = tail_percentile(values)
    assert label == pct
    assert sum(1 for v in values if v > value) >= 10
    # One percentile higher would leave fewer than ten beyond.
    assert sum(1 for v in values if v > nearest_rank(values, pct + 1)) < 10


@pytest.mark.parametrize("n", [1, 9, 11, 19])
def test_tail_is_omitted_below_twenty_samples(n):
    assert tail_percentile([1.0] * n) is None


# -- sampler attribution ---------------------------------------------------------


def _module_function(module, source, name, **namespace):
    scope = {"__name__": module, **namespace}
    exec(source, scope)
    return scope[name]


def test_stdlib_frames_are_charged_to_the_calling_repro_layer():
    stdlib_helper = _module_function("json.decoder", "def f():\n    return sys._getframe()\n", "f", sys=sys)
    repro_caller = _module_function("repro.packets.ipv4", "def g():\n    return helper()\n", "g", helper=stdlib_helper)
    frame = repro_caller()
    assert frame.f_globals["__name__"] == "json.decoder"
    assert attribute(frame) == "packets"
    outside = _module_function("benchmark", "def h():\n    return helper()\n", "h", helper=stdlib_helper)
    assert attribute(outside()) == "other"


@pytest.mark.parametrize(
    "module, layer",
    [
        ("repro.gateway.nat", "gateway.nat"),
        ("repro.gateway.translation", "gateway.nat"),
        ("repro.gateway.device", "gateway.other"),
        ("repro.netsim.node", "netsim.other"),
        ("repro.core.udp_timeouts", "core.probes"),
        ("repro.core.store", "core.campaign"),
        ("repro.devices.catalog", "other"),
        ("collections", "other"),
    ],
)
def test_module_layer_map(module, layer):
    assert layer_of(module) == layer
    assert layer in LAYERS


def test_sampler_charges_busy_c_calls_to_the_caller():
    busy = _module_function(
        "repro.protocols.tcp",
        "def spin(seconds):\n"
        "    end = clock() + seconds\n"
        "    while clock() < end:\n"
        "        sorted(range(2000), reverse=True)\n",
        "spin",
        clock=time.process_time,
    )
    sampler = Sampler()
    sampler.start()
    try:
        busy(0.3)
    finally:
        sampler.stop()
    total = sum(sampler.counts.values())
    assert total >= 50
    assert sampler.counts["protocols.tcp"] >= 0.9 * total


# -- correctness gate ------------------------------------------------------------


def _record(cells, report="r", planned=None):
    return {"cells": dict(cells), "planned": sorted(planned or cells), "report_digest": report}


def test_outputs_are_checked_against_reference_and_first_pass():
    reference = {"cells": {"al/udp1": "x", "al/icmp": "y"}, "report": "r"}
    good = _record(reference["cells"])
    drifted = _record({"al/udp1": "x", "al/icmp": "z"})
    missing = _record({"al/udp1": "x"}, planned=["al/udp1", "al/icmp"])
    check = check_outputs([good, drifted, missing], reference)
    assert check["attempted"] == 9
    assert check["failed"] == 2
    assert check["mismatches"] == [
        ["al", "icmp", "pass 2: differs from reference"],
        ["al", "icmp", "pass 3: missing (shard failed)"],
    ]


def test_without_reference_passes_must_agree():
    check = check_outputs([_record({"al/udp1": "x"}), _record({"al/udp1": "x"}, report="other")], None)
    assert check["mismatches"] == [["report", "-", "pass 2: differs from pass 1"]]


# -- compare verdicts ------------------------------------------------------------


def test_compare_verdicts():
    parent = [1.00, 1.01, 0.99, 1.02, 1.00, 0.98, 1.01, 1.00, 0.99, 1.00]
    assert verdict(parent, [v * 0.8 for v in parent], "lower", 0.07)["verdict"] == "improved"
    assert verdict(parent, [v * 1.2 for v in parent], "lower", 0.07)["verdict"] == "regressed"
    assert verdict(parent, list(parent), "lower", 0.07)["verdict"] == "unchanged"
    noisy = [1.0, 1.5] * 5
    assert verdict(noisy, list(reversed(noisy)), "lower", 0.07)["verdict"] == "unresolved"


def _result_file(path, passes, value):
    metrics = {"campaign_s": {"value": value, "unit": "s"}}
    workload = {"passes": passes, "traced_passes": 0, "failed": 0, "metrics": metrics}
    path.write_text(json.dumps({"workloads": {"smoke": workload}}))
    return str(path)


def test_compare_refuses_results_with_different_pass_counts(tmp_path, capsys):
    parent = [_result_file(tmp_path / f"p{i}.json", 3, 1.0) for i in range(10)]
    same = [_result_file(tmp_path / f"c{i}.json", 3, 1.0) for i in range(10)]
    more = [_result_file(tmp_path / f"m{i}.json", 4 if i == 0 else 3, 1.0) for i in range(10)]
    assert compare_main(parent + ["--"] + same) == 0
    assert compare_main(parent + ["--"] + more) == 2
    assert "differ in (passes, traced passes)" in capsys.readouterr().err


# -- end to end ------------------------------------------------------------------


def test_smoke_workload_prints_every_metric_and_matches_digests(tmp_path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    result_path = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--workload", "smoke", "--trace", "1", "--result", str(result_path)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    for spec in bench["end_to_end"]:
        assert any(line.split()[:1] == [spec["name"]] and spec["unit"] in line.split() for line in lines), spec
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    assert {name: m["unit"] for name, m in last["metrics"].items()} == {
        spec["name"]: spec["unit"] for spec in bench["per_layer"]
    }
    shares = [m["value"] for name, m in last["metrics"].items() if name.startswith("cpu.") and m["unit"] == "share"]
    assert sum(shares) == pytest.approx(1.0)

    result = json.loads(result_path.read_text())["workloads"]["smoke"]
    assert result["reference"] is True
    assert result["passes"] == 2 and result["traced_passes"] == 2
    assert result["mismatches"] == []
    trace = json.loads((E2E / "out" / "trace_smoke.json").read_text())
    shard_spans = [e for e in trace["traceEvents"] if e["name"] == "SurveyRunner.run_shard"]
    assert {e["args"]["shard"] for e in shard_spans} == {"je", "ls1"}
