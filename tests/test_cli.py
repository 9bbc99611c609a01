"""The command-line interface."""

import json

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_list_devices(capsys):
    code, out = run_cli(capsys, "list-devices")
    assert code == 0
    assert "Linksys" in out and "ls1" in out
    assert out.count("D-Link") == 10


def test_probe_udp1_subset(capsys):
    code, out = run_cli(capsys, "probe", "--test", "udp1", "--tags", "je", "ed", "--repetitions", "1")
    assert code == 0
    assert "UDP1 binding timeouts" in out
    assert "je" in out and "ed" in out


def test_probe_dns(capsys):
    code, out = run_cli(capsys, "probe", "--test", "dns", "--tags", "ap", "nw1")
    assert code == 0
    assert "upstream:udp" in out  # ap's quirk visible from the CLI


def test_probe_transports(capsys):
    code, out = run_cli(capsys, "probe", "--test", "transports", "--tags", "bu1", "nw1")
    assert code == 0
    assert "sctp:pass" in out and "dccp:fail" in out


def test_survey_with_csv_export(capsys, tmp_path):
    code, out = run_cli(
        capsys, "survey", "--tests", "udp1", "--tags", "je", "--repetitions", "1",
        "--csv-dir", str(tmp_path),
    )
    assert code == 0
    csv = (tmp_path / "udp1.csv").read_text()
    assert csv.splitlines()[0] == "tag,median,q1,q3,samples,censored_at"
    assert "je," in csv


def test_classify(capsys):
    code, out = run_cli(capsys, "classify", "--tags", "bu1", "ng1")
    assert code == 0
    assert "symmetric" in out and "cone" in out


def test_compliance(capsys):
    code, out = run_cli(capsys, "compliance", "--tags", "je", "ls1")
    assert code == 0
    assert "FAIL" in out  # je misses RFC 4787
    assert "below RFC4787" in out


def test_probe_pmtu(capsys):
    code, out = run_cli(capsys, "probe", "--test", "pmtu", "--tags", "bu1", "be1")
    assert code == 0
    assert "ok in" in out and "BLACK HOLE" in out


def test_unknown_tag_rejected(capsys):
    with pytest.raises(SystemExit, match="unknown device tags"):
        main(["probe", "--test", "udp1", "--tags", "bogus"])


def test_unknown_test_rejected():
    with pytest.raises(SystemExit):
        main(["probe", "--test", "udp9"])

def test_probe_with_flight_recorder(capsys, tmp_path):
    code, out = run_cli(
        capsys, "probe", "--test", "udp1", "--tags", "je", "--repetitions", "1",
        "--trace", str(tmp_path / "trace"), "--pcap", str(tmp_path / "pcap"), "--metrics",
    )
    assert code == 0
    assert "UDP1 binding timeouts" in out
    assert (tmp_path / "trace" / "je.jsonl").exists()
    assert (tmp_path / "pcap" / "je.udp1.wan.pcap").exists()
    assert '"events.nat.bind"' in out  # --metrics prints the registry JSON


def test_trace_summary_command(capsys, tmp_path):
    code, _ = run_cli(
        capsys, "probe", "--test", "udp1", "--tags", "je", "--repetitions", "1",
        "--trace", str(tmp_path / "trace"),
    )
    assert code == 0
    capsys.readouterr()
    code, out = run_cli(capsys, "trace", str(tmp_path / "trace"))
    assert code == 0
    assert out.startswith("je:")
    assert "nat.bind" in out

    code, out = run_cli(capsys, "trace", "--json", str(tmp_path / "trace" / "je.jsonl"))
    assert code == 0
    import json

    summaries = json.loads(out)
    assert summaries[0]["device"] == "je"


def test_trace_command_rejects_empty(tmp_path):
    with pytest.raises(SystemExit):
        main(["trace", str(tmp_path)])


def _store_bytes(root):
    return {
        str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*.json"))
    }


def test_partitioned_survey_resume_and_bench(capsys, tmp_path):
    metro = ["--metro", "--partitions", "2", "--tags", "al", "ap", "as1", "--subscribers", "2"]
    store = tmp_path / "metro"
    code, out = run_cli(capsys, "survey", *metro, "--out", str(store))
    assert code == 0
    assert "metro_load: 3 device(s)" in out
    assert "partitions: 2   sync rounds: " in out
    clean = _store_bytes(store)

    (store / "cells" / "ap" / "metro_load.json").unlink()
    code, out = run_cli(capsys, "survey", *metro, "--out", str(store), "--resume")
    assert code == 0
    assert "(2 cell(s) reused)" in out
    assert _store_bytes(store) == clean

    dump = tmp_path / "bench.json"
    code, out = run_cli(capsys, "bench", *metro[1:], "--output", str(dump))
    assert code == 0
    payload = json.loads(dump.read_text())
    partition = payload["partition"]
    assert partition["partitions"] == 2
    assert partition["sync_rounds"] > 0 and partition["boundary_frames"] > 0
    assert len(partition["island_cpu_seconds"]) == 2
    assert payload["campaign"]["tests"] == ["metro_load"]
    assert payload["campaign"]["metro_requests"] == 8
    assert payload["stats"]["family_events"]["metro_load"] > 0
    (row,) = json.loads((tmp_path / "BENCH_history.json").read_text())
    assert row["partitions"] == 2 and row["jobs"] == 1
    assert row["sync_rounds"] == partition["sync_rounds"]


def test_bench_history_labels_rows_with_the_latest_pr(tmp_path):
    from repro.cli import _append_bench_history
    from repro.core import SimStats, SurveyRunner
    from repro.devices import catalog_profiles

    (tmp_path / "CHANGES.md").write_text(
        "# Changes\n- PR 1: first\n- PR 2: second\n- PR 14: after a gap\n"
    )
    out_dir = tmp_path / "bench"
    out_dir.mkdir()
    runner = SurveyRunner(profiles=catalog_profiles(["al"]), jobs=3, partitions=2)
    history = _append_bench_history(out_dir / "BENCH_survey.json", runner, SimStats())
    (row,) = json.loads(history.read_text())
    assert row["pr"] == 14
    assert row["jobs"] == 3
    assert row["partitions"] == 2
    assert "sync_rounds" not in row  # no partitioned family ran
