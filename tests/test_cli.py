"""The command-line interface."""

import json

import pytest

from repro.cli import main
from repro.core import OptionsTest, SimStats, SurveyResults, SurveyRunner, UdpTimeoutProbe, registry


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def _record_udp_repetitions(monkeypatch):
    """Record the repetitions of every UDP timeout probe that runs."""
    seen = []
    run_all = UdpTimeoutProbe.run_all

    def recording(self, *args, **kwargs):
        seen.append(self.repetitions)
        return run_all(self, *args, **kwargs)

    monkeypatch.setattr(UdpTimeoutProbe, "run_all", recording)
    return seen


def test_list_devices(capsys):
    code, out = run_cli(capsys, "list-devices")
    assert code == 0
    assert "Linksys" in out and "ls1" in out
    assert out.count("D-Link") == 10


def test_probe_udp1_subset(capsys, monkeypatch):
    repetitions = _record_udp_repetitions(monkeypatch)
    code, out = run_cli(capsys, "probe", "--test", "udp1", "--tags", "je", "ed", "--repetitions", "1")
    assert code == 0
    assert "UDP1 binding timeouts" in out
    assert "je" in out and "ed" in out
    assert repetitions == [1, 1]  # one probe per device shard


def test_probe_dns(capsys):
    code, out = run_cli(capsys, "probe", "--test", "dns", "--tags", "ap", "nw1")
    assert code == 0
    assert "upstream:udp" in out  # ap's quirk visible from the CLI


def test_probe_transports(capsys):
    code, out = run_cli(capsys, "probe", "--test", "transports", "--tags", "bu1", "nw1")
    assert code == 0
    assert "sctp:pass" in out and "dccp:fail" in out


def test_survey_with_csv_export(capsys, tmp_path, monkeypatch):
    repetitions = _record_udp_repetitions(monkeypatch)
    code, out = run_cli(
        capsys, "survey", "--tests", "udp1", "--tags", "je", "--repetitions", "1",
        "--csv-dir", str(tmp_path),
    )
    assert code == 0
    assert repetitions == [1]
    csv = (tmp_path / "udp1.csv").read_text()
    assert csv.splitlines()[0] == "tag,median,q1,q3,samples,censored_at"
    assert "je," in csv


def test_campaign_survey_writes_csv(capsys, tmp_path):
    code, out = run_cli(
        capsys, "survey", "--families", "udp1", "--tags", "je", "--repetitions", "1",
        "--out", str(tmp_path / "store"), "--csv-dir", str(tmp_path / "csv"),
    )
    assert code == 0
    csv = (tmp_path / "csv" / "udp1.csv").read_text()
    assert csv.splitlines()[0] == "tag,median,q1,q3,samples,censored_at"
    assert "je," in csv


def test_classify(capsys):
    code, out = run_cli(capsys, "classify", "--tags", "bu1", "ng1")
    assert code == 0
    assert "symmetric" in out and "cone" in out


def test_compliance(capsys, monkeypatch):
    repetitions = _record_udp_repetitions(monkeypatch)
    code, out = run_cli(capsys, "compliance", "--tags", "je", "ls1")
    assert code == 0
    assert "FAIL" in out  # je misses RFC 4787
    assert "below RFC4787" in out
    assert repetitions == [1, 1]


def test_compliance_reads_udp_repetitions_from_its_knob(capsys, monkeypatch):
    repetitions = _record_udp_repetitions(monkeypatch)
    code, _out = run_cli(capsys, "compliance", "--tags", "je", "--repetitions", "2")
    assert code == 0
    assert repetitions == [2]


def test_failed_shard_is_reported_with_exit_code_1(capsys, monkeypatch):
    def broken(self, bed):
        raise RuntimeError("probe exploded")

    monkeypatch.setattr(OptionsTest, "run_all", broken)
    code, out = run_cli(capsys, "probe", "--test", "options", "--tags", "bu1")
    assert code == 1
    assert "1 shard(s) failed" in out and "probe exploded" in out


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


#: Every campaign knob that declares a CLI flag.
FLAGGED_KNOBS = [knob for knob in registry.knobs().values() if knob.flag is not None]

#: Each campaign command, routed to ``SurveyRunner`` on one device.
CAMPAIGN_COMMANDS = {
    "survey": ["survey", "--families", "udp1", "--tags", "je"],
    "report": ["report", "--tests", "udp1", "--tags", "je"],
    "bench": ["bench", "--tests", "udp1", "--tags", "je"],
}


def _built_runner(monkeypatch, capsys, argv):
    """Run one CLI command with ``SurveyRunner.run`` stubbed out; the runner it built."""
    built = []

    def run(self, tests=None):
        built.append(self)
        self.last_elapsed = 0.0
        return SurveyResults(stats=SimStats())

    monkeypatch.setattr(SurveyRunner, "run", run)
    code, _out = run_cli(capsys, *argv)
    assert code == 0
    (runner,) = built
    return runner


def _off_default(knob):
    """Flag arguments that move ``knob`` off its declared default, and the value they set."""
    if knob.type is bool:
        return [knob.flag], True
    if "choices" in knob.argparse:
        value = next(choice for choice in knob.argparse["choices"] if choice != knob.default)
    elif knob.type is str:
        value = "1,2"
    else:
        value = knob.default + knob.type(3)
    return [knob.flag, str(value)], value


@pytest.mark.parametrize("command", sorted(CAMPAIGN_COMMANDS))
@pytest.mark.parametrize("knob", FLAGGED_KNOBS, ids=lambda knob: knob.name)
def test_every_knob_flag_reaches_the_runner(monkeypatch, capsys, command, knob):
    argv, value = _off_default(knob)
    runner = _built_runner(monkeypatch, capsys, CAMPAIGN_COMMANDS[command] + argv)
    assert runner.knobs[knob.name] == value


def test_campaign_commands_start_from_the_declared_defaults(monkeypatch, capsys):
    declared = {name: knob.default for name, knob in registry.knobs().items()}
    for command in ("survey", "report"):
        assert _built_runner(monkeypatch, capsys, CAMPAIGN_COMMANDS[command]).knobs == declared
    # bench: quick-run budgets unless its own budget flags say otherwise.
    quick = dict(declared, udp_repetitions=1, tcp1_cutoff=600.0, transfer_bytes=512 * 1024)
    assert _built_runner(monkeypatch, capsys, CAMPAIGN_COMMANDS["bench"]).knobs == quick
    budget = ["--tcp1-cutoff", "900", "--transfer-bytes", "4096"]
    runner = _built_runner(monkeypatch, capsys, CAMPAIGN_COMMANDS["bench"] + budget)
    assert runner.knobs == dict(quick, tcp1_cutoff=900.0, transfer_bytes=4096)
