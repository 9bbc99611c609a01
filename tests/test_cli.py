"""The command-line interface."""

import json
import re

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
    for command in (["probe", "--test", "options"], ["report", "--tests", "options"]):
        code, out = run_cli(capsys, *command, "--tags", "bu1")
        assert code == 1, command
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


def test_metro_survey_resumes_byte_for_byte(capsys, tmp_path):
    """A metro survey at ``--jobs 2`` writes its store, prints its counters and resumes byte for byte."""
    metro = ["--metro", "--jobs", "2", "--tags", "al", "ap", "as1", "--subscribers", "2"]
    store = tmp_path / "metro"
    code, out = run_cli(capsys, "survey", *metro, "--out", str(store))
    assert code == 0
    assert "metro_load: 3 device(s)" in out
    assert int(re.search(r"metro_load: 3 device\(s\) +[\d.]+s +(\d+) events", out)[1]) > 0
    clean = _store_bytes(store)
    assert json.loads(clean["campaign.json"])["knobs"]["metro_requests"] == 8

    (store / "cells" / "ap" / "metro_load.json").unlink()
    code, out = run_cli(capsys, "survey", *metro, "--out", str(store), "--resume")
    assert code == 0
    assert "(2 cell(s) reused)" in out
    assert _store_bytes(store) == clean


def test_resume_restores_a_missing_derived_cell(capsys, tmp_path):
    """A kill between a family's cell and its derived cell (udp1, then udp4) resumes to the clean store."""
    argv = ["survey", "--families", "udp1", "--tags", "je", "--repetitions", "1", "--out", str(tmp_path)]
    assert run_cli(capsys, *argv)[0] == 0
    clean = _store_bytes(tmp_path)
    (tmp_path / "cells" / "je" / "udp4.json").unlink()
    assert run_cli(capsys, *argv, "--resume")[0] == 0
    assert _store_bytes(tmp_path) == clean


def test_survey_chaos_flags_lose_only_the_crashed_shard(capsys, tmp_path):
    code, out = run_cli(
        capsys, "survey", "--tests", "udp1", "--tags", "al", "dl8", "--repetitions", "1", "--jobs", "2",
        "--impair", "loss=0.01,reorder=5ms,dup=0.001", "--fault", "crash@t=30,boot=never,device=dl8",
        "--out", str(tmp_path),
    )
    assert code == 1
    assert "udp1: 1 device(s)" in out
    assert "1 shard(s) failed:" in out and "[dl8/udp1]" in out
    assert json.loads((tmp_path / "campaign.json").read_text())["impairment"]["loss"] == 0.01


def test_report_from_lists_the_cells_a_campaign_lost(capsys, tmp_path):
    """A store missing planned cells renders its "Shard failures" section, and ``report --from`` exits 1."""
    store, report = tmp_path / "st", tmp_path / "r.md"
    code, out = run_cli(
        capsys, "survey", "--tests", "udp1", "--tags", "dl8", "je", "--repetitions", "1",
        "--fault", "crash@t=30,boot=never,device=dl8", "--out", str(store),
    )
    assert code == 1 and "[dl8/udp1]" in out
    code, out = run_cli(capsys, "report", "--from", str(store), "--output", str(report))
    assert code == 1
    assert "1 shard(s) failed:" in out and "[dl8/udp1] MissingCell" in out
    text = report.read_text()
    assert "## Shard failures" in text
    assert "1 failure(s), whose cells every figure above omits." in text
    assert "A row read back from a store names one missing cell." in text
    assert "| subject | family | error | message |" in text
    assert "| dl8 | udp1 | MissingCell |" in text


#: Every campaign knob that declares a CLI flag.
FLAGGED_KNOBS = [knob for knob in registry.knobs().values() if knob.flag is not None]

#: Each campaign command, routed to ``SurveyRunner`` on one device.
CAMPAIGN_COMMANDS = {
    "survey": ["survey", "--families", "udp1", "--tags", "je"],
    "report": ["report", "--tests", "udp1", "--tags", "je"],
}


def _built_runner(monkeypatch, capsys, argv):
    """Run one CLI command with ``SurveyRunner.run`` stubbed out; the runner it built."""
    built = []

    def run(self, tests=None):
        built.append(self)
        self.last_elapsed = 0.0
        self.selected = tests
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
    for command in sorted(CAMPAIGN_COMMANDS):
        assert _built_runner(monkeypatch, capsys, CAMPAIGN_COMMANDS[command]).knobs == declared


@pytest.mark.parametrize("flags, families", [
    (["--cgn"], ["cgn_timeouts", "cgn_exhaustion"]),
    (["--attack"], ["attack_portflood", "attack_keepalive", "attack_rst"]),
    (["--workload"], ["workload_mix", "fwcost_scaling"]),
    (["--metro"], ["metro_load"]),
    (["--matrix"], ["traversal_matrix"]),
    (["--tests", "udp1", "tcp2", "--cgn", "--matrix"],
     ["udp1", "tcp2", "cgn_timeouts", "cgn_exhaustion", "traversal_matrix"]),
], ids=["cgn", "attack", "workload", "metro", "matrix", "appended"])
def test_family_shortcuts_select_their_tier(monkeypatch, capsys, flags, families):
    runner = _built_runner(monkeypatch, capsys, ["survey", "--tags", "al", "be1", *flags])
    assert runner.selected == families
