"""The example scripts must actually run (quick ones, in-process)."""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quickstart_runs(capsys):
    _load("quickstart").main()
    out = capsys.readouterr().out
    assert "keepalive interval" in out
    assert "je" in out and "ls1" in out


def test_custom_gateway_runs(capsys):
    _load("custom_gateway").main()
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" in out
    assert "RFC4787" in out


def test_nat_classifier_runs(capsys):
    _load("nat_classifier").main()
    out = capsys.readouterr().out
    assert "symmetric" in out
    assert "classification" in out
    # Address-and-port-dependent filters drop the alternate port's reply.
    lines = {line.split()[0]: line for line in out.splitlines() if line.strip()}
    for tag in ("be1", "ls2", "zy1"):
        assert lines[tag].endswith("port-restricted cone"), lines[tag]


def test_hole_punching_runs(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["hole_punching.py"])
    _load("hole_punching").main()
    out = capsys.readouterr().out
    assert "zy1: port-restricted cone" in out
    # al, bu1 and dl1 map endpoint-independently: their 6 ordered pairs punch.
    assert "6/30 ordered pairs punched, 24 connected through the relay" in out


def test_keepalive_advisor_runs(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["keepalive_advisor.py", "je", "be1"])
    _load("keepalive_advisor").main()
    out = capsys.readouterr().out
    assert "Recommendation" in out
    assert "UDP keepalive" in out


def test_keepalive_advisor_rejects_unknown_tags(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["keepalive_advisor.py", "nosuch"])
    with pytest.raises(SystemExit, match="unknown device tags"):
        _load("keepalive_advisor").main()


def test_packet_capture_writes_readable_pcaps(capsys, monkeypatch, tmp_path):
    from repro.netsim.pcap import read_pcap

    monkeypatch.setattr(sys, "argv", ["packet_capture.py", str(tmp_path)])
    _load("packet_capture").main()
    out = capsys.readouterr().out
    assert "WAN protocol mix" in out
    records = read_pcap(str(tmp_path / "bu1.wan.pcap"))
    assert len(records) > 0
    assert all(len(raw) > 14 for _t, raw in records)
