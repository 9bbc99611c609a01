"""The markdown survey report and its CLI command."""

import pytest

from repro.analysis import render_report
from repro.cli import main
from repro.core import SurveyRunner
from repro.devices.profile import NatPolicy, UdpTimeoutPolicy
from tests.conftest import make_profile


@pytest.fixture(scope="module")
def survey_results():
    profiles = [
        make_profile("r1", udp_timeouts=UdpTimeoutPolicy(30.0, 60.0, 90.0), nat=NatPolicy(max_tcp_bindings=25)),
        make_profile("r2", udp_timeouts=UdpTimeoutPolicy(100.0, 120.0, 140.0), nat=NatPolicy(max_tcp_bindings=75)),
    ]
    runner = SurveyRunner(profiles, udp_repetitions=1, udp5_repetitions=1, tcp1_cutoff=300.0)
    return runner.run(tests=["udp1", "udp2", "tcp1", "tcp4", "icmp", "transports", "dns"])


def test_report_contains_all_requested_sections(survey_results):
    report = render_report(survey_results, title="Test survey")
    assert report.startswith("# Test survey")
    assert "## UDP binding timeouts" in report
    assert "## UDP-4" in report
    assert "## TCP-1" in report
    assert "## TCP-4" in report
    assert "## Other tests (Table 2)" in report
    assert "r1" in report and "r2" in report


def test_report_omits_missing_families(survey_results):
    from repro.core.survey import SurveyResults

    empty = SurveyResults({"udp1": survey_results.family("udp1")})
    report = render_report(empty)
    assert "## UDP binding timeouts" in report
    assert "## TCP-4" not in report
    assert "Table 2" not in report


def test_report_population_stats_present(survey_results):
    report = render_report(survey_results)
    assert "*UDP-1*: median" in report


def test_cli_report_to_file(capsys, tmp_path):
    out_file = tmp_path / "new" / "report.md"  # --output creates the directory
    code = main([
        "report", "--tests", "udp1", "--tags", "je",
        "--repetitions", "1", "--output", str(out_file),
    ])
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("# Home gateway survey (1 devices)")
    assert "je" in text


def test_cli_report_stdout(capsys):
    code = main(["report", "--tests", "udp1", "--tags", "ed", "--repetitions", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "# Home gateway survey" in out
