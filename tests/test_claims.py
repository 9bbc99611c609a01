"""The paper-claims table: well formed, and able to fail.

The claims themselves are checked over their full campaign by
``benchmarks/test_paper_claims.py``; here a cheap three-family campaign
exercises the machinery, and a planted calibration fault must trip it.
"""

import pathlib
import subprocess
import sys

import pytest

from repro.analysis import claims
from repro.core import SurveyRunner, registry
from repro.devices import catalog_profiles


def test_claim_ids_are_unique_and_every_claim_names_an_anchor():
    ids = [claim.id for claim in claims.CLAIMS]
    assert len(ids) == len(set(ids))
    assert all(claim.anchor for claim in claims.CLAIMS)


def test_the_campaign_measures_every_family_a_claim_reads():
    for claim in claims.CLAIMS:
        for name in claim.families:
            assert (registry.family(name).derived_from or name) in claims.FAMILIES, (claim.id, name)


@pytest.fixture(scope="module")
def table2():
    return SurveyRunner(seed=claims.SEED).run(["icmp", "transports", "dns"])


def test_table2_claims_hold_on_the_catalog(table2):
    checked = [claim for claim in claims.CLAIMS if claim.measured_by(table2)]
    assert {claim.anchor for claim in checked} <= {"Table 2", "§4.3"} and len(checked) == 15
    assert [claim.id for claim in checked if not claim.check(table2).passed] == []
    assert "| table2.sctp_passing | Table 2 | 18 | 18 | == | pass |" in claims.render_claims(table2)


def test_planted_sctp_fault_fails_the_sctp_claim():
    """al passes SCTP by forwarding the reply inbound; a fallback that refuses it leaves 17 of 34."""
    profiles = [p.clone(fallback_allows_inbound=False) if p.tag == "al" else p for p in catalog_profiles()]
    mutated = SurveyRunner(profiles, seed=claims.SEED).run(["transports"])
    verdict = {claim.id: claim for claim in claims.CLAIMS}["table2.sctp_passing"].check(mutated)
    assert (verdict.measured, verdict.paper, verdict.passed) == (17, 18, False)


def test_campaign_and_report_paths_do_not_import_the_claims():
    src = pathlib.Path(claims.__file__).resolve().parents[2]
    code = ("import sys, repro.cli; from repro.analysis import render_report; "
            "assert 'repro.analysis.claims' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
