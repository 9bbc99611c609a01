"""The paper's claims, checked over one campaign store.

Runs the campaign the claims are stated at (``repro.analysis.claims``: all
34 devices, seed 0, the paper's families plus four §5 ones) through
``SurveyRunner`` into a store, reads it back as ``repro report --from``
does, and checks each claim: one test per claim id.  About 20 s on 2 cores:

    python -m pytest benchmarks/test_paper_claims.py -q
"""

import pytest

from repro.analysis import claims
from repro.core import CampaignStore


@pytest.fixture(scope="module")
def store_results(tmp_path_factory):
    store = tmp_path_factory.mktemp("claims")
    ran = claims.run_campaign(jobs=2, store_dir=str(store))
    assert ran.complete, ran.errors
    return CampaignStore.open(store).load_results()


@pytest.mark.parametrize("claim", claims.CLAIMS, ids=lambda claim: claim.id)
def test_claim(claim, store_results):
    verdict = claim.check(store_results)
    assert verdict.passed, f"{claim.anchor}: measured {verdict.measured}, paper {verdict.paper} ({verdict.rule})"
