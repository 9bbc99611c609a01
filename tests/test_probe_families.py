"""The opt-in probe families: ``options``, ``binding_rate``, ``pmtu``, ``stun_classify``.

They reach ``repro probe`` and ``repro classify`` through the campaign
runner, so they carry its contracts: ``--jobs 2``, ``--no-fastpath`` and a
``--resume`` after a lost cell write byte-identical stores, a store cell
decodes to exactly the live result, and ``report --from`` renders each
family's section.  ``be1`` drops TCP Frag Needed (a PMTU black hole) and
``bu1`` does not.
"""

import pathlib

import pytest

from repro.cli import PROBE_CHOICES, main
from repro.core import registry
from repro.core.store import CampaignStore
from repro.core.survey import SurveyRunner
from repro.devices import catalog_profiles

FAMILIES = ("options", "binding_rate", "pmtu", "stun_classify")
TAGS = ("bu1", "be1")
SURVEY = ["survey", "--tags", *TAGS, "--families", ",".join(FAMILIES)]


def _tree(root):
    root = pathlib.Path(root)
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*.json"))}


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    out = tmp_path_factory.mktemp("probe-families") / "clean"
    assert main([*SURVEY, "--out", str(out)]) == 0
    return out


def test_opt_in_and_in_the_probe_menu():
    for name in FAMILIES:
        family = registry.family(name)
        assert not family.default_selected
        assert family.knobs is registry.NoKnobs
        assert name in PROBE_CHOICES


@pytest.mark.parametrize("variant", ["--jobs 2", "--no-fastpath"])
def test_engine_variants_write_the_same_store(clean, tmp_path, capsys, variant):
    out = tmp_path / "variant"
    assert main([*SURVEY, *variant.split(), "--out", str(out)]) == 0
    assert _tree(out) == _tree(clean)


def test_resume_after_a_lost_cell(clean, tmp_path, capsys):
    out = tmp_path / "resumed"
    assert main([*SURVEY, "--out", str(out)]) == 0
    (out / CampaignStore.CELL_DIR / "be1" / "pmtu.json").unlink()
    assert main([*SURVEY, "--out", str(out), "--resume"]) == 0
    assert "(7 cell(s) reused)" in capsys.readouterr().out
    assert _tree(out) == _tree(clean)


def test_stored_cells_decode_to_the_live_results(clean):
    live = SurveyRunner(catalog_profiles(TAGS)).run(list(FAMILIES))
    stored = CampaignStore.open(clean).load_results()
    for name in FAMILIES:
        assert set(live.family(name)) == set(TAGS), name
        assert stored.family(name) == live.family(name), name
        # repr tells int from float: offered rates must be floats live too.
        assert repr(stored.family(name)) == repr(live.family(name)), name
    assert live.family("pmtu")["be1"].black_hole and not live.family("pmtu")["bu1"].black_hole


def test_report_renders_each_section(clean, tmp_path, capsys):
    report = tmp_path / "report.md"
    assert main(["report", "--from", str(clean), "--output", str(report)]) == 0
    text = report.read_text()
    for heading in (
        "## TCP and IP option handling (§5)",
        "## Binding creation rate (§5)",
        "## Path-MTU black holes (RFC 2923)",
        "## STUN classification (RFC 3489)",
    ):
        assert heading in text
    assert "BLACK HOLE" in text and "Binding setup rate" in text
