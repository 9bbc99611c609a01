"""The golden digest file covers the whole registry; no simulation runs here.

``tools/golden.py`` holds a small canonical campaign to
``tests/data/golden.json`` under six engine variants, in one CI job on one
Python.  These checks fail on every Python as soon as a family is
registered without regenerating that file (``python tools/golden.py
--update``).
"""

import json
import pathlib

from repro.core import registry
from repro.core.store import CampaignStore, subject_dirname
from repro.devices import catalog_profiles

GOLDEN = json.loads((pathlib.Path(__file__).resolve().parent / "data" / "golden.json").read_text())
CAMPAIGN = GOLDEN["campaign"]


def _subjects(family):
    """The golden campaign's subject tags for one family."""
    knobs = family.knobs_of(registry.resolve_knobs(CAMPAIGN["knobs"]))
    return [subject.tag for subject in family.subjects_of(catalog_profiles(CAMPAIGN["devices"]), knobs)]


def _cell(tag, family):
    return f"{CampaignStore.CELL_DIR}/{subject_dirname(tag)}/{family}.json"


def test_files_are_the_manifest_and_a_cell_per_registered_family_and_subject():
    """Every registered family, opt-in and derived ones included, on each golden device (or pair)."""
    cells = {_cell(tag, family.name) for family in registry.families() for tag in _subjects(family)}
    expected = cells | {CampaignStore.MANIFEST}
    assert not expected - set(GOLDEN["files"]), "regenerate with `python tools/golden.py --update`"
    assert not set(GOLDEN["files"]) - expected


def test_the_matrix_slice_is_every_ordered_pair():
    pairs = _subjects(registry.family("traversal_matrix"))
    devices = CAMPAIGN["devices"]
    assert len(pairs) == len(devices) * (len(devices) - 1) == 12
    assert all(_cell(tag, "traversal_matrix") in GOLDEN["files"] for tag in pairs)


def test_counters_name_every_runnable_family():
    runnable = set(registry.runnable_names())
    assert set(GOLDEN["counters"]["fast"]) == runnable
    assert set(GOLDEN["counters"]["staged"]) == runnable


def test_the_traced_run_pins_its_pcap_tree():
    """One sha256 over every capture of the traced variant holds every checksum byte on every link."""
    assert len(bytes.fromhex(GOLDEN["pcap"])) == 32
