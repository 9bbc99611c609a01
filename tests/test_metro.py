"""The ``metro_load`` family on the per-device shard path.

Each device shard builds a one-segment metro at its own shard seed, so
these behaviours must hold under any ``jobs``: a core-link flap costs the
flapped segment replies and no other segment any, a long idle drives NAT
bindings through expiry at both tiers without losing a reply, cells do not
depend on the seed, and a resumed campaign rebuilds its store byte for
byte.
"""

import pathlib
import shutil

import pytest

from repro.cgn.metro import LOAD_START, MAX_METRO_SUBSCRIBERS, MetroFlap, MetroLoadPlan, MetroTopology
from repro.core import registry
from repro.core.survey import SurveyRunner
from repro.devices import catalog_profiles
from repro.netsim.sim import Simulation
from tests.conftest import assert_distinct_host_leases

TAGS = ["al", "ap", "as1", "be1"]


def _tree(root):
    root = pathlib.Path(root)
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*.json"))
    }


def _cells(results):
    fam = registry.family("metro_load")
    return {tag: fam.encode(cell) for tag, cell in results.family("metro_load").items()}


def _runner(jobs, seed=11, **knobs):
    return SurveyRunner(profiles=catalog_profiles(TAGS), seed=seed, jobs=jobs, cgn_subscribers=2, **knobs)


@pytest.mark.parametrize("jobs", [1, 2])
class TestMetroShards:
    def test_core_link_flap_costs_only_its_segment_replies(self, jobs):
        # The flap window sits inside the send schedule, so request/reply
        # frames are crossing ap's core link — some mid-serialization —
        # when the cable drops.
        results = _runner(jobs, metro_flap="tag=ap,at=30.06,for=0.1").run(["metro_load"])
        assert results.complete
        assert results.family("metro_load")["ap"].timeouts > 0
        assert results.family("metro_load")["al"].timeouts == 0

    def test_idle_expires_bindings_at_both_tiers(self, jobs):
        # A 500 s mid-schedule idle pushes every binding (CGN UDP timeout
        # 120 s, gateway bidirectional 152-202 s for these tags) through
        # lazy expiry.
        results = _runner(jobs, metro_idle=500.0).run(["metro_load"])
        for tag in TAGS:
            cell = results.family("metro_load")[tag]
            assert cell.cgn_bindings_expired > 0
            assert cell.gw_bindings_expired > 0
            assert cell.timeouts == 0  # expiry costs bindings, not replies

    def test_cells_seed_independent(self, jobs):
        seed_11, seed_99 = (_runner(jobs, seed=seed).run(["metro_load"]) for seed in (11, 99))
        assert _cells(seed_11) == _cells(seed_99)

    def test_resume_rebuilds_the_store_byte_for_byte(self, jobs, tmp_path):
        full = tmp_path / "full"
        _runner(jobs, store_dir=str(full)).run(["metro_load"])
        resumed = tmp_path / "resumed"
        shutil.copytree(full, resumed)
        for tag in ("ap", "be1"):
            (resumed / "cells" / tag / "metro_load.json").unlink()
        runner = _runner(jobs, store_dir=str(resumed), resume=True)
        runner.run(["metro_load"])
        assert runner.last_skipped_cells == 2
        assert _tree(resumed) == _tree(full)


class TestMetroKnobs:
    def test_flap_parse_roundtrip(self):
        flap = MetroFlap.parse("tag=al,at=30.1,for=0.25")
        assert flap == MetroFlap(tag="al", at=30.1, duration=0.25)
        assert MetroFlap.parse(flap.describe()) == flap
        assert MetroFlap.parse("") is None
        assert MetroFlap.parse("   ") is None

    def test_flap_parse_errors(self):
        with pytest.raises(ValueError):
            MetroFlap.parse("tag=al,at=30.1")
        with pytest.raises(ValueError):
            MetroFlap.parse("tag=al,at=-1,for=0.5")
        with pytest.raises(ValueError):
            MetroFlap.parse("bogus")

    def test_plan_schedule_is_fixed(self):
        plan = MetroLoadPlan(subscribers=2, requests=4, idle=100.0)
        assert plan.send_time(0, 0) == 30.0
        assert plan.send_time(1, 0) == 30.0 + 0.0132
        # The idle gap splices in before the midpoint request.
        assert plan.send_time(0, 2) == 30.0 + 2 * 0.05 + 100.0
        assert plan.snap == plan.send_time(1, 3) + 5.0
        assert plan.horizon == plan.snap + 1.0


def test_a_segment_at_its_cap_brings_every_home_up():
    """200 homes lease distinct access addresses by ``LOAD_START``; a 201st is refused at construction."""
    profiles = catalog_profiles(["al"])
    bed = MetroTopology.build(profiles, subscribers=MAX_METRO_SUBSCRIBERS)
    bed.sim.run(until=LOAD_START)
    segment = bed.segments["al"]
    assert all(home.client_dhcp is not None and home.client_dhcp.configured for home in segment.homes)
    assert_distinct_host_leases(segment)
    with pytest.raises(ValueError, match=f"1..{MAX_METRO_SUBSCRIBERS}"):
        MetroTopology(Simulation(seed=0), profiles, subscribers=MAX_METRO_SUBSCRIBERS + 1)
