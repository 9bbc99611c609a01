"""The partition engine's determinism contract and boundary edge cases.

The load-bearing property: store cells from a partitioned metro campaign
are **byte-identical** across ``--partitions 1/2/4`` and across engines
(the per-device survey shard path writes the same bytes), also when the
campaign mixes partitioned and ordinary shard families.  The edge-case
tests pin the scenarios where a naive implementation diverges: a frame in
flight across a boundary during a link flap, and lazy NAT expiry timers
firing in sync epochs where no boundary traffic exists to drive rounds.
"""

import pathlib
import shutil

import pytest

from repro.cgn.metro import MetroFlap, MetroLoadPlan
from repro.core import registry
from repro.core.partition import PartitionError
from repro.core.survey import SurveyRunner
from repro.devices import catalog_profiles
from repro.netsim.link import BoundaryHalf
from repro.netsim.sim import Simulation

TAGS = ["al", "ap", "as1", "be1"]


def _profiles():
    return catalog_profiles(TAGS)


def _tree(root):
    root = pathlib.Path(root)
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*.json"))
    }


def _cells(results):
    fam = registry.family("metro_load")
    return {tag: fam.encode(cell) for tag, cell in results.family("metro_load").items()}


def _run(partitions, seed=11, **knobs):
    runner = SurveyRunner(
        profiles=_profiles(), seed=seed, partitions=partitions,
        cgn_subscribers=2, **knobs,
    )
    return runner, runner.run(["metro_load"])


class _StubIface:
    attached = False

    def __init__(self):
        self.endpoint = None
        self.delivered = []

    def deliver(self, frame):
        self.delivered.append(frame)


class _StubFrame:
    def __init__(self, size=1000):
        self._size = size

    def wire_size(self):
        return self._size


class TestBoundaryHalf:
    def test_ship_arithmetic_matches_eager_kernel(self):
        # Two back-to-back 1000 B frames at 1 Mb/s with 1 ms propagation:
        # done = 8 ms / 16 ms, arrival = done + delay — float for float the
        # frontier arithmetic of LinkEndpoint._transmit_eager.
        sim = Simulation(seed=0)
        half = BoundaryHalf(sim, "up:1", rate_bps=1e6, delay=1e-3)
        half.attach(_StubIface())
        f1, f2 = _StubFrame(), _StubFrame()
        half.transmit(f1)
        half.transmit(f2)
        sim.run(until=1.0)
        out = half.drain_outbound()
        assert out == [(0.008 + 1e-3, f1), (0.016 + 1e-3, f2)]
        assert half.frames_shipped == 2
        assert half.drain_outbound() == []

    def test_sever_drops_frames_on_the_wire(self):
        sim = Simulation(seed=0)
        half = BoundaryHalf(sim, "up:1", rate_bps=1e6, delay=1e-3)
        half.attach(_StubIface())
        half.transmit(_StubFrame())          # done at 8 ms
        sim.schedule_at(0.004, half.sever)   # cable down mid-serialization
        sim.schedule_at(0.010, half.mend)
        survivor = _StubFrame()
        sim.schedule_at(0.020, half.transmit, survivor)
        sim.run(until=1.0)
        out = half.drain_outbound()
        assert half.frames_dropped == 1
        assert [frame for _t, frame in out] == [survivor]

    def test_inject_delivers_at_stamped_arrival(self):
        sim = Simulation(seed=0)
        half = BoundaryHalf(sim, "down:1", rate_bps=1e6, delay=1e-3)
        iface = _StubIface()
        half.attach(iface)
        frame = _StubFrame()
        half.inject(0.5, frame)
        sim.run(until=0.4)
        assert iface.delivered == []
        sim.run(until=1.0)
        assert iface.delivered == [frame]
        assert half.frames_injected == 1

    def test_rejects_zero_delay(self):
        with pytest.raises(ValueError, match="sync slack"):
            BoundaryHalf(Simulation(seed=0), "up:1", delay=0.0)


class TestPartitionDeterminism:
    @staticmethod
    def _trees(tmp_path, **knobs):
        trees = {}
        for partitions in (None, 1, 2, 4):
            store = tmp_path / f"p{partitions}"
            runner = SurveyRunner(
                profiles=_profiles(), seed=11, partitions=partitions,
                cgn_subscribers=2, store_dir=str(store), **knobs,
            )
            runner.run(["metro_load"])
            trees[partitions] = _tree(store)
        return trees

    def test_cells_byte_identical_across_partition_counts(self, tmp_path):
        trees = self._trees(tmp_path)
        assert trees[None] == trees[1] == trees[2] == trees[4]
        assert any("metro_load" in path for path in trees[1])

    @pytest.mark.parametrize(
        "knobs", [{"metro_flap": "tag=ap,at=30.06,for=0.1"}, {"metro_idle": 500.0}]
    )
    def test_flap_and_idle_stores_byte_identical(self, tmp_path, knobs):
        trees = self._trees(tmp_path, **knobs)
        assert trees[None] == trees[1] == trees[2] == trees[4]

    def test_frame_in_flight_during_boundary_flap(self):
        # The flap window sits inside the send schedule, so request/reply
        # frames are crossing the core link — some mid-serialization — when
        # the cable drops.  Sender-side drop authority must agree with the
        # full build's staged transmission-done check.
        knobs = dict(metro_flap="tag=ap,at=30.06,for=0.1")
        _r1, res1 = _run(1, **knobs)
        _r2, res2 = _run(2, **knobs)
        assert _cells(res1) == _cells(res2)
        flapped = res1.family("metro_load")["ap"]
        assert flapped.timeouts > 0
        clean = res1.family("metro_load")["al"]
        assert clean.timeouts == 0

    def test_lazy_expiry_fires_in_quiet_epoch(self):
        # A 500 s mid-schedule idle pushes every binding (CGN UDP timeout
        # 120 s, gateway bidirectional 152-202 s for these tags) through
        # lazy expiry.  The timers fire in sync epochs with zero boundary
        # traffic — the idle-jump must still advance every island past them
        # in lockstep, and the expiry counters must match the full build.
        knobs = dict(metro_idle=500.0)
        _r1, res1 = _run(1, **knobs)
        _r2, res2 = _run(2, **knobs)
        assert _cells(res1) == _cells(res2)
        for tag in TAGS:
            cell = res1.family("metro_load")[tag]
            assert cell.cgn_bindings_expired > 0
            assert cell.gw_bindings_expired > 0
            assert cell.timeouts == 0  # expiry costs bindings, not replies

    def test_partitioned_resume_byte_identical(self, tmp_path):
        full = tmp_path / "full"
        runner = SurveyRunner(
            profiles=_profiles(), seed=11, partitions=1,
            cgn_subscribers=2, store_dir=str(full),
        )
        runner.run(["metro_load"])
        resumed = tmp_path / "resumed"
        shutil.copytree(full, resumed)
        for tag in ("ap", "be1"):
            (resumed / "cells" / tag / "metro_load.json").unlink()
        runner = SurveyRunner(
            profiles=_profiles(), seed=11, partitions=2,
            cgn_subscribers=2, store_dir=str(resumed), resume=True,
        )
        runner.run(["metro_load"])
        assert runner.last_skipped_cells == 2
        assert _tree(resumed) == _tree(full)

    def test_survey_engine_writes_identical_store(self, tmp_path):
        # The per-device shard engine (each tag a 1-segment metro in its own
        # simulation, its own shard seed) and the partitioned engine must be
        # interchangeable producers of the same store.
        survey_store = tmp_path / "survey"
        SurveyRunner(
            profiles=_profiles(), seed=11, cgn_subscribers=2,
            store_dir=str(survey_store),
        ).run(["metro_load"])
        partition_store = tmp_path / "partition"
        SurveyRunner(
            profiles=_profiles(), seed=11, partitions=2,
            cgn_subscribers=2, store_dir=str(partition_store),
        ).run(["metro_load"])
        assert _tree(survey_store) == _tree(partition_store)

    def test_results_seed_independent(self):
        _r, res_a = _run(2, seed=11)
        _r, res_b = _run(2, seed=99)
        assert _cells(res_a) == _cells(res_b)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_mixed_campaign_byte_identical(self, tmp_path, jobs):
        # udp1 cannot be partitioned: it stays in the per-device shard plan
        # (across a process pool at jobs=2) while metro_load runs once
        # through the hub.  The store must not tell the two engines apart.
        stores = {}
        for partitions in (None, 2):
            store = tmp_path / f"p{partitions}"
            runner = SurveyRunner(
                profiles=_profiles(), seed=11, partitions=partitions, jobs=jobs,
                udp_repetitions=1, cgn_subscribers=2, store_dir=str(store),
            )
            results = runner.run(["udp1", "metro_load"])
            assert results.complete
            assert set(results.families) >= {"udp1", "udp4", "metro_load"}
            stores[partitions] = _tree(store)
        assert stores[None] == stores[2]
        assert any(path.endswith("/udp1.json") for path in stores[2])
        assert runner.last_partition.partitions == 2
        assert runner.last_partition.sync_rounds > 0
        assert runner.last_partition.boundary_frames > 0

    def test_partitions_stay_out_of_the_fingerprint(self):
        fingerprints = {
            SurveyRunner(profiles=_profiles(), partitions=partitions).fingerprint()
            for partitions in (None, 1, 2, 4)
        }
        assert len(fingerprints) == 1


class TestPartitionedValidation:
    def test_rejects_unknown_family(self):
        runner = SurveyRunner(profiles=_profiles(), partitions=2)
        with pytest.raises(ValueError, match="unknown experiment families"):
            runner.run(["udp9"])

    def test_rejects_chaos(self):
        from repro.netsim.impair import Impairment

        with pytest.raises(PartitionError, match="impairment or faults"):
            SurveyRunner(
                profiles=_profiles(), partitions=2,
                impairment=Impairment.parse("loss=0.01"),
            )


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
