"""Parallel survey sharding: determinism, the one result path, stats, and fallback."""

import pathlib
import pickle
import shutil
import subprocess
import sys
import textwrap
import warnings

import pytest

import repro.core.parallel as parallel_mod
from repro.core import SimStats, SurveyRunner, run_shards, shard_seed
from repro.core.registry import Subject
from repro.core.store import CampaignStore
from repro.devices import catalog_profiles
from repro.devices.profile import NatPolicy, UdpTimeoutPolicy
from repro.netsim.impair import Impairment
from tests.conftest import make_profile

FAMILIES = ["udp1", "tcp2", "icmp", "transports"]


def _make_profiles():
    return [
        make_profile("quick", udp_timeouts=UdpTimeoutPolicy(30.0, 60.0, 90.0),
                     nat=NatPolicy(max_tcp_bindings=20)),
        make_profile("slow", udp_timeouts=UdpTimeoutPolicy(120.0, 150.0, 180.0),
                     nat=NatPolicy(max_tcp_bindings=50)),
    ]


def _make_runner(jobs):
    return SurveyRunner(
        _make_profiles(), udp_repetitions=1, udp5_repetitions=1,
        tcp1_cutoff=300.0, transfer_bytes=256 * 1024, jobs=jobs,
    )


class TestParallelEqualsSerial:
    """The determinism regression guard: jobs=N ≡ jobs=1, field for field."""

    @pytest.fixture(scope="class")
    def serial(self):
        return _make_runner(jobs=1).run(FAMILIES)

    @pytest.fixture(scope="class")
    def parallel(self):
        return _make_runner(jobs=4).run(FAMILIES)

    def test_results_equal_field_for_field(self, serial, parallel):
        for family in ("udp1", "udp2", "udp3", "udp4", "udp5", "tcp1",
                       "tcp2", "tcp4", "icmp", "transports", "dns"):
            assert serial.family(family) == parallel.family(family), family

    def test_dataclass_equality_ignores_stats(self, serial, parallel):
        # stats carries wall-clock and differs between runs; measurement
        # equality is what SurveyResults.__eq__ compares.
        assert serial == parallel
        assert serial.stats is not None and parallel.stats is not None
        assert serial.stats.wall_seconds != parallel.stats.wall_seconds or True

    def test_device_order_preserved(self, serial, parallel):
        assert list(serial.family("udp1")) == ["quick", "slow"]
        assert list(parallel.family("udp1")) == ["quick", "slow"]

    def test_stats_populated(self, serial):
        stats = serial.stats
        assert stats.events_processed > 0
        assert stats.wall_seconds > 0
        assert stats.events_per_sec > 0
        assert set(stats.family_wall) == set(FAMILIES)
        assert set(stats.family_events) == set(FAMILIES)
        assert stats.jobs == 1

    def test_setup_time_is_kept_apart_and_counted_in_the_rate(self, serial, parallel):
        for stats in (serial.stats, parallel.stats):
            assert set(stats.family_setup) == set(FAMILIES)
            assert stats.setup_seconds > 0
            # Bring-up events ran in setup time, so the rate divides by both.
            assert stats.events_per_sec == stats.events_processed / (stats.wall_seconds + stats.setup_seconds)


class TestShardSeeds:
    def test_tag_derived_and_stable(self):
        assert shard_seed(0, "quick") == shard_seed(0, "quick")
        assert shard_seed(0, "quick") != shard_seed(0, "slow")
        assert shard_seed(0, "quick") != shard_seed(1, "quick")

    def test_subset_reproduces_full_campaign_results(self):
        """A device measures identically alone and within the population."""
        full = _make_runner(jobs=1).run(["udp1"])
        solo = SurveyRunner(
            [_make_profiles()[1]], udp_repetitions=1, udp5_repetitions=1,
            tcp1_cutoff=300.0, transfer_bytes=256 * 1024,
        ).run(["udp1"])
        assert solo.family("udp1")["slow"] == full.family("udp1")["slow"]
        assert solo.family("udp4")["slow"] == full.family("udp4")["slow"]


class TestMergeAndFallback:
    """``run_shards`` on the campaign's own runner: serial path, pool fallback, worker entry point."""

    def test_run_shards_serial_path(self):
        quick = Subject.device(_make_profiles()[0])
        outcomes = run_shards(_make_runner(jobs=1), [(quick, ("icmp",))], jobs=1)
        assert len(outcomes) == 1
        cells, stats, _metrics, error = outcomes[0]
        assert error is None
        assert set(cells) == {("quick", "icmp")}
        assert isinstance(stats, SimStats)

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        def broken_pool(*args, **kwargs):
            raise OSError("no semaphores in this sandbox")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", broken_pool)
        plan = [(Subject.device(profile), ("icmp",)) for profile in _make_profiles()]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcomes = run_shards(_make_runner(jobs=4), plan, jobs=4)
        assert len(outcomes) == 2
        assert any("falling back to serial" in str(w.message) for w in caught)

    def test_worker_entrypoint_matches_inline_run(self, monkeypatch):
        # A worker gets the runner once, pickled, and runs every shard on it.
        runner = SurveyRunner(_make_profiles(), seed=7, udp_repetitions=1, udp5_repetitions=1,
                              tcp1_cutoff=300.0, transfer_bytes=256 * 1024)
        subject = Subject.device(_make_profiles()[0])
        monkeypatch.setattr(parallel_mod, "_WORKER_RUNNER", None)
        parallel_mod._adopt(pickle.loads(pickle.dumps(runner)))
        direct = parallel_mod._run_adopted(subject, ("icmp",))
        inline = runner.run_shard(("icmp",), subject=subject)
        assert direct.cells == inline.cells


#: The one-path campaign: device families (UDP-5's cell nests its services,
#: UDP-4 is derived) and a non-device family, on two devices.
ONE_PATH_FAMILIES = ["udp1", "udp5", "transports", "traversal_matrix"]


def _one_path_runner(jobs, **store):
    return SurveyRunner(catalog_profiles(["al", "be1"]), udp_repetitions=1, udp5_repetitions=1,
                        jobs=jobs, **store)


def _knock_out_one_cell_per_family(root):
    store = CampaignStore.open(root)
    for family, subject in (("udp1", "al"), ("udp5", "be1"), ("transports", "al"),
                            ("traversal_matrix", "be1+al")):
        store.cell_path(subject, family).unlink()


class TestOnePath:
    """``run()`` returns what ``report --from`` decodes: jobs 1 and 2, without a store, with one, resumed."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("one-path")
        runs = {}
        for jobs in (1, 2):
            runs[f"jobs{jobs}"] = (_one_path_runner(jobs).run(ONE_PATH_FAMILIES), root / "store1")
            store = root / f"store{jobs}"
            runs[f"jobs{jobs}-store"] = (
                _one_path_runner(jobs, store_dir=str(store)).run(ONE_PATH_FAMILIES), store
            )
            resumed = root / f"resumed{jobs}"
            shutil.copytree(store, resumed)
            _knock_out_one_cell_per_family(resumed)
            runner = _one_path_runner(jobs, store_dir=str(resumed), resume=True)
            runs[f"jobs{jobs}-resumed"] = (runner.run(ONE_PATH_FAMILIES), resumed)
            # Three device families on two devices and two pairs, less one cell per family.
            assert runner.last_skipped_cells == 3 * 2 + 2 - 4
        return runs

    @pytest.mark.parametrize("variant", ["jobs1", "jobs1-store", "jobs1-resumed",
                                         "jobs2", "jobs2-store", "jobs2-resumed"])
    def test_run_equals_the_store_decode(self, runs, variant):
        results, store = runs[variant]
        loaded = CampaignStore.open(store).load_results()
        assert results == loaded and not results.errors
        assert list(results.families) == list(loaded.families)
        for name, mapping in loaded.families.items():
            assert repr(results.family(name)) == repr(mapping), name

    def test_subjects_in_campaign_order_and_udp5_nested(self, runs):
        loaded = CampaignStore.open(runs["jobs1-store"][1]).load_results()
        assert list(loaded.families) == ["udp1", "udp4", "udp5", "transports", "traversal_matrix"]
        for name in ("udp1", "udp4", "udp5", "transports"):
            assert list(loaded.family(name)) == ["al", "be1"], name
        assert list(loaded.family("traversal_matrix")) == ["al+be1", "be1+al"]
        for cell in loaded.family("udp5").values():
            assert list(cell) == ["dns", "http", "ntp", "snmp", "tftp"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_bed_that_fails_to_build_fails_only_its_family(tmp_path, jobs):
    """metro_load refuses an impairment while building its bed; each shard keeps the udp1 and udp4 cells before it."""
    runner = SurveyRunner(
        catalog_profiles(["al", "be1"]), udp_repetitions=1, cgn_subscribers=2, jobs=jobs,
        impairment=Impairment.parse("dup=0.001"), store_dir=str(tmp_path),
    )
    results = runner.run(["udp1", "metro_load"])
    loaded = CampaignStore.open(tmp_path).load_results()
    assert results.families == loaded.families
    assert list(results.families) == ["udp1", "udp4"]
    failures = [(error.tag, error.family) for error in results.errors]
    assert failures == [(error.tag, error.family) for error in loaded.errors]
    assert failures == [("al", "metro_load"), ("be1", "metro_load")]
    assert "metro_load does not support --impair" in results.errors[0].message


def test_spawned_workers_match_jobs_1():
    """A fresh interpreter under the ``spawn`` start method: workers unpickle the runner, no serial fallback."""
    code = textwrap.dedent("""
        import multiprocessing, warnings
        from repro.core import SurveyRunner
        from repro.devices import catalog_profiles

        def run(jobs):
            runner = SurveyRunner(catalog_profiles(["al", "be1"]), udp_repetitions=1, jobs=jobs)
            return runner.run(["udp1", "icmp", "traversal_matrix"])

        if __name__ == "__main__":
            multiprocessing.set_start_method("spawn")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                spawned = run(2)
            assert not [str(w.message) for w in caught if "falling back" in str(w.message)]
            assert spawned == run(1) and not spawned.errors, spawned
            print("ok")
    """)
    src = pathlib.Path(parallel_mod.__file__).resolve().parents[2]
    proc = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_duplicate_tags_rejected():
    with pytest.raises(ValueError):
        SurveyRunner([make_profile("dup"), make_profile("dup")])
