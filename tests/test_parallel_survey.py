"""Parallel survey sharding: determinism, merging, stats, and fallback."""

import warnings

import pytest

from repro.core import SimStats, SurveyRunner, merge_shards, run_shards, shard_seed
from repro.core.parallel import ShardSpec, _run_shard
from repro.core.survey import SurveyResults
from repro.devices.profile import NatPolicy, UdpTimeoutPolicy
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
            assert getattr(serial, family) == getattr(parallel, family), family

    def test_dataclass_equality_ignores_stats(self, serial, parallel):
        # stats carries wall-clock and differs between runs; measurement
        # equality is what SurveyResults.__eq__ compares.
        assert serial == parallel
        assert serial.stats is not None and parallel.stats is not None
        assert serial.stats.wall_seconds != parallel.stats.wall_seconds or True

    def test_device_order_preserved(self, serial, parallel):
        assert list(serial.udp1) == ["quick", "slow"]
        assert list(parallel.udp1) == ["quick", "slow"]

    def test_stats_populated(self, serial):
        stats = serial.stats
        assert stats.events_processed > 0
        assert stats.wall_seconds > 0
        assert stats.events_per_sec > 0
        assert set(stats.family_wall) == set(FAMILIES)
        assert set(stats.family_events) == set(FAMILIES)
        assert stats.jobs == 1


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
        assert solo.udp1["slow"] == full.udp1["slow"]
        assert solo.udp4["slow"] == full.udp4["slow"]


class TestMergeAndFallback:
    def test_merge_shards_orders_and_nests(self):
        a, b = SurveyResults(), SurveyResults()
        a.udp1 = {"a": 1}
        b.udp1 = {"b": 2}
        a.udp5 = {"dns": {"a": 10}}
        b.udp5 = {"dns": {"b": 20}, "ntp": {"b": 30}}
        merged = merge_shards([a, b])
        assert list(merged.udp1) == ["a", "b"]
        assert merged.udp5 == {"dns": {"a": 10, "b": 20}, "ntp": {"b": 30}}

    def test_run_shards_serial_path(self):
        profile = _make_profiles()[0]
        spec = ShardSpec(profile=profile, seed=shard_seed(0, profile.tag),
                         tests=("icmp",), config={"udp_repetitions": 1})
        outcomes = run_shards([spec], jobs=1)
        assert len(outcomes) == 1
        results, stats = outcomes[0]
        assert set(results.icmp) == {"quick"}
        assert isinstance(stats, SimStats)

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        import repro.core.parallel as parallel_mod

        def broken_pool(*args, **kwargs):
            raise OSError("no semaphores in this sandbox")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", broken_pool)
        profile = _make_profiles()[0]
        specs = [
            ShardSpec(profile=profile, seed=shard_seed(0, profile.tag),
                      tests=("icmp",), config={"udp_repetitions": 1}),
            ShardSpec(profile=_make_profiles()[1], seed=shard_seed(0, "slow"),
                      tests=("icmp",), config={"udp_repetitions": 1}),
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcomes = run_shards(specs, jobs=4)
        assert len(outcomes) == 2
        assert any("falling back to serial" in str(w.message) for w in caught)

    def test_worker_entrypoint_matches_inline_run(self):
        profile = _make_profiles()[0]
        spec = ShardSpec(
            profile=profile, seed=shard_seed(7, profile.tag), tests=("icmp",),
            config={"udp_repetitions": 1, "udp5_repetitions": 1,
                    "tcp1_cutoff": 300.0, "transfer_bytes": 256 * 1024},
        )
        direct, _ = _run_shard(spec)
        runner = SurveyRunner([profile], seed=shard_seed(7, profile.tag),
                              udp_repetitions=1, udp5_repetitions=1,
                              tcp1_cutoff=300.0, transfer_bytes=256 * 1024)
        inline, _ = runner.run_shard(("icmp",))
        assert direct == inline


def test_duplicate_tags_rejected():
    with pytest.raises(ValueError):
        SurveyRunner([make_profile("dup"), make_profile("dup")])
