"""The carrier-grade NAT tier: allocator, topology, and the CGN families.

The acceptance property of ``cgn_timeouts`` lives here: the effective
end-to-end binding timeout of a NAT444 chain is the *minimum across tiers*,
and the probe must rediscover it — perturbing either tier's provisioned
timeout moves the measured value, with no code computing a min anywhere.
"""

import json

import pytest

from repro.cgn import CgnPolicy, Nat444Topology, PortBlockAllocator, cgn_device_profile
from repro.cgn.families import (
    CgnExhaustionProbe,
    CgnExhaustionResult,
    CgnTimeoutProbe,
    CgnTimeoutResult,
    Nat444Knobs,
    cgn_policy_for,
    jain_fairness,
    nat444_factory,
)
from repro.core import registry
from repro.core.store import CampaignStore
from repro.core.survey import SurveyRunner
from repro.devices.profile import TcpTimeoutPolicy, UdpTimeoutPolicy
from repro.gateway.nat import NatEngine
from repro.netsim.sim import Simulation
from repro.testbed.wiring import ACCESS_POOL_HOMES
from tests.conftest import assert_distinct_host_leases, make_profile

from ipaddress import IPv4Address

SUB_A = IPv4Address("100.65.0.10")
SUB_B = IPv4Address("100.65.0.11")
REMOTE = (IPv4Address("10.100.1.1"), 34700)

CGN_FAMILIES = ["cgn_timeouts", "cgn_exhaustion"]


def _engine_with_allocator(policy: CgnPolicy):
    sim = Simulation(seed=7)
    nat = NatEngine(sim, cgn_device_profile(policy))
    allocator = PortBlockAllocator(nat, policy)
    nat.allocator = allocator
    return nat, allocator


class TestPortBlockAllocator:
    def test_ports_come_from_the_subscribers_block(self):
        policy = CgnPolicy(block_size=4, blocks_per_subscriber=2, pool_ports=16)
        nat, allocator = _engine_with_allocator(policy)
        ports = [
            nat.lookup_or_create("udp", SUB_A, 5000 + i, REMOTE).ext_port
            for i in range(4)
        ]
        # All four land in one contiguous block of the pool.
        block = (ports[0] - policy.first_external_port) // policy.block_size
        start = policy.first_external_port + block * policy.block_size
        assert sorted(ports) == list(range(start, start + 4))
        assert allocator.blocks_allocated == 1

    def test_paired_pooling_is_a_pure_function_of_the_subscriber(self):
        policy = CgnPolicy(block_size=4, pool_ports=32)
        nat1, _ = _engine_with_allocator(policy)
        nat2, _ = _engine_with_allocator(policy)
        p1 = nat1.lookup_or_create("udp", SUB_A, 5000, REMOTE).ext_port
        p2 = nat2.lookup_or_create("udp", SUB_A, 5000, REMOTE).ext_port
        assert p1 == p2  # same subscriber, same preferred block, no RNG

    def test_quota_exhaustion_refuses_with_cause(self):
        policy = CgnPolicy(block_size=2, blocks_per_subscriber=1, pool_ports=8)
        nat, allocator = _engine_with_allocator(policy)
        assert nat.lookup_or_create("udp", SUB_A, 5000, REMOTE) is not None
        assert nat.lookup_or_create("udp", SUB_A, 5001, REMOTE) is not None
        assert nat.lookup_or_create("udp", SUB_A, 5002, REMOTE) is None
        assert nat.last_refusal == "port_exhausted"
        assert nat.bindings_port_exhausted == 1
        assert allocator.exhaustions == 1
        # The pool still has blocks: another subscriber is unaffected.
        assert nat.lookup_or_create("udp", SUB_B, 5000, REMOTE) is not None

    def test_pool_exhaustion_refuses_every_subscriber(self):
        policy = CgnPolicy(block_size=2, blocks_per_subscriber=4, pool_ports=4)
        nat, allocator = _engine_with_allocator(policy)
        for port in range(5000, 5004):  # 4 flows = 2 blocks = whole pool
            assert nat.lookup_or_create("udp", SUB_A, port, REMOTE) is not None
        assert nat.lookup_or_create("udp", SUB_B, 5000, REMOTE) is None
        assert allocator.exhaustions == 1

    def test_block_released_when_its_last_binding_goes(self):
        policy = CgnPolicy(block_size=2, blocks_per_subscriber=4, pool_ports=4)
        nat, allocator = _engine_with_allocator(policy)
        bindings = [nat.lookup_or_create("udp", SUB_A, 5000 + i, REMOTE) for i in range(4)]
        nat.remove_binding(bindings[0])
        assert allocator.blocks_released == 0  # block still half full
        nat.remove_binding(bindings[1])
        assert allocator.blocks_released == 1
        # The freed block is available to another subscriber now.
        assert nat.lookup_or_create("udp", SUB_B, 5000, REMOTE) is not None

    def test_flush_resets_block_ownership(self):
        policy = CgnPolicy(block_size=2, blocks_per_subscriber=1, pool_ports=4)
        nat, allocator = _engine_with_allocator(policy)
        nat.lookup_or_create("udp", SUB_A, 5000, REMOTE)
        nat.flush()
        assert allocator.blocks_allocated == 1
        # Post-crash the subscriber starts from a clean quota.
        assert nat.lookup_or_create("udp", SUB_A, 5000, REMOTE) is not None
        assert allocator.blocks_allocated == 2

    def test_udp_and_tcp_pools_are_independent(self):
        policy = CgnPolicy(block_size=2, blocks_per_subscriber=1, pool_ports=4)
        nat, _ = _engine_with_allocator(policy)
        udp = {nat.lookup_or_create("udp", SUB_A, 5000 + i, REMOTE).ext_port for i in range(2)}
        tcp = {nat.lookup_or_create("tcp", SUB_A, 5000 + i, REMOTE).ext_port for i in range(2)}
        assert len(udp) == len(tcp) == 2  # same port numbers may repeat across protos

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="multiple"):
            CgnPolicy(block_size=64, pool_ports=100)
        with pytest.raises(ValueError, match="port space"):
            CgnPolicy(first_external_port=65000, pool_ports=1024, block_size=64)
        with pytest.raises(ValueError, match="pooling"):
            CgnPolicy(pooling="roundrobin")


class TestTopology:
    def test_builds_and_addresses_deterministically(self):
        profiles = [make_profile("x"), make_profile("y")]
        bed = Nat444Topology.build(profiles, seed=3, subscribers=2)
        assert bed.tags() == ["x", "y"]
        assert str(bed.client_ip("x", 1)) == "192.168.1.100"
        assert str(bed.client_ip("x", 2)) == "192.168.2.100"
        assert str(bed.client_ip("y", 1)) == "192.168.3.100"
        # Each CGN leased a public address on its segment's /24.
        for number, tag in enumerate(bed.tags(), start=1):
            cgn = bed.segment(tag).cgn
            assert cgn.wan_ip in bed.segment(tag).wan_network
            assert str(bed.segment(tag).server_ip) == f"10.100.{number}.1"

    def test_population_bounds_enforced(self):
        with pytest.raises(ValueError, match="at least one subscriber"):
            Nat444Topology(Simulation(seed=0), [make_profile("x")], subscribers=0)
        with pytest.raises(ValueError, match="address plan"):
            Nat444Topology(Simulation(seed=0), [make_profile("x")], subscribers=255)

    def test_access_pool_at_its_cap(self):
        """A segment of 253 homes leases every host address but the CGN's; one more is refused."""
        bed = Nat444Topology.build([make_profile("x")], seed=3, subscribers=ACCESS_POOL_HOMES)
        assert_distinct_host_leases(bed.segment("x"))
        with pytest.raises(ValueError, match=f"access pool leases at most {ACCESS_POOL_HOMES} homes"):
            Nat444Topology(Simulation(seed=0), [make_profile("x")], subscribers=ACCESS_POOL_HOMES + 1)


class TestEmergentTimeout:
    """The acceptance criterion: min-across-tiers by probing, not arithmetic."""

    def _measure(self, home_udp: float, cgn_udp: float, home_tcp: float = 300.0,
                 cgn_tcp: float = 2400.0):
        profile = make_profile(
            "dev",
            udp_timeouts=UdpTimeoutPolicy(home_udp, home_udp, home_udp),
            tcp_timeouts=TcpTimeoutPolicy(established=home_tcp, transitory=60.0),
        )
        policy = CgnPolicy(udp_timeout=cgn_udp, tcp_established_timeout=cgn_tcp,
                           pool_ports=256, block_size=16)
        bed = Nat444Topology.build([profile], seed=11, subscribers=2, cgn_policy=policy)
        probe = CgnTimeoutProbe(udp_cutoff=200.0, tcp_cutoff=600.0)
        result = probe.run_all(bed)["dev"]
        assert result.udp_samples and result.tcp_samples
        return result.udp_samples[0], result.tcp_samples[0]

    def test_home_tier_is_the_binding_constraint(self):
        udp, tcp = self._measure(home_udp=60.0, cgn_udp=120.0)
        assert 55.0 <= udp <= 65.0  # the 60 s home tier expires first
        assert 290.0 <= tcp <= 310.0  # home TCP established=300 < CGN 2400

    def test_perturbing_the_cgn_tier_moves_the_measurement(self):
        # Same homes; drop the CGN's UDP timeout below theirs.  The probe
        # has no notion of tiers — the new effective timeout must emerge.
        udp, _tcp = self._measure(home_udp=60.0, cgn_udp=30.0)
        assert 25.0 <= udp <= 35.0

    def test_result_carries_population_shape(self):
        profile = make_profile("dev", udp_timeouts=UdpTimeoutPolicy(20.0, 20.0, 20.0),
                               tcp_timeouts=TcpTimeoutPolicy(established=60.0, transitory=30.0))
        bed = Nat444Topology.build([profile], seed=1, subscribers=3,
                                   cgn_policy=CgnPolicy(block_size=8, pool_ports=64))
        result = CgnTimeoutProbe(udp_cutoff=50.0, tcp_cutoff=120.0).run_all(bed)["dev"]
        assert result.subscribers == 3
        assert result.block_size == 8


class TestExhaustionRamp:
    def _bed(self, subscribers, policy):
        profile = make_profile("dev")
        return Nat444Topology.build([profile], seed=5, subscribers=subscribers,
                                    cgn_policy=policy)

    def test_pool_bound_exhaustion_is_fair(self):
        # 4 blocks of 8 shared by 4 subscribers with a 2-block quota: the
        # pool (32 ports) drains before any quota does.
        policy = CgnPolicy(block_size=8, blocks_per_subscriber=2, pool_ports=32)
        bed = self._bed(4, policy)
        result = CgnExhaustionProbe().run_all(bed)["dev"]
        assert result.flows_established == [8, 8, 8, 8]
        assert result.blocked_onset == [9, 9, 9, 9]
        assert result.fairness == pytest.approx(1.0)
        assert result.total_flows == policy.pool_ports
        cgn = bed.segment("dev").cgn
        assert cgn.allocator.exhaustions == 4
        assert cgn.nat.bindings_port_exhausted == 4

    def test_quota_bound_exhaustion_leaves_pool_headroom(self):
        # A one-block quota cuts every subscriber off at block_size flows
        # while half the pool is still free.
        policy = CgnPolicy(block_size=4, blocks_per_subscriber=1, pool_ports=32)
        bed = self._bed(4, policy)
        result = CgnExhaustionProbe().run_all(bed)["dev"]
        assert result.flows_established == [4, 4, 4, 4]
        assert result.blocked_onset == [5, 5, 5, 5]
        assert result.total_flows == 16 < policy.pool_ports

    def test_jain_fairness(self):
        assert jain_fairness([]) == 0.0
        assert jain_fairness([0, 0]) == 0.0
        assert jain_fairness([5, 5, 5]) == pytest.approx(1.0)
        assert jain_fairness([10, 0]) == pytest.approx(0.5)


class TestRegistryWiring:
    def test_families_registered_but_not_default(self):
        for name in CGN_FAMILIES:
            fam = registry.family(name)
            assert fam.runnable
            assert not fam.default_selected
            assert fam.testbed_factory is nat444_factory
            assert name not in registry.default_names()

    def test_policy_derived_from_knobs_is_pool_bound(self):
        policy = cgn_policy_for(Nat444Knobs(cgn_subscribers=4, cgn_block_size=8))
        assert policy.block_size == 8
        assert policy.pool_ports == 2 * 4 * 8
        # Two blocks per subscriber on average, under a four-block quota:
        # the shared pool, not the quota, is the binding constraint.
        assert policy.block_count < 4 * policy.blocks_per_subscriber

    def test_codecs_round_trip_exactly(self):
        timeouts = CgnTimeoutResult(
            "dev", subscribers=4, block_size=8,
            udp_samples=[53.7, 54.1], udp_censored=1, udp_cutoff=780.0,
            tcp_samples=[599.4], tcp_censored=0, tcp_cutoff=3600.0,
        )
        exhaustion = CgnExhaustionResult(
            "dev", subscribers=3, block_size=8, pool_ports=48,
            flows_established=[16, 16, 15], blocked_onset=[17, None, 16],
            rounds=17, fairness=0.9995,
        )
        for name, cell in (("cgn_timeouts", timeouts), ("cgn_exhaustion", exhaustion)):
            fam = registry.family(name)
            restored = fam.decode(json.loads(json.dumps(fam.encode(cell))))
            assert restored == cell
            assert type(restored) is type(cell)


def _cgn_runner(jobs=1, **kwargs):
    profiles = [
        make_profile("quick", udp_timeouts=UdpTimeoutPolicy(30.0, 30.0, 30.0),
                     tcp_timeouts=TcpTimeoutPolicy(established=120.0, transitory=30.0)),
        make_profile("slow", udp_timeouts=UdpTimeoutPolicy(90.0, 90.0, 90.0),
                     tcp_timeouts=TcpTimeoutPolicy(established=200.0, transitory=30.0)),
    ]
    return SurveyRunner(
        profiles, udp_repetitions=1, udp5_repetitions=1, tcp1_cutoff=300.0,
        transfer_bytes=256 * 1024, cgn_subscribers=2, cgn_block_size=8,
        jobs=jobs, **kwargs,
    )


def _tree(root):
    import pathlib

    root = pathlib.Path(root)
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*.json"))
    }


class TestCgnCampaign:
    """The CGN families ride the campaign machinery: shards, store, resume."""

    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("cgn-campaign") / "clean"
        runner = _cgn_runner(jobs=1, store_dir=str(out))
        return runner.run(tests=CGN_FAMILIES), out

    def test_results_populated_per_device(self, clean):
        results, _out = clean
        for tag in ("quick", "slow"):
            timeout_cell = results.family("cgn_timeouts")[tag]
            assert timeout_cell.udp_samples or timeout_cell.udp_censored
            exhaustion_cell = results.family("cgn_exhaustion")[tag]
            assert exhaustion_cell.total_flows > 0

    def test_jobs_n_store_matches_jobs_1(self, clean, tmp_path):
        _results, clean_out = clean
        out = tmp_path / "par"
        _cgn_runner(jobs=2, store_dir=str(out)).run(tests=CGN_FAMILIES)
        assert _tree(out) == _tree(clean_out)

    def test_interrupted_then_resumed_is_identical(self, clean, tmp_path):
        clean_results, clean_out = clean
        out = tmp_path / "resumed"
        _cgn_runner(jobs=2, store_dir=str(out)).run(tests=CGN_FAMILIES[:1])
        (out / CampaignStore.CELL_DIR / "slow" / "cgn_timeouts.json").unlink(missing_ok=True)
        (out / CampaignStore.MANIFEST).write_bytes(
            (clean_out / CampaignStore.MANIFEST).read_bytes()
        )
        resumer = _cgn_runner(jobs=2, store_dir=str(out), resume=True)
        resumed = resumer.run(tests=CGN_FAMILIES)
        assert resumer.last_skipped_cells > 0
        assert resumed == clean_results
        assert _tree(out) == _tree(clean_out)

    def test_report_renders_cgn_section_without_simulation(self, clean):
        from repro.analysis import render_report

        _results, out = clean
        store = CampaignStore.open(str(out))
        loaded = store.load_results()
        before = Simulation.constructed_total
        report = render_report(loaded)
        assert Simulation.constructed_total == before
        assert "## NAT444: behind a carrier-grade NAT" in report
        assert "| quick |" in report and "| slow |" in report
        assert "fairness" in report
