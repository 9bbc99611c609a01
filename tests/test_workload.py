"""The subscriber-workload tier: mixes, generator, and both families.

The determinism triangle is the load-bearing property: ``jobs=1``,
``jobs=4`` and an interrupted-then-resumed campaign must write
byte-identical store cells, and the eager fast path must agree with the
staged oracle (``--no-fastpath``).  Alongside it: mix sampling is a pure
function of the seed, the firewall-cost curve is monotone in rule count,
and the codecs round-trip exactly.
"""

import itertools
import random

import pytest

from repro.core import registry
from repro.cgn.families import Nat444Knobs, nat444_factory
from repro.core.store import CampaignStore
from repro.core.survey import SurveyRunner
from repro.devices.profile import ForwardingPolicy
from repro.gateway.forwarding import ForwardingEngine, PER_RULE_COST
from repro.netsim.sim import Simulation
from repro.workload.families import (
    FwCostProbe,
    WorkloadMixProbe,
    default_load_ramp,
    parse_points,
)
from repro.workload.generator import WorkloadGenerator, WorkloadServer
from repro.workload.mixes import MIXES, flows_for_subscriber, mix_for
from tests.conftest import make_profile

WORKLOAD_FAMILIES = ["workload_mix", "fwcost_scaling"]


# ---------------------------------------------------------------------------
# Mix sampling
# ---------------------------------------------------------------------------


class TestMixes:
    def test_known_mixes_and_menu_error(self):
        for name in ("residential", "streaming", "p2p-heavy"):
            assert mix_for(name).name == name
        with pytest.raises(ValueError, match="available mixes"):
            mix_for("gamer")

    def test_sampling_is_a_pure_function_of_the_rng(self):
        mix = MIXES["residential"]
        draws = [
            flows_for_subscriber(mix, random.Random(1234), 2.0, 34800, (34810, 34811))
            for _ in range(2)
        ]
        assert draws[0] == draws[1]
        other = flows_for_subscriber(mix, random.Random(1235), 2.0, 34800, (34810, 34811))
        assert other != draws[0]

    def test_mix_composition_matches_spec(self):
        mix = MIXES["p2p-heavy"]
        flows = flows_for_subscriber(mix, random.Random(7), 2.0, 34800, (34810,))
        by_app = {}
        for flow in flows:
            by_app[flow.app] = by_app.get(flow.app, 0) + 1
        assert by_app == {"web": 2, "voip": 1, "p2p": 14}

    def test_transfer_bound_classification(self):
        mix = MIXES["residential"]
        flows = flows_for_subscriber(mix, random.Random(7), 2.0, 34800, (34810,))
        bound = {flow.app: flow.transfer_bound for flow in flows}
        assert bound == {"web": True, "video": False, "voip": False, "p2p": True}

    def test_parse_points_and_default_ramp(self):
        assert parse_points("1, 2,4") == [1, 2, 4]
        assert default_load_ramp(8) == [1, 2, 4, 8]
        assert default_load_ramp(6) == [1, 2, 4, 6]
        assert default_load_ramp(1) == [1]
        with pytest.raises(ValueError, match="bad"):
            parse_points("1,x")
        with pytest.raises(ValueError, match="empty"):
            parse_points(" , ")


# ---------------------------------------------------------------------------
# Generator state isolation (the PR-3 rule: no module-global counters)
# ---------------------------------------------------------------------------


class TestGeneratorState:
    def _bed(self, seed=7):
        return nat444_factory(Nat444Knobs(cgn_subscribers=2))([make_profile("dev")], seed)

    def test_flow_ids_and_rngs_are_instance_state(self):
        bed = self._bed()
        generator = WorkloadGenerator(bed, mix_for("residential"), itertools.count(1))
        other = WorkloadGenerator(bed, mix_for("residential"), itertools.count(1))
        window = generator.schedule_window("dev", bed.sim.now + 1.0, 1.0, 1, 0.5)
        # A second generator starts its ids from scratch — no process history.
        twin = other.schedule_window("dev", bed.sim.now + 1.0, 1.0, 1, 0.5)
        assert [f.flow_id for f in window._flows] == [f.flow_id for f in twin._flows]
        assert [f.spec for f in window._flows] == [f.spec for f in twin._flows]

    def test_probe_reruns_identically_in_one_process(self):
        # Two runs in the same process must emit identical cells: any
        # module-global counter or RNG would leak the first run's history
        # into the second.
        first = WorkloadMixProbe(ramp_spec="1,2").run_all(self._bed())["dev"]
        second = WorkloadMixProbe(ramp_spec="1,2").run_all(self._bed())["dev"]
        mix = registry.family("workload_mix")
        assert mix.encode(first) == mix.encode(second)

    def test_load_point_beyond_population_rejected(self):
        bed = self._bed()
        generator = WorkloadGenerator(bed, mix_for("residential"), itertools.count(1))
        with pytest.raises(ValueError, match="raise --subscribers"):
            generator.schedule_window("dev", 1.0, 1.0, 3, 0.5)

    def test_server_is_stateless_across_windows(self):
        bed = self._bed()
        server = WorkloadServer(bed)
        generator = WorkloadGenerator(bed, mix_for("residential"), itertools.count(1))
        generator.schedule_window("dev", bed.sim.now + 1.0, 1.0, 2, 0.5)
        bed.sim.run(until=bed.sim.now + 4.0)
        assert server.requests > 0 and server.chunks_sent > 0
        server.detach()


# ---------------------------------------------------------------------------
# Probe results
# ---------------------------------------------------------------------------


class TestWorkloadMixProbe:
    def _run(self, seed=7, **probe_kwargs):
        bed = nat444_factory(Nat444Knobs(cgn_subscribers=4))([make_profile("dev")], seed)
        return WorkloadMixProbe(ramp_spec="1,2,4", **probe_kwargs).run_all(bed)["dev"]

    def test_ramp_shape_and_scaling_signals(self):
        cell = self._run()
        assert [point.subscribers for point in cell.points] == [1, 2, 4]
        for point in cell.points:
            assert point.flows > 0
            assert point.completed <= point.flows
            assert 0 < point.delivered_bytes <= point.offered_bytes
            assert point.goodput_bps > 0
        # Offered load, occupancy and block pressure all grow with the ramp.
        flows = [point.flows for point in cell.points]
        assert flows == sorted(flows) and flows[0] < flows[-1]
        occupancy = [point.cgn_bindings for point in cell.points]
        assert occupancy[0] < occupancy[-1]

    def test_seed_moves_the_mix(self):
        mix = registry.family("workload_mix")
        assert mix.encode(self._run(seed=7)) != mix.encode(self._run(seed=11))

    def test_mix_knob_moves_the_mix(self):
        mix = registry.family("workload_mix")
        assert mix.encode(self._run()) != mix.encode(self._run(mix_name="p2p-heavy"))

    def test_codec_round_trips_exactly(self):
        cell = self._run()
        mix = registry.family("workload_mix")
        restored = mix.decode(mix.encode(cell))
        assert restored == cell
        assert type(restored) is type(cell)


class TestFwCostProbe:
    def _run(self, ramp="0,512,2048", seed=7, profile=None):
        bed = nat444_factory(Nat444Knobs(cgn_subscribers=2))([profile or make_profile("dev")], seed)
        return FwCostProbe(ramp_spec=ramp).run_all(bed)["dev"]

    def test_throughput_declines_monotonically_with_rules(self):
        cell = self._run()
        throughput = [point.throughput_pps for point in cell.rule_points]
        assert all(a >= b for a, b in zip(throughput, throughput[1:]))
        assert throughput[0] > throughput[-1], "top of the ramp must bend the curve"
        rtt = [point.rtt_mean for point in cell.rule_points]
        assert rtt[0] < rtt[-1]

    def test_table_curve_costs_less_than_rule_curve(self):
        # Hashed conntrack walks are cheaper per entry than linear rule
        # scans, so at equal counts the table curve must sit above.
        cell = self._run()
        for rule_point, table_point in zip(cell.rule_points, cell.table_points):
            assert table_point.throughput_pps >= rule_point.throughput_pps

    def test_slower_box_degrades_more(self):
        fast = self._run(profile=make_profile(
            "dev", forwarding=ForwardingPolicy(combined_rate_bps=170e6)))
        slow = self._run(profile=make_profile(
            "dev", forwarding=ForwardingPolicy(combined_rate_bps=150e6)))
        assert slow.rule_points[-1].per_packet_cost > fast.rule_points[-1].per_packet_cost
        assert slow.rule_points[-1].throughput_pps < fast.rule_points[-1].throughput_pps

    def test_all_echoes_eventually_delivered(self):
        cell = self._run()
        for point in cell.rule_points + cell.table_points:
            assert point.delivered == point.sent

    def test_codec_round_trips_exactly(self):
        cell = self._run()
        fwcost = registry.family("fwcost_scaling")
        restored = fwcost.decode(fwcost.encode(cell))
        assert restored == cell
        assert type(restored) is type(cell)


class TestForwardingRuleCost:
    def test_install_ruleset_validates_and_clears(self):
        sim = Simulation(seed=1)
        engine = ForwardingEngine(sim, ForwardingPolicy())
        with pytest.raises(ValueError):
            engine.install_ruleset(-1)
        engine.install_ruleset(100, 50)
        assert engine.rule_count == 100 and engine.conntrack_entries == 50
        assert engine.per_packet_cost() > 0
        assert engine._cpu_bucket is not None
        engine.install_ruleset(0, 0)
        assert engine.per_packet_cost() == 0.0
        assert engine._cpu_bucket is None

    def test_cost_scales_with_cpu_proxy(self):
        sim = Simulation(seed=1)
        reference = ForwardingEngine(sim, ForwardingPolicy(combined_rate_bps=160e6))
        reference.install_ruleset(1000)
        assert reference.per_packet_cost() == pytest.approx(1000 * PER_RULE_COST)
        slow = ForwardingEngine(sim, ForwardingPolicy(combined_rate_bps=80e6))
        slow.install_ruleset(1000)
        assert slow.per_packet_cost() == pytest.approx(2000 * PER_RULE_COST)

    def test_nonzero_cost_disables_eager_kernels(self):
        sim = Simulation(seed=1)
        engine = ForwardingEngine(sim, ForwardingPolicy())
        assert engine._eager_capable
        engine.install_ruleset(10)
        assert not engine._eager_capable
        engine.install_ruleset(0)
        assert engine._eager_capable


# ---------------------------------------------------------------------------
# Registry wiring
# ---------------------------------------------------------------------------


class TestRegistryWiring:
    def test_families_registered_but_not_default(self):
        for name in WORKLOAD_FAMILIES:
            family = registry.family(name)
            assert family.runnable
            assert not family.default_selected
            assert family.testbed_factory is not None
        assert set(WORKLOAD_FAMILIES).isdisjoint(registry.default_names())

    def test_report_section_renders_scaling_tables(self):
        bed = nat444_factory(Nat444Knobs(cgn_subscribers=2))([make_profile("dev")], 7)
        cell = WorkloadMixProbe(ramp_spec="1,2").run_all(bed)["dev"]

        class FakeResults:
            def family(self, name):
                return {"dev": cell} if name == "workload_mix" else {}

        section = next(
            s for s in registry.report_sections() if s.key == "workload"
        )
        text = section.render(FakeResults())
        assert "## Subscriber workload" in text
        assert "| dev | 1 " in text and "| dev | 2 " in text


# ---------------------------------------------------------------------------
# The determinism triangle: jobs=1 == jobs=4 == resumed, fastpath == oracle
# ---------------------------------------------------------------------------


def _workload_runner(jobs=1, fastpath=True, **kwargs):
    profiles = [make_profile("quick"), make_profile("slow")]
    return SurveyRunner(
        profiles, udp_repetitions=1, udp5_repetitions=1, tcp1_cutoff=300.0,
        transfer_bytes=256 * 1024, cgn_subscribers=2, cgn_block_size=8,
        workload_ramp="1,2", fw_rules="0,1024", jobs=jobs, fastpath=fastpath,
        **kwargs,
    )


def _tree(root):
    import pathlib

    root = pathlib.Path(root)
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*.json"))
    }


class TestWorkloadCampaign:
    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("workload-campaign") / "clean"
        runner = _workload_runner(jobs=1, store_dir=str(out))
        return runner.run(tests=WORKLOAD_FAMILIES), out

    def test_results_populated_per_device(self, clean):
        results, _out = clean
        for tag in ("quick", "slow"):
            mix_cell = results.family("workload_mix")[tag]
            assert len(mix_cell.points) == 2
            fw_cell = results.family("fwcost_scaling")[tag]
            assert len(fw_cell.rule_points) == 2

    def test_jobs_n_store_matches_jobs_1(self, clean, tmp_path):
        _results, clean_out = clean
        out = tmp_path / "par"
        _workload_runner(jobs=4, store_dir=str(out)).run(tests=WORKLOAD_FAMILIES)
        assert _tree(out) == _tree(clean_out)

    def test_interrupted_then_resumed_is_identical(self, clean, tmp_path):
        clean_results, clean_out = clean
        out = tmp_path / "resumed"
        _workload_runner(jobs=2, store_dir=str(out)).run(tests=WORKLOAD_FAMILIES[:1])
        (out / CampaignStore.CELL_DIR / "slow" / "workload_mix.json").unlink(missing_ok=True)
        (out / CampaignStore.MANIFEST).write_bytes(
            (clean_out / CampaignStore.MANIFEST).read_bytes()
        )
        resumer = _workload_runner(jobs=2, store_dir=str(out), resume=True)
        resumed = resumer.run(tests=WORKLOAD_FAMILIES)
        assert resumer.last_skipped_cells > 0
        assert resumed == clean_results
        assert _tree(out) == _tree(clean_out)

    def test_staged_oracle_matches_fastpath(self, clean, tmp_path):
        _results, clean_out = clean
        out = tmp_path / "oracle"
        oracle = _workload_runner(jobs=1, fastpath=False, store_dir=str(out)).run(
            tests=WORKLOAD_FAMILIES
        )
        clean_cells = {k: v for k, v in _tree(clean_out).items() if k != "campaign.json"}
        oracle_cells = {k: v for k, v in _tree(out).items() if k != "campaign.json"}
        assert clean_cells == oracle_cells
        # --no-fastpath pins every bed, bring-up included, to the staged engine.
        assert oracle.stats.fastpath_events_saved == 0
        assert oracle.stats.fastpath_windows == 0

    def test_report_renders_workload_section_without_simulation(self, clean):
        from repro.analysis import render_report

        _results, out = clean
        store = CampaignStore.open(str(out))
        loaded = store.load_results()
        before = Simulation.constructed_total
        report = render_report(loaded)
        assert Simulation.constructed_total == before
        assert "## Subscriber workload" in report
        assert "| quick |" in report and "| slow |" in report
