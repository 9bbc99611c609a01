"""The adversarial tier: attacker node, the three families, and their campaign.

The determinism contract the tentpole promises is pinned here the same way
the CGN families pin theirs: the attack families ride the campaign
machinery, so ``jobs=N`` must write byte-identical store trees to
``jobs=1``, an interrupted campaign must resume to the same bytes, and the
staged engine must agree with the eager fast path cell-for-cell.
"""

import json

import pytest

from repro.attack import AttackerNode
from repro.attack.families import (
    ATTACK_SYN_PORT,
    ATTACK_UDP_PORT,
    AttackKeepaliveProbe,
    AttackKeepaliveResult,
    AttackPortfloodProbe,
    AttackPortfloodResult,
    AttackRstProbe,
    AttackRstResult,
)
from repro.cgn.families import Nat444Knobs, nat444_factory
from repro.core import registry
from repro.core.store import CampaignStore
from repro.core.survey import SurveyRunner
from repro.devices.profile import (
    FilteringBehavior,
    NatPolicy,
    TcpTimeoutPolicy,
    UdpTimeoutPolicy,
)
from repro.netsim.sim import Simulation
from tests.conftest import make_profile

registry.ensure_loaded()

ATTACK_FAMILIES = ["attack_portflood", "attack_keepalive", "attack_rst"]

#: Small, fast knobs: 2 subscribers and an 8-port block give the CGN a
#: 32-port pool whose entirety fits inside one subscriber's block quota —
#: the regime where the flood drains the shared pool.
KNOBS = Nat444Knobs(cgn_subscribers=2, cgn_block_size=8)


def _bed(profiles, seed=7):
    return nat444_factory(KNOBS)(profiles, seed)


def _eif(tag="eif", **overrides):
    return make_profile(
        tag,
        udp_timeouts=UdpTimeoutPolicy(30.0, 30.0, 30.0),
        tcp_timeouts=TcpTimeoutPolicy(established=120.0, transitory=60.0),
        nat=NatPolicy(filtering=FilteringBehavior.ENDPOINT_INDEPENDENT),
        **overrides,
    )


def _apdf(tag="apdf", **overrides):
    return make_profile(
        tag,
        udp_timeouts=UdpTimeoutPolicy(30.0, 30.0, 30.0),
        tcp_timeouts=TcpTimeoutPolicy(established=120.0, transitory=60.0),
        nat=NatPolicy(filtering=FilteringBehavior.ADDRESS_AND_PORT_DEPENDENT),
        **overrides,
    )


class TestAttackerNode:
    """The raw injector: deterministic packets, per-primitive counters."""

    def test_counters_track_each_primitive(self):
        bed = _bed([_eif()])
        attacker = AttackerNode(bed.client, bed.client_iface("eif", 1).index)
        client_ip = bed.client_ip("eif", 1)
        server_ip = bed.segment("eif").server_ip
        attacker.send_udp(client_ip, 20000, server_ip, ATTACK_UDP_PORT)
        attacker.send_syn(client_ip, 20001, server_ip, ATTACK_SYN_PORT)
        attacker.send_rst(client_ip, 20002, server_ip, ATTACK_SYN_PORT, seq=1)
        assert (attacker.udp_sent, attacker.syn_sent, attacker.rst_sent) == (1, 1, 1)
        assert attacker.packets_sent == 3

    def test_flood_opens_bindings_at_both_tiers(self):
        bed = _bed([_eif()])
        segment = bed.segment("eif")
        attacker = AttackerNode(bed.client, bed.client_iface("eif", 1).index)
        client_ip = bed.client_ip("eif", 1)
        for i in range(4):
            attacker.send_udp(client_ip, 20000 + i, segment.server_ip, ATTACK_UDP_PORT)
        bed.sim.run_for(1.0)  # bounded: a full run would expire the bindings
        home = segment.homes[0].gateway.nat
        assert home.binding_count("udp") == 4
        assert segment.cgn.nat.binding_count("udp") >= 4  # + management chatter

    def test_shield_swallows_only_its_port_range(self):
        bed = _bed([_eif()])
        attacker = AttackerNode(bed.client, bed.client_iface("eif", 1).index)
        attacker.shield(20000, 20010)
        assert len(bed.client.interceptors) == 1
        attacker.unshield()
        attacker.unshield()  # idempotent
        assert len(bed.client.interceptors) == 0


class TestPortflood:
    def test_flood_exhausts_the_cgn_pool_in_both_protocols(self):
        bed = _bed([_eif()])
        probe = AttackPortfloodProbe(rate=40.0, duration=5.0)
        result = probe.run_all(bed)["eif"]
        assert result.attack_packets == 200
        # 32-port pool == the attacker's quota: the shared pool drains and
        # further flood bindings are refused per protocol.
        assert result.cgn_onset is not None
        assert result.cgn_refused_udp > 0
        assert result.cgn_refused_tcp > 0
        assert result.innocent_flows and 0.0 <= result.fairness <= 1.0

    def test_quota_contains_the_flood_for_innocent_subscribers(self):
        # The innocents' pre-attack flows pin their own port block before
        # the flood starts, so a quota-protected pool keeps them alive —
        # the RFC 6888 containment argument.
        bed = _bed([_eif()])
        result = AttackPortfloodProbe(rate=40.0, duration=5.0).run_all(bed)["eif"]
        assert result.victim_survival == 1.0
        assert all(flows > 0 for flows in result.innocent_flows)

    def test_home_tier_bottleneck_surfaces_with_cause(self):
        # A session table smaller than the flood refuses at the home tier
        # long before the CGN pool is in danger.
        tiny = make_profile(
            "tiny",
            udp_timeouts=UdpTimeoutPolicy(30.0, 30.0, 30.0),
            tcp_timeouts=TcpTimeoutPolicy(established=120.0, transitory=60.0),
            nat=NatPolicy(
                filtering=FilteringBehavior.ENDPOINT_INDEPENDENT,
                max_udp_bindings=8, max_tcp_bindings=8,
            ),
        )
        bed = _bed([tiny])
        result = AttackPortfloodProbe(rate=40.0, duration=5.0).run_all(bed)["tiny"]
        assert result.home_onset is not None
        assert result.home_cause == "table_full"
        assert result.home_refused > 0

    def test_rate_is_validated(self):
        with pytest.raises(ValueError):
            AttackPortfloodProbe(rate=0.0)
        with pytest.raises(ValueError):
            AttackPortfloodProbe(duration=-1.0)


class TestKeepalive:
    def test_open_filtering_lets_spoofs_refresh_victim_bindings(self):
        bed = _bed([_eif()])
        result = AttackKeepaliveProbe().run_all(bed)["eif"]
        assert result.natural_timeout == 30.0
        # The EIF home forwards the spoof: the victim probed *past* its
        # natural timeout is still alive — refreshed from off-path.
        assert result.onset is not None
        assert result.refreshed == result.refreshed_total > 0

    def test_port_dependent_filtering_blocks_the_spoofs(self):
        bed = _bed([_apdf()])
        result = AttackKeepaliveProbe().run_all(bed)["apdf"]
        # The blind source port never matches: the home filters every
        # spoof, the binding ages naturally, the late victim is dead.
        assert result.home_filtered > 0
        assert result.onset is None
        assert result.refreshed == 0 and result.refreshed_total > 0

    def test_state_shift_evicts_before_the_natural_timeout(self):
        # after_inbound far shorter than outbound_only: the spoof that
        # *refreshes* an open device's binding also shifts its state, and
        # the shorter timeout evicts the flow before its natural deadline.
        shifty = make_profile(
            "shifty",
            udp_timeouts=UdpTimeoutPolicy(60.0, 5.0, 60.0),
            tcp_timeouts=TcpTimeoutPolicy(established=120.0, transitory=60.0),
            nat=NatPolicy(filtering=FilteringBehavior.ENDPOINT_INDEPENDENT),
        )
        bed = _bed([shifty])
        result = AttackKeepaliveProbe().run_all(bed)["shifty"]
        assert result.evicted == result.evicted_total > 0


class TestRst:
    def test_blind_rsts_tear_nat_bindings_but_not_endpoints(self):
        bed = _bed([_eif()])
        result = AttackRstProbe(rate=40.0).run_all(bed)["eif"]
        assert result.victims == 2
        # The ReDAN asymmetry: every swept binding dies at the CGN (no
        # sequence check in a NAT), yet no endpoint resets (RFC 793
        # window check rejects the blind sequence number).
        assert result.cgn_torn == result.victims
        assert result.victims_reset == 0
        assert result.victim_survival == 0.0
        assert result.onset is not None

    def test_defensive_home_filters_the_spoof_but_cannot_save_the_chain(self):
        bed = _bed([_apdf()])
        result = AttackRstProbe(rate=40.0).run_all(bed)["apdf"]
        # The APDF home never even sees a matching flow for the spoof —
        # but the shared CGN tier already tore the chain.
        assert result.home_torn == 0
        assert result.home_filtered > 0
        assert result.cgn_torn == result.victims
        assert result.victim_survival == 0.0


class TestAttackCodecs:
    def test_cells_round_trip_field_for_field(self):
        portflood = AttackPortfloodResult(
            tag="dev", subscribers=4, attack_rate=50.0, attack_duration=20.0,
            pool_ports=64, attack_packets=1000, home_onset=1.25,
            home_cause="table_full", cgn_onset=None, home_refused=17,
            cgn_refused_udp=3, cgn_refused_tcp=5, innocent_flows=[4, 5, 6],
            innocent_refused=[1, 0, 2], fairness=0.987, victim_survival=0.75,
        )
        keepalive = AttackKeepaliveResult(
            tag="dev", subscribers=4, filtering="endpoint_independent",
            natural_timeout=30.0, scans=3, spoofed_packets=96, refreshed=2,
            refreshed_total=2, evicted=1, evicted_total=2, home_filtered=0,
            onset=13.5, fairness=0.75, victim_survival=0.75,
        )
        rst = AttackRstResult(
            tag="dev", subscribers=4, filtering="address_dependent",
            victims=4, spoofed_rsts=32, cgn_torn=4, home_torn=2,
            home_filtered=2, victims_reset=0, onset=None, survived=0,
            fairness=0.0, victim_survival=0.0,
        )
        for name, cell in (
            ("attack_portflood", portflood),
            ("attack_keepalive", keepalive),
            ("attack_rst", rst),
        ):
            fam = registry.family(name)
            restored = fam.decode(json.loads(json.dumps(fam.encode(cell))))
            assert restored == cell
            assert type(restored) is type(cell)

    def test_families_are_registered_opt_in(self):
        for name in ATTACK_FAMILIES:
            fam = registry.family(name)
            assert fam.default_selected is False
            assert fam.testbed_factory is not None


def _attack_runner(jobs=1, **kwargs):
    profiles = [_eif(), _apdf()]
    return SurveyRunner(
        profiles, udp_repetitions=1, udp5_repetitions=1, tcp1_cutoff=300.0,
        transfer_bytes=256 * 1024, cgn_subscribers=2, cgn_block_size=8,
        attack_rate=40.0, attack_duration=5.0, jobs=jobs, **kwargs,
    )


def _tree(root):
    import pathlib

    root = pathlib.Path(root)
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*.json"))
    }


class TestAttackCampaign:
    """The attack families ride the campaign machinery: shards, store, resume."""

    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("attack-campaign") / "clean"
        runner = _attack_runner(jobs=1, store_dir=str(out))
        return runner.run(tests=ATTACK_FAMILIES), out

    def test_results_populated_per_device(self, clean):
        results, _out = clean
        for tag in ("eif", "apdf"):
            assert results.family("attack_portflood")[tag].attack_packets > 0
            assert results.family("attack_keepalive")[tag].spoofed_packets > 0
            assert results.family("attack_rst")[tag].spoofed_rsts > 0

    def test_jobs_n_store_matches_jobs_1(self, clean, tmp_path):
        _results, clean_out = clean
        out = tmp_path / "par"
        _attack_runner(jobs=2, store_dir=str(out)).run(tests=ATTACK_FAMILIES)
        assert _tree(out) == _tree(clean_out)

    def test_interrupted_then_resumed_is_identical(self, clean, tmp_path):
        clean_results, clean_out = clean
        out = tmp_path / "resumed"
        _attack_runner(jobs=2, store_dir=str(out)).run(tests=ATTACK_FAMILIES[:1])
        (out / CampaignStore.CELL_DIR / "apdf" / "attack_portflood.json").unlink(missing_ok=True)
        (out / CampaignStore.MANIFEST).write_bytes(
            (clean_out / CampaignStore.MANIFEST).read_bytes()
        )
        resumer = _attack_runner(jobs=2, store_dir=str(out), resume=True)
        resumed = resumer.run(tests=ATTACK_FAMILIES)
        assert resumer.last_skipped_cells > 0
        assert resumed == clean_results
        assert _tree(out) == _tree(clean_out)

    def test_staged_engine_writes_identical_cells(self, clean, tmp_path):
        _results, clean_out = clean
        out = tmp_path / "staged"
        staged = _attack_runner(jobs=1, fastpath=False, store_dir=str(out)).run(tests=ATTACK_FAMILIES)
        assert _tree(out) == _tree(clean_out)
        # --no-fastpath pins every bed, bring-up included, to the staged engine.
        assert staged.stats.fastpath_events_saved == 0
        assert staged.stats.fastpath_windows == 0

    def test_report_renders_attack_section_without_simulation(self, clean):
        from repro.analysis import render_report

        _results, out = clean
        store = CampaignStore.open(str(out))
        loaded = store.load_results()
        before = Simulation.constructed_total
        report = render_report(loaded)
        assert Simulation.constructed_total == before
        assert "## Adversarial tier: NAT abuse (ReDAN attack families)" in report
        assert "| eif |" in report and "| apdf |" in report
