"""Chaos layer: impairments, link faults, gateway crashes, survey resilience."""

import pickle
import random
from ipaddress import IPv4Address

import pytest

from repro.core import SurveyRunner, run_shards
from repro.core.parallel import ShardError, ShardFailure
from repro.core.registry import Subject
from repro.devices.profile import UdpTimeoutPolicy
from repro.gateway.faults import FaultSpec
from repro.netsim import Link, mac_allocator
from repro.netsim.impair import Impairment, LinkImpairer, impair_seed
from repro.netsim.node import Node
from repro.testbed.testbed import Testbed
from tests.conftest import make_profile


class TestImpairmentParse:
    def test_full_syntax(self):
        imp = Impairment.parse("loss=0.01,reorder=5ms,dup=0.001")
        assert imp.loss == 0.01
        assert imp.reorder == 0.005
        assert imp.dup == 0.001
        assert imp.corrupt == 0.0
        assert not imp.is_null

    def test_flap_window(self):
        imp = Impairment.parse("flap=30:2")
        assert imp.flap_at == 30.0
        assert imp.flap_for == 2.0
        imp = Impairment.parse("flap=500ms:1.5s")
        assert imp.flap_at == 0.5
        assert imp.flap_for == 1.5

    def test_empty_is_null(self):
        assert Impairment.parse("").is_null
        assert Impairment().is_null
        assert not Impairment(corrupt=0.1).is_null

    @pytest.mark.parametrize("text", [
        "loss=2",            # probability out of range
        "loss=banana",       # not a number
        "reorder=-1ms",      # negative duration
        "flap=30",           # missing duration
        "sparkle=0.5",       # unknown key
        "loss",              # not key=value
    ])
    def test_rejects_bad_specs(self, text):
        with pytest.raises(ValueError):
            Impairment.parse(text)

    def test_constructor_validates_too(self):
        with pytest.raises(ValueError):
            Impairment(dup=1.5)
        with pytest.raises(ValueError):
            Impairment(flap_at=-1.0)

    def test_describe_is_json_ready(self):
        import json

        payload = Impairment.parse("loss=0.01,flap=30:2").describe()
        assert json.loads(json.dumps(payload)) == payload


class TestFaultSpecParse:
    def test_full_syntax(self):
        fault = FaultSpec.parse("crash@t=30,boot=never,device=dl8")
        assert fault.kind == "crash"
        assert fault.at == 30.0
        assert fault.boot == float("inf")
        assert fault.device == "dl8"

    def test_defaults_and_scoping(self):
        fault = FaultSpec.parse("crash@t=5")
        assert fault.boot is None  # profile's boot_seconds applies
        assert fault.applies_to("anything")
        scoped = FaultSpec.parse("crash@t=5,device=al")
        assert scoped.applies_to("al") and not scoped.applies_to("be1")

    def test_numeric_boot(self):
        assert FaultSpec.parse("crash@t=1,boot=2.5").boot == 2.5

    @pytest.mark.parametrize("text", [
        "crash",                 # no @t=
        "crash@30",              # missing t=
        "meltdown@t=1",          # unknown kind
        "crash@t=x",             # time not a number
        "crash@t=1,boot=soon",   # boot not a number
        "crash@t=1,color=red",   # unknown key
        "crash@t=-1",            # negative time
    ])
    def test_rejects_bad_specs(self, text):
        with pytest.raises(ValueError):
            FaultSpec.parse(text)

    def test_describe_spells_never(self):
        assert FaultSpec.parse("crash@t=1,boot=never").describe()["boot_seconds"] == "never"


class TestImpairSeed:
    def test_stable_and_distinct(self):
        assert impair_seed(0, 3) == impair_seed(0, 3)
        assert impair_seed(0, 3) != impair_seed(0, 4)
        assert impair_seed(0, 3) != impair_seed(1, 3)


class TestLinkImpairer:
    def test_certain_loss(self):
        imp = LinkImpairer(Impairment(loss=1.0), random.Random(1))
        assert imp.plan_delivery() == []
        assert imp.frames_lost == 1

    def test_certain_corruption_is_a_distinct_drop(self):
        imp = LinkImpairer(Impairment(corrupt=1.0), random.Random(1))
        assert imp.plan_delivery() == []
        assert imp.frames_corrupted == 1 and imp.frames_lost == 0

    def test_certain_duplication(self):
        imp = LinkImpairer(Impairment(dup=1.0), random.Random(1))
        assert len(imp.plan_delivery()) == 2
        assert imp.frames_duplicated == 1

    def test_reorder_jitter_bounded(self):
        imp = LinkImpairer(Impairment(reorder=0.005), random.Random(1))
        for _ in range(200):
            (delay,) = imp.plan_delivery()
            assert 0.0 <= delay < 0.005
        assert imp.frames_jittered > 0

    def test_same_seed_same_plan(self):
        config = Impairment(loss=0.1, dup=0.1, reorder=0.002)
        a = LinkImpairer(config, random.Random(42))
        b = LinkImpairer(config, random.Random(42))
        assert [a.plan_delivery() for _ in range(300)] == [b.plan_delivery() for _ in range(300)]


class _Sink(Node):
    """Counts arriving frames; never replies."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = 0

    def receive_frame(self, iface, frame):
        self.received += 1


class _Frame:
    def __init__(self, size=100):
        self._size = size

    def wire_size(self):
        return self._size


def _wire(sim, queue_bytes=4096):
    macs = mac_allocator()
    a, b = _Sink(sim, "a"), _Sink(sim, "b")
    link = Link(sim, rate_bps=8e6, delay=1e-3, queue_bytes=queue_bytes)
    link.attach(a.add_interface(next(macs)), b.add_interface(next(macs)))
    return link, a, b


class TestLinkFaults:
    def test_sever_flushes_queued_and_inflight_frames(self, sim):
        link, a, b = _wire(sim)
        for _ in range(5):
            a.interfaces[0].transmit(_Frame())
        # One frame is serializing, four wait in the transmit queue.
        link.sever()
        assert link.endpoint_a.frames_dropped == 4
        sim.run()
        # The in-flight frame finished serializing onto a cut cable.
        assert link.endpoint_a.frames_dropped == 5
        assert b.received == 0

    def test_tail_drop_counted(self, sim):
        link, a, b = _wire(sim, queue_bytes=250)
        for _ in range(5):
            a.interfaces[0].transmit(_Frame(size=100))
        # First frame went straight to the serializer, two fit the queue,
        # the last two overflowed it.
        assert link.endpoint_a.frames_dropped == 2
        sim.run()
        assert b.received == 3

    def test_mend_does_not_replay_the_outage(self, sim):
        link, a, b = _wire(sim)
        link.impair(Impairment(flap_at=0.01, flap_for=0.02), rng=random.Random(0))
        sim.schedule(0.005, a.interfaces[0].transmit, _Frame())  # before the flap
        sim.schedule(0.015, a.interfaces[0].transmit, _Frame())  # during the outage
        sim.schedule(0.050, a.interfaces[0].transmit, _Frame())  # after the mend
        sim.run()
        assert b.received == 2
        assert link.endpoint_a.frames_dropped == 1

    def test_impaired_delivery_still_counts_carried_frames(self, sim):
        link, a, b = _wire(sim)
        link.impair(Impairment(dup=1.0), rng=random.Random(0))
        a.interfaces[0].transmit(_Frame())
        sim.run()
        assert b.received == 2
        assert link.frames_carried == 2


class TestGatewayCrash:
    def test_crash_flushes_volatile_state_and_reboots(self):
        bed = Testbed.build([make_profile("dev")], seed=0)
        gw = bed.port("dev").gateway
        binding = gw.nat.lookup_or_create(
            "udp", IPv4Address("192.168.1.10"), 5000, (IPv4Address("10.0.1.1"), 9)
        )
        assert binding is not None
        gw.crash(boot_delay=5.0)
        assert not gw.running
        assert gw.crashes == 1
        assert gw.nat.bindings_flushed == 1
        # Frames arriving while dark are dropped and counted.
        gw.receive_frame(gw.lan_iface, _Frame())
        assert gw.dropped_while_down == 1
        bed.sim.run_for(5.1)
        assert gw.running

    def test_boot_never_means_bricked(self):
        bed = Testbed.build([make_profile("dev")], seed=0)
        gw = bed.port("dev").gateway
        gw.crash(boot_delay=float("inf"))
        bed.sim.run_for(3600.0)
        assert not gw.running

    def test_schedule_crash_uses_profile_boot_delay(self):
        bed = Testbed.build([make_profile("dev")], seed=0)
        gw = bed.port("dev").gateway
        gw.schedule_crash(2.0)
        bed.sim.run_for(1.0)
        assert gw.running
        bed.sim.run_for(1.5)
        assert not gw.running
        bed.sim.run_for(gw.profile.boot_seconds)
        assert gw.running


def _profiles():
    return [
        make_profile("quick", udp_timeouts=UdpTimeoutPolicy(30.0, 60.0, 90.0)),
        make_profile("slow", udp_timeouts=UdpTimeoutPolicy(120.0, 150.0, 180.0)),
    ]


def _runner(profiles, **overrides):
    options = dict(udp_repetitions=1, udp5_repetitions=1, transfer_bytes=256 * 1024)
    options.update(overrides)
    return SurveyRunner(profiles, **options)


CRASH_QUICK = FaultSpec.parse("crash@t=0,boot=never,device=quick")


class TestSurveyResilience:
    def test_crashed_device_yields_error_not_abort(self):
        results = _runner(_profiles(), faults=[CRASH_QUICK]).run(["udp1"])
        assert set(results.family("udp1")) == {"slow"}
        assert len(results.errors) == 1
        error = results.errors[0]
        assert error.tag == "quick"
        assert error.family == "udp1"
        assert error.error == "RuntimeError"
        assert "never reached the server" in error.message
        assert error.attempts == 1  # deterministic failures are not retried
        assert not results.complete
        assert str(error).startswith("[quick/udp1] RuntimeError")

    def test_errors_identical_under_jobs(self):
        serial = _runner(_profiles(), faults=[CRASH_QUICK]).run(["udp1"])
        parallel = _runner(_profiles(), faults=[CRASH_QUICK], jobs=2).run(["udp1"])
        assert serial == parallel  # includes the errors field
        assert serial.errors == parallel.errors

    def test_watchdog_turns_a_stuck_family_into_an_error(self):
        results = _runner([_profiles()[0]], family_timeout=1.0).run(["udp1"])
        assert results.family("udp1") == {}
        assert len(results.errors) == 1
        assert results.errors[0].error == "WatchdogExpired"
        assert results.errors[0].family == "udp1"

    def test_last_elapsed_set_on_failure_path(self):
        runner = _runner(_profiles(), faults=[CRASH_QUICK])
        runner.run(["udp1"])
        assert runner.last_elapsed is not None and runner.last_elapsed > 0


class TestImpairedDeterminism:
    CHAOS = Impairment.parse("loss=0.05,dup=0.01,reorder=1ms")

    def test_jobs_equal_under_impairment(self):
        serial = _runner(_profiles(), impairment=self.CHAOS).run(["udp1"])
        parallel = _runner(_profiles(), impairment=self.CHAOS, jobs=2).run(["udp1"])
        assert serial == parallel

    def test_subset_reproduces_impaired_results(self):
        full = _runner(_profiles(), impairment=self.CHAOS).run(["udp1"])
        solo = _runner([_profiles()[1]], impairment=self.CHAOS).run(["udp1"])
        assert solo.family("udp1")["slow"] == full.family("udp1")["slow"]

    def test_impairment_changes_measurements(self):
        clean = _runner([_profiles()[0]]).run(["udp1"])
        lossy = _runner([_profiles()[0]], impairment=self.CHAOS).run(["udp1"])
        assert clean.errors == [] and lossy.errors == []
        assert clean.stats.events_processed != lossy.stats.events_processed


def _icmp_shard(profile):
    return Subject.device(profile), ("icmp",)


class TestRunShardsIsolation:
    def test_one_raising_shard_spares_its_neighbours(self, monkeypatch):
        real = SurveyRunner.run_shard

        def flaky(self, tests, subject):
            if subject.tag == "quick":
                raise ValueError("boom")
            return real(self, tests, subject=subject)

        monkeypatch.setattr(SurveyRunner, "run_shard", flaky)
        quick, slow = _profiles()
        outcomes = run_shards(_runner(_profiles()), [_icmp_shard(quick), _icmp_shard(slow)], jobs=1)
        assert isinstance(outcomes[0].error, ShardError)
        assert outcomes[0].error.error == "ValueError"
        assert outcomes[1].error is None
        assert set(outcomes[1].cells) == {("slow", "icmp")}

    def test_transient_errors_retried_then_reported(self, monkeypatch):
        calls = []

        def always_down(self, tests, subject):
            calls.append(subject.tag)
            raise OSError("worker lost")

        monkeypatch.setattr(SurveyRunner, "run_shard", always_down)
        (outcome,) = run_shards(_runner(_profiles()), [_icmp_shard(_profiles()[0])], jobs=1, retries=2, backoff=0.0)
        assert isinstance(outcome.error, ShardError)
        assert outcome.error.error == "OSError"
        assert outcome.error.attempts == 3
        assert len(calls) == 3

    def test_transient_error_recovers_on_retry(self, monkeypatch):
        real = SurveyRunner.run_shard
        state = {"failed": False}

        def flaky_once(self, tests, subject):
            if not state["failed"]:
                state["failed"] = True
                raise OSError("transient")
            return real(self, tests, subject=subject)

        monkeypatch.setattr(SurveyRunner, "run_shard", flaky_once)
        (outcome,) = run_shards(_runner(_profiles()), [_icmp_shard(_profiles()[0])], jobs=1, retries=1, backoff=0.0)
        assert outcome.error is None

    def test_shard_failure_survives_pickling(self):
        failure = ShardFailure("dl8", "tcp2", "RuntimeError", "transfer stalled")
        clone = pickle.loads(pickle.dumps(failure))
        assert clone.to_error() == failure.to_error()
        assert "dl8/tcp2" in str(clone)
