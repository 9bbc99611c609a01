"""The fast path's contract: byte-identical results, fewer heap events.

The eager kernels (link serialization, forwarding-plane service, lazy NAT
and TCP timers) claim to execute the *same float arithmetic at the same
instants* as the staged event engine, eliding only the intermediate heap
traffic.  These tests hold them to it: campaigns run with ``fastpath`` on
and off must persist byte-for-byte identical store cells — across paper
families, seeds, devices with quirky forwarding planes, link impairments,
``jobs=N``, and the NAT444 topologies.  The staged engine is thereby the
permanent property-test oracle for the fast path.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.core.survey import SurveyRunner
from repro.devices import catalog_profiles
from repro.netsim.impair import Impairment
from repro.testbed.testbed import Testbed

#: Small device subset mixing a plain mid-range box (dl1), a shared-queue
#: weakling whose forwarding plane is *not* eager-capable (ls1), and a
#: high-rate device (bu1) — the fast path must be right when it engages and
#: harmless when it cannot.
TAGS = ("dl1", "ls1", "bu1")


def _profiles(tags=TAGS):
    wanted = set(tags)
    return [p for p in catalog_profiles() if p.tag in wanted]


def _store_bytes(store_dir: pathlib.Path):
    """Every persisted cell file, as {relative path: bytes}."""
    cells = {}
    for path in sorted(store_dir.rglob("*.json")):
        if path.name == "campaign.json":  # manifest carries no measurements
            continue
        cells[str(path.relative_to(store_dir))] = path.read_bytes()
    assert cells, f"no cells persisted under {store_dir}"
    return cells


def _run_store(tmp_path, name, *, fastpath, families, seed=0, jobs=1, tags=TAGS, **kwargs):
    store = tmp_path / name
    runner = SurveyRunner(
        profiles=_profiles(tags),
        seed=seed,
        jobs=jobs,
        fastpath=fastpath,
        store_dir=str(store),
        **kwargs,
    )
    results = runner.run(list(families))
    assert not results.errors, results.errors
    return _store_bytes(store), results


@pytest.mark.parametrize("seed", [0, 7])
def test_paper_families_cells_identical_across_engines(tmp_path, seed):
    families = ["tcp2", "tcp4", "udp5"]
    fast, fast_results = _run_store(
        tmp_path, f"fast{seed}", fastpath=True, families=families, seed=seed
    )
    slow, slow_results = _run_store(
        tmp_path, f"slow{seed}", fastpath=False, families=families, seed=seed
    )
    assert fast == slow
    # The fast path actually engaged (else this test proves nothing) and
    # the staged oracle ran clean.
    assert fast_results.stats.fastpath_events_saved > 0
    assert slow_results.stats.fastpath_events_saved == 0
    # Fewer heap events for the same measurements is the whole point.
    assert fast_results.stats.events_processed < slow_results.stats.events_processed


def test_impaired_links_fall_back_identically(tmp_path):
    impairment = Impairment(loss=0.02, dup=0.005, reorder=0.0005)
    fast, _ = _run_store(
        tmp_path, "fast", fastpath=True, families=["tcp2"], tags=("dl1",),
        impairment=impairment,
    )
    slow, _ = _run_store(
        tmp_path, "slow", fastpath=False, families=["tcp2"], tags=("dl1",),
        impairment=impairment,
    )
    assert fast == slow


def test_jobs_sharding_preserves_fastpath_determinism(tmp_path):
    serial, _ = _run_store(tmp_path, "serial", fastpath=True, families=["udp5", "tcp2"], jobs=1)
    parallel, _ = _run_store(tmp_path, "parallel", fastpath=True, families=["udp5", "tcp2"], jobs=2)
    assert serial == parallel


#: Family -> (tags, knobs) of the factory-built beds' engine-parity runs.
FACTORY_BEDS = {
    "cgn_timeouts": (("dl1", "bu1"), {"cgn_subscribers": 4}),
    "cgn_exhaustion": (("dl1", "bu1"), {"cgn_subscribers": 4}),
    # Every ordered pair of TAGS in all four CGN variants: 24 pair beds.
    "traversal_matrix": (TAGS, {"matrix_cgn": True}),
}


@pytest.mark.parametrize("family", list(FACTORY_BEDS))
def test_cgn_families_cells_identical_across_engines(tmp_path, family):
    tags, knobs = FACTORY_BEDS[family]
    fast, _ = _run_store(tmp_path, "fast", fastpath=True, families=[family], tags=tags, **knobs)
    slow, slow_results = _run_store(
        tmp_path, "slow", fastpath=False, families=[family], tags=tags, **knobs
    )
    assert fast == slow
    # --no-fastpath pins every bed, bring-up included, to the staged engine.
    assert slow_results.stats.fastpath_events_saved == 0
    assert slow_results.stats.fastpath_windows == 0


def test_fault_campaigns_pin_the_staged_engine(tmp_path):
    from repro.core import registry
    from repro.core.registry import Subject
    from repro.gateway.faults import FaultSpec

    runner = SurveyRunner(
        profiles=_profiles(("dl1",)),
        fastpath=True,
        faults=[FaultSpec(at=5.0, boot=2.0, device="dl1")],
    )
    # The default Testbed (udp1 names no builder) and a factory-built NAT444 bed.
    for family in (registry.family("udp1"), registry.family("cgn_timeouts")):
        bed = runner._fresh_testbed(family, Subject.device(runner.profiles[0]), seed=0)
        # A crash flush cannot unwind eagerly-consumed rate tokens, so chaos
        # campaigns must run every packet through the staged engine — from
        # bring-up on.
        assert bed.sim.fastpath is False
        assert bed.sim.fastpath_windows == 0


def test_fastpath_counters_account_for_elided_work():
    profile = _profiles(("dl1",))
    bed = Testbed.build(profile, seed=0)
    assert bed.sim.fastpath is True
    from repro.core.throughput import ThroughputProbe

    result = ThroughputProbe(transfer_bytes=128 * 1024).run_all(bed)["dl1"]
    assert result.upload.bytes_moved >= 128 * 1024
    assert None not in (result.download, result.upload_bidir, result.download_bidir)
    assert bed.sim.fastpath_events_saved > 0
    assert bed.sim.fastpath_windows > 0
    assert bed.sim.segments_modeled == bed.sim.events_processed + bed.sim.fastpath_events_saved


def test_no_fastpath_cli_flag_runs_the_staged_engine(capsys):
    from repro import cli

    code = cli.main(
        ["survey", "--tests", "udp1", "--tags", "dl1", "--no-fastpath", "--repetitions", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "fastpath saved: 0 events in 0 windows" in out

    code = cli.main(["survey", "--tests", "udp1", "--tags", "dl1", "--repetitions", "1"])
    fast_out = capsys.readouterr().out
    assert code == 0
    assert "fastpath saved: 0 events" not in fast_out


# ---------------------------------------------------------------------------
# Mid-flight sever/mend: the eager delivery event vs. closed outage windows.
# ---------------------------------------------------------------------------

from repro.netsim import Link, Node, Simulation, mac_allocator  # noqa: E402
from repro.packets import EthernetFrame  # noqa: E402


class _Sink(Node):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive_frame(self, iface, frame):
        self.received.append((self.sim.now, frame))


def _host_pair(fastpath: bool):
    sim = Simulation(seed=7)
    sim.fastpath = fastpath
    macs = mac_allocator()
    a, b = _Sink(sim, "a"), _Sink(sim, "b")
    ia, ib = a.add_interface(next(macs)), b.add_interface(next(macs))
    link = Link(sim, rate_bps=100e6, delay=1e-3).attach(ia, ib)
    return sim, a, b, ia, ib, link


def _flight_scenario(fastpath: bool, sever_at: float, mend_at: float | None):
    """One frame in flight; the link flaps at the given instants.

    With rate 100 Mb/s and a 1000-byte payload, serialization finishes at
    ~81 µs and delivery is due at ~1.081 ms — the flap instants are chosen
    relative to those two anchors by the callers.
    """
    sim, _a, b, ia, ib, link = _host_pair(fastpath)
    ia.transmit(EthernetFrame(ib.mac, ia.mac, b"x" * 1000))
    sim.schedule_at(sever_at, link.sever)
    if mend_at is not None:
        sim.schedule_at(mend_at, link.mend)
    sim.run()
    return b.received, link


def _dropped(link):
    return link.endpoint_a.frames_dropped + link.endpoint_b.frames_dropped


@pytest.mark.parametrize("fastpath", [True, False])
def test_outage_closed_before_delivery_still_drops(fastpath):
    # Severed during serialization, mended *before* the delivery event is
    # due: the staged engine dropped this frame at serialization-done, so
    # the eager engine must too — the delivery event cannot trust
    # ``link.broken`` alone at fire time.
    received, link = _flight_scenario(fastpath, sever_at=5e-5, mend_at=5e-4)
    assert received == []
    assert _dropped(link) == 1


@pytest.mark.parametrize("fastpath", [True, False])
def test_sever_after_serialization_done_spares_the_frame(fastpath):
    # The cut lands while the frame is already past the serialization
    # instant: both engines deliver (propagation is not interruptible).
    received, _link = _flight_scenario(fastpath, sever_at=5e-4, mend_at=None)
    assert len(received) == 1


@pytest.mark.parametrize("fastpath", [True, False])
def test_still_broken_at_delivery_time_drops(fastpath):
    received, link = _flight_scenario(fastpath, sever_at=5e-5, mend_at=None)
    assert received == []
    assert _dropped(link) == 1


def test_re_sever_does_not_move_the_outage_start_forward():
    # sever() on an already-broken link must keep the original outage
    # start, or a frame whose serialization finished inside the first cut
    # would be wrongly spared.
    sim, _a, b, ia, ib, link = _host_pair(True)
    ia.transmit(EthernetFrame(ib.mac, ia.mac, b"x" * 1000))
    sim.schedule_at(5e-5, link.sever)
    sim.schedule_at(2e-4, link.sever)  # redundant re-sever
    sim.schedule_at(5e-4, link.mend)
    sim.run()
    assert b.received == []
    assert _dropped(link) == 1


def test_flap_between_frames_is_invisible():
    # An outage window that opens and closes while nothing is in flight
    # must not affect later traffic.
    simulation, _a, b, ia, ib, link = _host_pair(True)
    link.sever()
    simulation.run()
    link.mend()
    ia.transmit(EthernetFrame(ib.mac, ia.mac, b"x" * 1000))
    simulation.run()
    assert len(b.received) == 1
    assert _dropped(link) == 0
