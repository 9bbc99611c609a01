"""Every testbed's state at probe start, pinned.

A bed's construction order is part of its measurements: each link's
ordinal seeds its impairment RNG, MACs come from one allocator in
construction order, switch VLANs decide which frames meet, and the order
of the DHCP ``start()`` calls decides the scheduler sequence numbers that
break same-instant ties.  These tests pin, for every bed the campaign
engine builds, the ordered link labels and every interface's MAC and VLAN,
and for the beds that step their own bring-up, the clock and event
counters at the instant ``build()`` returns.  The constants were taken
from the builders as they stood before they shared one wiring module.
"""

from __future__ import annotations

import pytest

from repro.cgn.metro import LOAD_START, MetroKnobs, MetroLoadPlan, MetroTopology, metro_policy_for
from repro.cgn.topology import Nat444Topology
from repro.devices import catalog_profiles
from repro.netsim.sim import Simulation
from repro.netsim.switch import VlanSwitch
from repro.packets.dhcp_codec import DhcpMessage
from repro.testbed.testbed import Testbed
from repro.traversal.matrix import PairTopology, pair_subject

SEED = 42
TAGS = ("al", "be1")
SUBSCRIBERS = 2
#: (cgn_a, cgn_b) of the four pair-bed variants.
PAIR_VARIANTS = {
    "plain": (False, False),
    "cgn-a": (True, False),
    "cgn-b": (False, True),
    "cgn-ab": (True, True),
}


def _profiles():
    return catalog_profiles(TAGS)


def _end(iface) -> str:
    node = iface.node
    vlan = f"@{node.vlan_of(iface)}" if isinstance(node, VlanSwitch) else ""
    return f"{node.name}/{iface.index}{vlan}={iface.mac}"


def layout(bed):
    """One line per link, in construction order."""
    return [f"{link.label} {_end(link.endpoint_a.iface)} {_end(link.endpoint_b.iface)}" for link in bed.links]


def counters(sim):
    return (repr(sim.now), sim.events_processed, sim.fastpath_events_saved)


def _pair(variant: str):
    profile_a, profile_b = _profiles()
    return pair_subject(profile_a, profile_b, *PAIR_VARIANTS[variant])


def _metro_policy():
    return metro_policy_for(MetroKnobs(cgn_subscribers=SUBSCRIBERS))


def _metro_plan():
    return MetroLoadPlan(subscribers=SUBSCRIBERS, requests=2)


def build_stepping(name: str, fastpath: bool = True):
    """The stepping beds, built as the campaign engine builds them."""
    if name == "testbed":
        return Testbed.build(_profiles(), seed=SEED, fastpath=fastpath)
    if name == "nat444":
        return Nat444Topology.build(_profiles(), seed=SEED, subscribers=SUBSCRIBERS, fastpath=fastpath)
    return PairTopology.build(_pair(name.split(":", 1)[1]), seed=SEED, fastpath=fastpath)


def build_metro():
    """The metro bed: construction only schedules, nothing is stepped."""
    return MetroTopology.build(
        _profiles(), seed=SEED, subscribers=SUBSCRIBERS, cgn_policy=_metro_policy(), plan=_metro_plan(),
    )


STEPPING = ["testbed", "nat444"] + [f"pair:{variant}" for variant in PAIR_VARIANTS]
METRO = ["metro"]

#: Ordered link rows: label, then each end as
#: ``node/iface[@vlan]=mac``.
LAYOUT = {'testbed': ['al:srv test-server/0=02:00:00:00:00:01 wan-switch/0@1001=02:00:00:00:00:02',
             'al:wan gw-al/0=02:00:00:00:00:03 wan-switch/1@1001=02:00:00:00:00:04',
             'al:lan gw-al/1=02:00:00:00:00:03 lan-switch/0@2001=02:00:00:00:00:05',
             'al:cli test-client/0=02:00:00:00:00:06 lan-switch/1@2001=02:00:00:00:00:07',
             'be1:srv test-server/1=02:00:00:00:00:08 wan-switch/2@1002=02:00:00:00:00:09',
             'be1:wan gw-be1/0=02:00:00:00:00:0a wan-switch/3@1002=02:00:00:00:00:0c',
             'be1:lan gw-be1/1=02:00:00:00:00:0b lan-switch/2@2002=02:00:00:00:00:0d',
             'be1:cli test-client/1=02:00:00:00:00:0e lan-switch/3@2002=02:00:00:00:00:0f'],
 'nat444': ['cgn-al:srv test-server/0=02:00:00:00:00:01 wan-switch/0@1001=02:00:00:00:00:02',
            'cgn-al:wan gw-cgn-al/0=02:00:00:00:00:03 wan-switch/1@1001=02:00:00:00:00:05',
            'cgn-al:acc gw-cgn-al/1=02:00:00:00:00:04 access-switch/0@2001=02:00:00:00:00:06',
            'al.1:wan gw-al-1.1/0=02:00:00:00:00:07 access-switch/1@2001=02:00:00:00:00:08',
            'al.1:lan gw-al-1.1/1=02:00:00:00:00:07 lan-switch/0@3001=02:00:00:00:00:09',
            'al.1:cli test-client/0=02:00:00:00:00:0a lan-switch/1@3001=02:00:00:00:00:0b',
            'al.2:wan gw-al-1.2/0=02:00:00:00:00:0c access-switch/2@2001=02:00:00:00:00:0d',
            'al.2:lan gw-al-1.2/1=02:00:00:00:00:0c lan-switch/2@3002=02:00:00:00:00:0e',
            'al.2:cli test-client/1=02:00:00:00:00:0f lan-switch/3@3002=02:00:00:00:00:10',
            'cgn-be1:srv test-server/1=02:00:00:00:00:11 wan-switch/2@1002=02:00:00:00:00:12',
            'cgn-be1:wan gw-cgn-be1/0=02:00:00:00:00:13 wan-switch/3@1002=02:00:00:00:00:15',
            'cgn-be1:acc gw-cgn-be1/1=02:00:00:00:00:14 access-switch/3@2002=02:00:00:00:00:16',
            'be1.1:wan gw-be1-2.1/0=02:00:00:00:00:17 access-switch/4@2002=02:00:00:00:00:19',
            'be1.1:lan gw-be1-2.1/1=02:00:00:00:00:18 lan-switch/4@3003=02:00:00:00:00:1a',
            'be1.1:cli test-client/2=02:00:00:00:00:1b lan-switch/5@3003=02:00:00:00:00:1c',
            'be1.2:wan gw-be1-2.2/0=02:00:00:00:00:1d access-switch/5@2002=02:00:00:00:00:1f',
            'be1.2:lan gw-be1-2.2/1=02:00:00:00:00:1e lan-switch/6@3004=02:00:00:00:00:20',
            'be1.2:cli test-client/3=02:00:00:00:00:21 lan-switch/7@3004=02:00:00:00:00:22'],
 'pair:plain': ['a:srv test-server/0=02:00:00:00:00:01 wan-switch/0@1001=02:00:00:00:00:02',
                'a:wan gw-a-al/0=02:00:00:00:00:03 wan-switch/1@1001=02:00:00:00:00:04',
                'a:lan gw-a-al/1=02:00:00:00:00:03 lan-switch/0@3001=02:00:00:00:00:05',
                'a:cli test-client/0=02:00:00:00:00:06 lan-switch/1@3001=02:00:00:00:00:07',
                'b:srv test-server/1=02:00:00:00:00:08 wan-switch/2@1002=02:00:00:00:00:09',
                'b:wan gw-b-be1/0=02:00:00:00:00:0a wan-switch/3@1002=02:00:00:00:00:0c',
                'b:lan gw-b-be1/1=02:00:00:00:00:0b lan-switch/2@3002=02:00:00:00:00:0d',
                'b:cli test-client/1=02:00:00:00:00:0e lan-switch/3@3002=02:00:00:00:00:0f'],
 'pair:cgn-a': ['a:srv test-server/0=02:00:00:00:00:01 wan-switch/0@1001=02:00:00:00:00:02',
                'a:cgn-wan gw-cgn-a-al/0=02:00:00:00:00:04 wan-switch/1@1001=02:00:00:00:00:06',
                'a:cgn-acc gw-cgn-a-al/1=02:00:00:00:00:05 access-switch/0@2001=02:00:00:00:00:07',
                'a:wan gw-a-al/0=02:00:00:00:00:03 access-switch/1@2001=02:00:00:00:00:08',
                'a:lan gw-a-al/1=02:00:00:00:00:03 lan-switch/0@3001=02:00:00:00:00:09',
                'a:cli test-client/0=02:00:00:00:00:0a lan-switch/1@3001=02:00:00:00:00:0b',
                'b:srv test-server/1=02:00:00:00:00:0c wan-switch/2@1002=02:00:00:00:00:0d',
                'b:wan gw-b-be1/0=02:00:00:00:00:0e wan-switch/3@1002=02:00:00:00:00:10',
                'b:lan gw-b-be1/1=02:00:00:00:00:0f lan-switch/2@3002=02:00:00:00:00:11',
                'b:cli test-client/1=02:00:00:00:00:12 lan-switch/3@3002=02:00:00:00:00:13'],
 'pair:cgn-b': ['a:srv test-server/0=02:00:00:00:00:01 wan-switch/0@1001=02:00:00:00:00:02',
                'a:wan gw-a-al/0=02:00:00:00:00:03 wan-switch/1@1001=02:00:00:00:00:04',
                'a:lan gw-a-al/1=02:00:00:00:00:03 lan-switch/0@3001=02:00:00:00:00:05',
                'a:cli test-client/0=02:00:00:00:00:06 lan-switch/1@3001=02:00:00:00:00:07',
                'b:srv test-server/1=02:00:00:00:00:08 wan-switch/2@1002=02:00:00:00:00:09',
                'b:cgn-wan gw-cgn-b-be1/0=02:00:00:00:00:0c wan-switch/3@1002=02:00:00:00:00:0e',
                'b:cgn-acc gw-cgn-b-be1/1=02:00:00:00:00:0d access-switch/0@2002=02:00:00:00:00:0f',
                'b:wan gw-b-be1/0=02:00:00:00:00:0a access-switch/1@2002=02:00:00:00:00:10',
                'b:lan gw-b-be1/1=02:00:00:00:00:0b lan-switch/2@3002=02:00:00:00:00:11',
                'b:cli test-client/1=02:00:00:00:00:12 lan-switch/3@3002=02:00:00:00:00:13'],
 'pair:cgn-ab': ['a:srv test-server/0=02:00:00:00:00:01 wan-switch/0@1001=02:00:00:00:00:02',
                 'a:cgn-wan gw-cgn-a-al/0=02:00:00:00:00:04 wan-switch/1@1001=02:00:00:00:00:06',
                 'a:cgn-acc gw-cgn-a-al/1=02:00:00:00:00:05 access-switch/0@2001=02:00:00:00:00:07',
                 'a:wan gw-a-al/0=02:00:00:00:00:03 access-switch/1@2001=02:00:00:00:00:08',
                 'a:lan gw-a-al/1=02:00:00:00:00:03 lan-switch/0@3001=02:00:00:00:00:09',
                 'a:cli test-client/0=02:00:00:00:00:0a lan-switch/1@3001=02:00:00:00:00:0b',
                 'b:srv test-server/1=02:00:00:00:00:0c wan-switch/2@1002=02:00:00:00:00:0d',
                 'b:cgn-wan gw-cgn-b-be1/0=02:00:00:00:00:10 wan-switch/3@1002=02:00:00:00:00:12',
                 'b:cgn-acc gw-cgn-b-be1/1=02:00:00:00:00:11 '
                 'access-switch/2@2002=02:00:00:00:00:13',
                 'b:wan gw-b-be1/0=02:00:00:00:00:0e access-switch/3@2002=02:00:00:00:00:14',
                 'b:lan gw-b-be1/1=02:00:00:00:00:0f lan-switch/2@3002=02:00:00:00:00:15',
                 'b:cli test-client/1=02:00:00:00:00:16 lan-switch/3@3002=02:00:00:00:00:17'],
 'metro': ['metro-al.1:acc gw-cgn-al/1=02:00:01:00:00:02 acc-1/0@2001=02:00:01:00:00:03',
           'al.1.1:wan gw-al-1.1/0=02:00:01:00:00:04 acc-1/1@2001=02:00:01:00:00:05',
           'al.1.1:lan gw-al-1.1/1=02:00:01:00:00:04 lan-1/0@3001=02:00:01:00:00:06',
           'al.1.1:cli client-1/0=02:00:01:00:00:07 lan-1/1@3001=02:00:01:00:00:08',
           'al.1.2:wan gw-al-1.2/0=02:00:01:00:00:09 acc-1/2@2001=02:00:01:00:00:0a',
           'al.1.2:lan gw-al-1.2/1=02:00:01:00:00:09 lan-1/2@3002=02:00:01:00:00:0b',
           'al.1.2:cli client-1/1=02:00:01:00:00:0c lan-1/3@3002=02:00:01:00:00:0d',
           'core:al metro-core/0=02:f0:00:00:00:01 gw-cgn-al/0=02:00:01:00:00:01',
           'metro-be1.2:acc gw-cgn-be1/1=02:00:02:00:00:02 acc-2/0@2002=02:00:02:00:00:03',
           'be1.2.1:wan gw-be1-2.1/0=02:00:02:00:00:04 acc-2/1@2002=02:00:02:00:00:06',
           'be1.2.1:lan gw-be1-2.1/1=02:00:02:00:00:05 lan-2/0@3001=02:00:02:00:00:07',
           'be1.2.1:cli client-2/0=02:00:02:00:00:08 lan-2/1@3001=02:00:02:00:00:09',
           'be1.2.2:wan gw-be1-2.2/0=02:00:02:00:00:0a acc-2/2@2002=02:00:02:00:00:0c',
           'be1.2.2:lan gw-be1-2.2/1=02:00:02:00:00:0b lan-2/2@3002=02:00:02:00:00:0d',
           'be1.2.2:cli client-2/1=02:00:02:00:00:0e lan-2/3@3002=02:00:02:00:00:0f',
           'core:be1 metro-core/1=02:f0:00:00:00:02 gw-cgn-be1/0=02:00:02:00:00:01']}

#: ``(repr(sim.now), events_processed, fastpath_events_saved)`` when
#: ``build()`` returns; for ``metro``, after running to ``LOAD_START``.
COUNTERS = {'testbed': ('0.0007942399999999997', 32, 32),
 'nat444': ('0.00121696', 88, 88),
 'pair:plain': ('0.0007942399999999997', 32, 32),
 'pair:cgn-a': ('0.0011913599999999998', 40, 40),
 'pair:cgn-b': ('0.0011913599999999998', 40, 40),
 'pair:cgn-ab': ('0.0011913599999999998', 48, 48),
 'metro': ('30.0', 104, 82)}

#: Heap entries a metro bed holds right after construction.
SCHEDULED = {'metro': 12}

#: Stepping bed -> (client link severed before bring-up, the error it gives).
STRAGGLERS = {
    "testbed": ("be1:cli", "testbed bring-up failed for: ['be1']"),
    "nat444": ("al.2:cli", "NAT444 bring-up failed for: ['al.2']"),
    "pair:plain": ("a:cli", "pair testbed bring-up failed for: ['a:al']"),
    "pair:cgn-a": ("a:cli", "pair testbed bring-up failed for: ['a:al']"),
    "pair:cgn-b": ("b:cli", "pair testbed bring-up failed for: ['b:be1']"),
    "pair:cgn-ab": ("b:cli", "pair testbed bring-up failed for: ['b:be1']"),
}


def construct_stepping(name: str):
    """A stepping bed wired but not brought up."""
    sim = Simulation(seed=SEED)
    if name == "testbed":
        return Testbed(sim, _profiles())
    if name == "nat444":
        return Nat444Topology(sim, _profiles(), subscribers=SUBSCRIBERS)
    return PairTopology(sim, _pair(name.split(":", 1)[1]))


@pytest.mark.parametrize("name", STEPPING)
def test_stepping_bed_state_at_probe_start(name):
    bed = build_stepping(name)
    assert layout(bed) == LAYOUT[name]
    assert counters(bed.sim) == COUNTERS[name]


def _no_dhcp_bytes(*_args):
    raise AssertionError("a DHCP message was encoded or decoded during bring-up")


@pytest.mark.parametrize("fastpath", [True, False], ids=["fast", "staged"])
@pytest.mark.parametrize("name", STEPPING)
def test_bring_up_builds_no_dhcp_bytes(monkeypatch, name, fastpath):
    """DHCP rides as message objects: a bed brings up, to its pinned state, with the codec disabled."""
    monkeypatch.setattr(DhcpMessage, "to_bytes", _no_dhcp_bytes)
    monkeypatch.setattr(DhcpMessage, "from_bytes", classmethod(_no_dhcp_bytes))
    bed = build_stepping(name, fastpath)
    if fastpath:
        assert layout(bed) == LAYOUT[name]
        assert counters(bed.sim) == COUNTERS[name]


@pytest.mark.parametrize("name", METRO)
def test_metro_bed_layout(name):
    bed = build_metro()
    assert layout(bed) == LAYOUT[name]
    assert len(bed.sim._heap) == SCHEDULED[name]


def test_metro_bring_up_counters():
    bed = build_metro()
    bed.sim.run(until=LOAD_START)
    assert counters(bed.sim) == COUNTERS["metro"]
    assert all(
        home.client_dhcp is not None and home.client_dhcp.configured
        for segment in bed.segments.values()
        for home in segment.homes
    )


@pytest.mark.parametrize("name", STEPPING)
def test_bring_up_names_the_straggler(name):
    label, message = STRAGGLERS[name]
    bed = construct_stepping(name)
    (link,) = [link for link in bed.links if link.label == label]
    link.sever()
    with pytest.raises(RuntimeError) as failure:
        bed.bring_up()
    assert str(failure.value) == message
