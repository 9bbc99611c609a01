"""Discrete-event packet-level network simulator.

This package is the substrate on which the reproduction runs: it provides a
virtual clock with an event scheduler, network nodes with Ethernet
interfaces, full-duplex links with finite transmission rate and propagation
delay, drop-tail queues, and VLAN-aware learning switches.

The simulator deals in *structured* packets (see :mod:`repro.packets`) rather
than raw bytes on the hot path; every layer knows its wire size so that
transmission times and queue occupancy are byte-accurate, and every layer can
be serialized to real wire bytes when a test needs to inspect them.

Typical use::

    sim = Simulation()
    a, b = Host(sim, "a"), Host(sim, "b")   # from repro.protocols
    link = Link(sim, rate_bps=100_000_000, delay=50e-6)
    link.attach(a.iface(0), b.iface(0))
    sim.run()
"""

from repro.netsim.sim import Simulation, Timer, WatchdogExpired
from repro.netsim.addresses import MacAddress, mac_allocator
from repro.netsim.impair import Impairment, LinkImpairer, impair_seed
from repro.netsim.link import Link
from repro.netsim.node import Interface, Node
from repro.netsim.queues import DropTailQueue, TokenBucket
from repro.netsim.switch import VlanSwitch

__all__ = [
    "Simulation",
    "Timer",
    "WatchdogExpired",
    "Impairment",
    "LinkImpairer",
    "impair_seed",
    "MacAddress",
    "mac_allocator",
    "Link",
    "Interface",
    "Node",
    "DropTailQueue",
    "TokenBucket",
    "VlanSwitch",
]
