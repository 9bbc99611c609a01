"""Shared fixtures for the test suite."""

from __future__ import annotations

from ipaddress import IPv4Address, IPv4Network

import pytest

from repro.devices.profile import DeviceProfile, FilteringBehavior, MappingBehavior, NatPolicy
from repro.netsim import Link, Simulation, mac_allocator
from repro.protocols import Host


@pytest.fixture
def sim():
    return Simulation(seed=7)


@pytest.fixture
def macs():
    return mac_allocator()


@pytest.fixture
def host_pair(sim, macs):
    """Two hosts on one /24 joined by a 100 Mb/s link."""
    a = Host(sim, "a", macs)
    b = Host(sim, "b", macs)
    ia, ib = a.new_interface(), b.new_interface()
    Link(sim, rate_bps=100e6, delay=100e-6).attach(ia, ib)
    net = IPv4Network("10.0.0.0/24")
    ia.configure(IPv4Address("10.0.0.1"), net)
    ib.configure(IPv4Address("10.0.0.2"), net)
    return a, b


def make_profile(tag: str = "dev", **overrides) -> DeviceProfile:
    """A default test profile with top-level overrides."""
    return DeviceProfile(tag, "TestVendor", "TestModel", "1.0", **overrides)


def assert_distinct_host_leases(segment):
    """Every home of ``segment`` holds its own access address: not the network's, broadcast or the CGN's."""
    network = segment.access_network
    reserved = {network.network_address, network.broadcast_address, segment.cgn.lan_ip}
    leases = [home.gateway.wan_ip for home in segment.homes]
    assert len(set(leases)) == len(leases)
    assert all(ip in network and ip not in reserved for ip in leases)


def cone(tag: str, filtering: FilteringBehavior = FilteringBehavior.ADDRESS_DEPENDENT) -> DeviceProfile:
    """An endpoint-independent-mapping NAT with the given filtering."""
    return make_profile(tag, nat=NatPolicy(filtering=filtering))


def symmetric(tag: str) -> DeviceProfile:
    """An address-and-port-dependent (RFC 3489 symmetric) NAT that does not preserve ports."""
    return make_profile(
        tag,
        nat=NatPolicy(
            port_preservation=False,
            mapping=MappingBehavior.ADDRESS_AND_PORT_DEPENDENT,
            filtering=FilteringBehavior.ADDRESS_AND_PORT_DEPENDENT,
        ),
    )


def matrix_cells(profiles, **runner_kwargs):
    """Every ``traversal_matrix`` cell of a campaign over ``profiles``, keyed by pair tag."""
    from repro.core.survey import SurveyRunner

    results = SurveyRunner(list(profiles), **runner_kwargs).run(["traversal_matrix"])
    assert results.complete, results.errors
    return results.family("traversal_matrix")


@pytest.fixture
def profile():
    return make_profile()
