"""The survey runner end-to-end, plus NAT/TCP property-based invariants."""

from ipaddress import IPv4Address

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SurveyRunner
from repro.devices.profile import NatPolicy, UdpTimeoutPolicy
from repro.gateway.nat import NatEngine
from repro.netsim import Simulation
from tests.conftest import make_profile

CLIENT = IPv4Address("192.168.1.100")
SERVER = IPv4Address("10.0.1.1")


class TestSurveyRunner:
    @pytest.fixture(scope="class")
    def results(self):
        profiles = [
            make_profile("quick", udp_timeouts=UdpTimeoutPolicy(30.0, 60.0, 90.0),
                         nat=NatPolicy(max_tcp_bindings=20)),
            make_profile("slow", udp_timeouts=UdpTimeoutPolicy(120.0, 150.0, 180.0),
                         nat=NatPolicy(max_tcp_bindings=50)),
        ]
        runner = SurveyRunner(
            profiles, udp_repetitions=1, udp5_repetitions=1,
            tcp1_cutoff=600.0, transfer_bytes=256 * 1024,
        )
        return runner.run()

    def test_udp_families_populated(self, results):
        assert results.family("udp1")["quick"].summary().median == pytest.approx(30.0, abs=1.0)
        assert results.family("udp2")["slow"].summary().median == pytest.approx(150.0, abs=1.5)
        assert results.family("udp3")["quick"].summary().median == pytest.approx(90.0, abs=1.5)
        assert set(results.family("udp5")) == {"quick", "slow"}
        for cell in results.family("udp5").values():
            assert set(cell) == {"dns", "http", "ntp", "snmp", "tftp"}

    def test_udp4_derived(self, results):
        assert results.family("udp4")["quick"].preserves_port

    def test_tcp_families_populated(self, results):
        assert results.family("tcp1")["quick"].censored or results.family("tcp1")["quick"].samples
        assert results.family("tcp4")["quick"].max_bindings == 20
        assert results.family("tcp4")["slow"].max_bindings == 50
        assert results.family("tcp2")["quick"].upload is not None

    def test_other_families_populated(self, results):
        assert set(results.family("icmp")) == {"quick", "slow"}
        assert results.family("transports")["quick"]["dccp"].supported is False
        assert results.family("dns")["quick"].answers_udp

    def test_test_selection(self):
        runner = SurveyRunner([make_profile("only")], udp_repetitions=1)
        results = runner.run(tests=["udp1"])
        assert results.family("udp1") and not results.family("tcp1") and not results.family("dns")

    def test_unknown_test_rejected(self):
        runner = SurveyRunner([make_profile("x")])
        with pytest.raises(ValueError):
            runner.run(tests=["udp9"])


# ---------------------------------------------------------------------------
# Property-based invariants on the NAT engine.
# ---------------------------------------------------------------------------

flows = st.tuples(
    st.integers(min_value=1024, max_value=65535),  # internal port
    st.integers(min_value=1, max_value=3),         # remote host selector
    st.integers(min_value=1, max_value=2),         # remote port selector
)


@settings(deadline=None, max_examples=50)
@given(st.lists(flows, min_size=1, max_size=60))
def test_nat_external_ports_always_unique(flow_list):
    """Invariant: no two live bindings of one protocol share an external port."""
    sim = Simulation(seed=11)
    nat = NatEngine(sim, make_profile())
    seen_ports = {}
    for int_port, host_selector, port_selector in flow_list:
        remote = (IPv4Address(f"10.0.1.{host_selector}"), 7000 + port_selector)
        binding = nat.lookup_or_create("udp", CLIENT, int_port, remote)
        if binding is None:
            continue
        key = nat._mapping_key("udp", CLIENT, int_port, remote)
        previous = seen_ports.get(binding.ext_port)
        assert previous is None or previous == key
        seen_ports[binding.ext_port] = key


@settings(deadline=None, max_examples=50)
@given(st.lists(flows, min_size=1, max_size=60), st.integers(min_value=1, max_value=20))
def test_nat_binding_count_never_exceeds_cap(flow_list, cap):
    sim = Simulation(seed=12)
    nat = NatEngine(sim, make_profile(nat=NatPolicy(max_udp_bindings=cap)))
    for int_port, host_selector, port_selector in flow_list:
        remote = (IPv4Address(f"10.0.1.{host_selector}"), 7000 + port_selector)
        nat.lookup_or_create("udp", CLIENT, int_port, remote)
        assert nat.binding_count("udp") <= cap


@settings(deadline=None, max_examples=30)
@given(
    st.lists(st.tuples(st.sampled_from(["out", "in"]), st.floats(min_value=0.1, max_value=50.0)),
             min_size=1, max_size=20)
)
def test_nat_binding_outlives_activity_by_at_most_timeout(events):
    """Invariant: a binding expires no earlier than its timeout after the
    last refreshing packet, and no later than timeout + granularity."""
    sim = Simulation(seed=13)
    timeout = 60.0
    nat = NatEngine(sim, make_profile(udp_timeouts=UdpTimeoutPolicy(timeout, timeout, timeout)))
    binding = nat.lookup_or_create("udp", CLIENT, 5000, (SERVER, 7777))
    nat.note_outbound(binding)
    last_activity = sim.now
    for direction, gap in events:
        sim.run(until=sim.now + gap)
        if nat.find_by_external("udp", binding.ext_port) is None:
            assert sim.now >= last_activity + timeout - 1e-6
            return
        if direction == "out":
            nat.note_outbound(binding)
        else:
            nat.note_inbound(binding)
        last_activity = sim.now
    sim.run(until=last_activity + timeout + 1.0)
    assert nat.find_by_external("udp", binding.ext_port) is None


@settings(deadline=None, max_examples=20)
@given(st.binary(min_size=1, max_size=5000), st.integers(min_value=0, max_value=2**31))
def test_tcp_stream_integrity_property(payload, seed):
    """Whatever bytes go into a TCP connection come out, in order."""
    from ipaddress import IPv4Network

    from repro.netsim import Link, mac_allocator
    from repro.protocols import Host

    sim = Simulation(seed=seed)
    macs = mac_allocator()
    a, b = Host(sim, "a", macs), Host(sim, "b", macs)
    ia, ib = a.new_interface(), b.new_interface()
    Link(sim, rate_bps=10e6, delay=1e-4).attach(ia, ib)
    net = IPv4Network("10.0.0.0/24")
    ia.configure(IPv4Address("10.0.0.1"), net)
    ib.configure(IPv4Address("10.0.0.2"), net)
    received = bytearray()
    b.tcp.listen(80, lambda conn: setattr(conn, "on_data", received.extend))
    client = a.tcp.connect(IPv4Address("10.0.0.2"), 80)
    client.on_established = lambda c: (c.send(payload), c.close())
    sim.run()
    assert bytes(received) == payload
