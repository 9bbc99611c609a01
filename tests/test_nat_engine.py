"""The NAT engine: bindings, timers, port policy, filtering."""

from ipaddress import IPv4Address, IPv4Network

import pytest
from hypothesis import given, settings, strategies as st

from repro.cgn import CgnNode, CgnPolicy
from repro.devices.profile import (
    FilteringBehavior,
    MappingBehavior,
    NatPolicy,
    PortAllocation,
    TcpTimeoutPolicy,
    UdpTimeoutPolicy,
)
from repro.gateway.device import HomeGateway
from repro.gateway.nat import (
    STATE_AFTER_INBOUND,
    STATE_BIDIRECTIONAL,
    STATE_OUTBOUND_ONLY,
    NatEngine,
    PortExhaustedError,
)
from repro.netsim import Simulation, mac_allocator
from tests.conftest import make_profile

CLIENT = IPv4Address("192.168.1.100")
SERVER = IPv4Address("10.0.1.1")
REMOTE = (SERVER, 34567)


def engine(sim, **profile_overrides):
    return NatEngine(sim, make_profile(**profile_overrides))


class TestBindingLifecycle:
    def test_create_and_find(self, sim):
        nat = engine(sim)
        binding = nat.lookup_or_create("udp", CLIENT, 5000, REMOTE)
        assert binding.ext_port == 5000  # preservation default
        assert nat.find_by_external("udp", 5000) is binding

    def test_same_flow_reuses_binding(self, sim):
        nat = engine(sim)
        first = nat.lookup_or_create("udp", CLIENT, 5000, REMOTE)
        second = nat.lookup_or_create("udp", CLIENT, 5000, REMOTE)
        assert first is second
        assert nat.bindings_created == 1

    def test_distinct_flows_distinct_ports(self, sim):
        nat = engine(sim)
        b1 = nat.lookup_or_create("udp", CLIENT, 5000, REMOTE)
        b2 = nat.lookup_or_create("udp", CLIENT, 5001, REMOTE)
        assert b1.ext_port != b2.ext_port

    def test_port_collision_between_clients(self, sim):
        nat = engine(sim)
        other = IPv4Address("192.168.1.101")
        b1 = nat.lookup_or_create("udp", CLIENT, 5000, REMOTE)
        b2 = nat.lookup_or_create("udp", other, 5000, REMOTE)
        assert b1.ext_port == 5000
        assert b2.ext_port != 5000  # preservation blocked, allocator used

    def test_expiry_removes_binding(self, sim):
        nat = engine(sim, udp_timeouts=UdpTimeoutPolicy(30.0, 60.0, 60.0))
        binding = nat.lookup_or_create("udp", CLIENT, 5000, REMOTE)
        nat.note_outbound(binding)
        sim.run(until=29.0)
        assert nat.find_by_external("udp", 5000) is not None
        sim.run(until=31.0)
        assert nat.find_by_external("udp", 5000) is None
        assert nat.bindings_expired == 1

    def test_outbound_refresh_extends_life(self, sim):
        nat = engine(sim, udp_timeouts=UdpTimeoutPolicy(30.0, 60.0, 60.0))
        binding = nat.lookup_or_create("udp", CLIENT, 5000, REMOTE)
        nat.note_outbound(binding)
        sim.run(until=20.0)
        nat.note_outbound(binding)
        sim.run(until=45.0)
        assert nat.find_by_external("udp", 5000) is not None
        sim.run(until=51.0)
        assert nat.find_by_external("udp", 5000) is None


class TestTrafficStateMachine:
    def test_states_progress(self, sim):
        nat = engine(sim)
        binding = nat.lookup_or_create("udp", CLIENT, 5000, REMOTE)
        nat.note_outbound(binding)
        assert binding.state == STATE_OUTBOUND_ONLY
        nat.note_inbound(binding)
        assert binding.state == STATE_AFTER_INBOUND
        nat.note_outbound(binding)
        assert binding.state == STATE_BIDIRECTIONAL

    def test_timeout_follows_state(self, sim):
        nat = engine(sim, udp_timeouts=UdpTimeoutPolicy(30.0, 120.0, 300.0))
        binding = nat.lookup_or_create("udp", CLIENT, 5000, REMOTE)
        nat.note_outbound(binding)
        nat.note_inbound(binding)  # now after_inbound: 120 s
        sim.run(until=100.0)
        assert nat.find_by_external("udp", 5000) is not None
        sim.run(until=125.0)
        assert nat.find_by_external("udp", 5000) is None

    def test_per_port_override(self, sim):
        nat = engine(
            sim, udp_timeouts=UdpTimeoutPolicy(200.0, 200.0, 200.0, per_port={53: 30.0})
        )
        dns = nat.lookup_or_create("udp", CLIENT, 5000, (SERVER, 53))
        nat.note_outbound(dns)
        sim.run(until=35.0)
        assert nat.find_by_external("udp", dns.ext_port) is None

    def test_timer_granularity_quantizes_expiry(self, sim):
        nat = engine(
            sim, udp_timeouts=UdpTimeoutPolicy(30.0, 60.0, 60.0, timer_granularity=25.0)
        )
        sim.run_for(10.0)  # create at t=10; 10+30=40 -> next tick at 50
        binding = nat.lookup_or_create("udp", CLIENT, 5000, REMOTE)
        nat.note_outbound(binding)
        sim.run(until=49.0)
        assert nat.find_by_external("udp", 5000) is not None
        sim.run(until=51.0)
        assert nat.find_by_external("udp", 5000) is None


class TestPortPolicy:
    def test_no_preservation_allocates_sequentially(self, sim):
        nat = engine(sim, nat=NatPolicy(port_preservation=False, reuse_expired_binding=False))
        binding = nat.lookup_or_create("udp", CLIENT, 5000, REMOTE)
        assert binding.ext_port == 1024

    def test_random_allocation_in_range(self, sim):
        nat = engine(
            sim,
            nat=NatPolicy(port_preservation=False, port_allocation=PortAllocation.RANDOM),
        )
        binding = nat.lookup_or_create("udp", CLIENT, 5000, REMOTE)
        assert 1024 <= binding.ext_port <= 65535

    def test_reuse_after_expiry(self, sim):
        nat = engine(sim, udp_timeouts=UdpTimeoutPolicy(10.0, 10.0, 10.0))
        first = nat.lookup_or_create("udp", CLIENT, 5000, REMOTE)
        nat.note_outbound(first)
        sim.run(until=20.0)
        again = nat.lookup_or_create("udp", CLIENT, 5000, REMOTE)
        assert again.ext_port == first.ext_port

    def test_no_reuse_holddown_forces_fresh_port(self, sim):
        nat = engine(
            sim,
            udp_timeouts=UdpTimeoutPolicy(10.0, 10.0, 10.0),
            nat=NatPolicy(port_preservation=True, reuse_expired_binding=False, reuse_holddown=300.0),
        )
        first = nat.lookup_or_create("udp", CLIENT, 5000, REMOTE)
        assert first.ext_port == 5000
        nat.note_outbound(first)
        sim.run(until=20.0)  # expired, within hold-down
        again = nat.lookup_or_create("udp", CLIENT, 5000, REMOTE)
        assert again.ext_port != 5000

    def test_holddown_expires(self, sim):
        nat = engine(
            sim,
            udp_timeouts=UdpTimeoutPolicy(10.0, 10.0, 10.0),
            nat=NatPolicy(port_preservation=True, reuse_expired_binding=False, reuse_holddown=30.0),
        )
        first = nat.lookup_or_create("udp", CLIENT, 5000, REMOTE)
        nat.note_outbound(first)
        sim.run(until=60.0)  # expired and past hold-down
        again = nat.lookup_or_create("udp", CLIENT, 5000, REMOTE)
        assert again.ext_port == 5000

    def test_reserved_ports_skipped(self, sim):
        nat = engine(sim)
        nat.port_reserved = lambda proto, port: port == 5000
        binding = nat.lookup_or_create("udp", CLIENT, 5000, REMOTE)
        assert binding.ext_port != 5000


class TestPortExhaustion:
    """The sequential allocator must fail deterministically, not wrap forever.

    Regression: the scan used to restart from ``first_external_port`` without
    bounding the number of candidates visited, so a full pool re-examined
    ports it had already rejected instead of refusing the binding.
    """

    def _tiny_pool(self, sim):
        # Exactly two allocatable ports: 65534 and 65535.
        return engine(
            sim,
            nat=NatPolicy(
                port_preservation=False,
                reuse_expired_binding=False,
                first_external_port=65534,
            ),
        )

    def test_allocate_sequential_raises_after_one_full_wrap(self, sim):
        nat = self._tiny_pool(sim)
        assert nat._allocate_sequential("udp") == 65534
        assert nat._allocate_sequential("udp") == 65535
        # Mark both busy the way real bindings would.
        nat._used_ports["udp"].update({65534, 65535})
        with pytest.raises(PortExhaustedError, match=r"\[65534, 65535\]"):
            nat._allocate_sequential("udp")

    def test_exhaustion_is_a_refusal_not_a_crash(self, sim):
        nat = self._tiny_pool(sim)
        assert nat.lookup_or_create("udp", CLIENT, 5000, REMOTE) is not None
        assert nat.lookup_or_create("udp", CLIENT, 5001, REMOTE) is not None
        refused = nat.lookup_or_create("udp", CLIENT, 5002, REMOTE)
        assert refused is None
        assert nat.bindings_port_exhausted == 1
        assert nat.last_refusal == "port_exhausted"
        # A successful lookup clears the diagnostic.
        assert nat.lookup_or_create("udp", CLIENT, 5000, REMOTE) is not None
        assert nat.last_refusal is None

    def test_freed_port_is_reusable(self, sim):
        nat = self._tiny_pool(sim)
        first = nat.lookup_or_create("udp", CLIENT, 5000, REMOTE)
        nat.lookup_or_create("udp", CLIENT, 5001, REMOTE)
        nat.remove_binding(first)
        fresh = nat.lookup_or_create("udp", CLIENT, 5002, REMOTE)
        assert fresh is not None
        assert fresh.ext_port == first.ext_port

    def test_exhaustion_is_per_protocol(self, sim):
        nat = self._tiny_pool(sim)
        nat.lookup_or_create("udp", CLIENT, 5000, REMOTE)
        nat.lookup_or_create("udp", CLIENT, 5001, REMOTE)
        assert nat.lookup_or_create("udp", CLIENT, 5002, REMOTE) is None
        assert nat.lookup_or_create("tcp", CLIENT, 5000, REMOTE) is not None


class TestMappingBehavior:
    def test_endpoint_independent_single_mapping(self, sim):
        nat = engine(sim)
        b1 = nat.lookup_or_create("udp", CLIENT, 5000, (SERVER, 1000))
        b2 = nat.lookup_or_create("udp", CLIENT, 5000, (SERVER, 2000))
        assert b1 is b2

    def test_address_and_port_dependent_mapping(self, sim):
        nat = engine(
            sim,
            nat=NatPolicy(
                port_preservation=False, mapping=MappingBehavior.ADDRESS_AND_PORT_DEPENDENT
            ),
        )
        b1 = nat.lookup_or_create("udp", CLIENT, 5000, (SERVER, 1000))
        b2 = nat.lookup_or_create("udp", CLIENT, 5000, (SERVER, 2000))
        assert b1 is not b2
        assert b1.ext_port != b2.ext_port

    def test_address_dependent_mapping(self, sim):
        nat = engine(
            sim,
            nat=NatPolicy(port_preservation=False, mapping=MappingBehavior.ADDRESS_DEPENDENT),
        )
        b1 = nat.lookup_or_create("udp", CLIENT, 5000, (SERVER, 1000))
        b2 = nat.lookup_or_create("udp", CLIENT, 5000, (SERVER, 2000))
        b3 = nat.lookup_or_create("udp", CLIENT, 5000, (IPv4Address("10.0.1.2"), 1000))
        assert b1 is b2 and b1 is not b3


class TestFiltering:
    def _bound(self, sim, filtering):
        nat = engine(sim, nat=NatPolicy(filtering=filtering))
        binding = nat.lookup_or_create("udp", CLIENT, 5000, REMOTE)
        return nat, binding

    def test_endpoint_independent_lets_anyone(self, sim):
        nat, binding = self._bound(sim, FilteringBehavior.ENDPOINT_INDEPENDENT)
        assert nat.inbound_allowed(binding, (IPv4Address("203.0.113.9"), 999))

    def test_address_dependent_requires_known_host(self, sim):
        nat, binding = self._bound(sim, FilteringBehavior.ADDRESS_DEPENDENT)
        assert nat.inbound_allowed(binding, (SERVER, 999))  # same host, other port
        assert not nat.inbound_allowed(binding, (IPv4Address("203.0.113.9"), 34567))

    def test_port_dependent_requires_exact_endpoint(self, sim):
        nat, binding = self._bound(sim, FilteringBehavior.ADDRESS_AND_PORT_DEPENDENT)
        assert nat.inbound_allowed(binding, REMOTE)
        assert not nat.inbound_allowed(binding, (SERVER, 999))
        assert nat.inbound_filtered == 1


class TestTcpBindings:
    def test_transitory_then_established_timeouts(self, sim):
        nat = engine(sim, tcp_timeouts=TcpTimeoutPolicy(established=1000.0, transitory=60.0))
        binding = nat.lookup_or_create("tcp", CLIENT, 5000, REMOTE)
        nat.note_outbound(binding)  # SYN: transitory
        sim.run(until=59.0)
        assert nat.find_by_external("tcp", 5000) is not None
        nat.note_inbound(binding)  # SYN-ACK: established
        sim.run(until=900.0)
        assert nat.find_by_external("tcp", 5000) is not None
        sim.run(until=1902.0)
        assert nat.find_by_external("tcp", 5000) is None

    def test_established_none_never_expires(self, sim):
        nat = engine(sim, tcp_timeouts=TcpTimeoutPolicy(established=None))
        binding = nat.lookup_or_create("tcp", CLIENT, 5000, REMOTE)
        nat.note_outbound(binding)
        nat.note_inbound(binding)
        sim.run(until=1_000_000.0)
        assert nat.find_by_external("tcp", 5000) is not None

    def test_rst_clears_immediately(self, sim):
        nat = engine(sim, tcp_timeouts=TcpTimeoutPolicy(established=None, rst_clears=True))
        binding = nat.lookup_or_create("tcp", CLIENT, 5000, REMOTE)
        nat.note_inbound(binding)
        nat.note_tcp_flags(binding, fin=False, rst=True, outbound=True)
        assert nat.find_by_external("tcp", 5000) is None

    def test_fin_moves_to_closing_timeout(self, sim):
        nat = engine(sim, tcp_timeouts=TcpTimeoutPolicy(established=None, transitory=30.0))
        binding = nat.lookup_or_create("tcp", CLIENT, 5000, REMOTE)
        nat.note_inbound(binding)
        nat.note_tcp_flags(binding, fin=True, rst=False, outbound=True)
        sim.run(until=35.0)
        assert nat.find_by_external("tcp", 5000) is None

    def test_binding_cap_refuses(self, sim):
        nat = engine(sim, nat=NatPolicy(max_tcp_bindings=3))
        for port in range(5000, 5003):
            assert nat.lookup_or_create("tcp", CLIENT, port, REMOTE) is not None
        assert nat.lookup_or_create("tcp", CLIENT, 5003, REMOTE) is None
        assert nat.bindings_refused == 1
        assert nat.binding_count("tcp") == 3

    def test_cap_is_per_protocol(self, sim):
        nat = engine(sim, nat=NatPolicy(max_tcp_bindings=1))
        assert nat.lookup_or_create("tcp", CLIENT, 5000, REMOTE) is not None
        assert nat.lookup_or_create("udp", CLIENT, 6000, REMOTE) is not None


class TestEchoAndGenericBindings:
    def test_echo_ident_preserved_and_mapped_back(self, sim):
        nat = engine(sim)
        ext = nat.echo_outbound(CLIENT, 77)
        assert ext == 77
        assert nat.echo_inbound(77) == (CLIENT, 77)

    def test_echo_ident_collision_remapped(self, sim):
        nat = engine(sim)
        nat.echo_outbound(CLIENT, 77)
        other = IPv4Address("192.168.1.101")
        ext = nat.echo_outbound(other, 77)
        assert ext != 77
        assert nat.echo_inbound(ext) == (other, 77)

    def test_generic_binding_roundtrip(self, sim):
        nat = engine(sim)
        nat.generic_outbound(132, CLIENT, SERVER)
        assert nat.generic_inbound(132, SERVER) == CLIENT
        assert nat.generic_inbound(132, IPv4Address("203.0.113.1")) is None
        assert nat.generic_inbound(33, SERVER) is None


class TestExpiryGenerationGuard:
    """A timer armed for a torn-down binding must never kill its successor.

    RST teardown (or any removal) followed by an instant rebind re-uses the
    same mapping key; a stale expiry wake-up carrying the old binding's
    generation has to recognise the key now belongs to someone else.
    """

    def test_stale_wakeup_spares_the_rebound_flow(self, sim):
        nat = engine(sim, tcp_timeouts=TcpTimeoutPolicy(established=None, rst_clears=True))
        first = nat.lookup_or_create("tcp", CLIENT, 5000, REMOTE)
        old_gen = first.gen
        key = nat._mapping_key("tcp", CLIENT, 5000, REMOTE)
        nat.note_inbound(first)
        nat.note_tcp_flags(first, fin=False, rst=True, outbound=True)
        assert nat.find_by_external("tcp", 5000) is None
        second = nat.lookup_or_create("tcp", CLIENT, 5000, REMOTE)
        assert second is not first and second.gen > old_gen
        # The stale wake-up: same key, dead binding's generation.
        nat._expire(key, old_gen)
        assert nat.find_by_external("tcp", second.ext_port) is second

    def test_wakeup_for_a_removed_key_is_a_no_op(self, sim):
        nat = engine(sim)
        binding = nat.lookup_or_create("udp", CLIENT, 5000, REMOTE)
        key = nat._mapping_key("udp", CLIENT, 5000, REMOTE)
        nat.remove_binding(binding)
        nat._expire(key, binding.gen)  # must not raise, must not resurrect
        assert nat.find_by_external("udp", 5000) is None

    def test_generations_are_engine_wide_and_monotonic(self, sim):
        nat = engine(sim)
        gens = [
            nat.lookup_or_create(proto, CLIENT, port, REMOTE).gen
            for proto, port in (("udp", 5000), ("tcp", 5000), ("udp", 5001))
        ]
        assert gens == sorted(gens) and len(set(gens)) == 3

    def test_churned_key_expires_on_its_own_schedule(self, sim):
        # After RST + rebind, the *new* binding still ages out normally —
        # the guard must not leak an immortal binding.
        nat = engine(
            sim,
            udp_timeouts=UdpTimeoutPolicy(30.0, 30.0, 30.0),
            tcp_timeouts=TcpTimeoutPolicy(established=None, rst_clears=True),
        )
        first = nat.lookup_or_create("tcp", CLIENT, 5000, REMOTE)
        nat.note_tcp_flags(first, fin=False, rst=True, outbound=True)
        second = nat.lookup_or_create("udp", CLIENT, 5000, REMOTE)
        nat.note_outbound(second)
        sim.run(until=100.0)
        assert nat.find_by_external("udp", second.ext_port) is None


class TestPerProtocolRefusals:
    """``last_refusal`` and exhaustion counts must not cross protocols."""

    def _tight(self, sim):
        return engine(
            sim,
            nat=NatPolicy(
                port_preservation=False,
                reuse_expired_binding=False,
                first_external_port=65534,
                max_tcp_bindings=1,
            ),
        )

    def test_refusal_causes_are_tracked_per_protocol(self, sim):
        nat = self._tight(sim)
        nat.lookup_or_create("udp", CLIENT, 5000, REMOTE)
        nat.lookup_or_create("udp", CLIENT, 5001, REMOTE)
        assert nat.lookup_or_create("udp", CLIENT, 5002, REMOTE) is None
        nat.lookup_or_create("tcp", CLIENT, 5000, REMOTE)
        assert nat.lookup_or_create("tcp", CLIENT, 5001, REMOTE) is None
        assert nat.refusal_cause("udp") == "port_exhausted"
        assert nat.refusal_cause("tcp") == "table_full"
        assert nat.last_refusal == "table_full"  # most recent, any protocol

    def test_success_on_one_protocol_keeps_the_others_cause(self, sim):
        nat = self._tight(sim)
        nat.lookup_or_create("udp", CLIENT, 5000, REMOTE)
        nat.lookup_or_create("udp", CLIENT, 5001, REMOTE)
        assert nat.lookup_or_create("udp", CLIENT, 5002, REMOTE) is None
        # A concurrent TCP success must not relabel the UDP refusal.
        assert nat.lookup_or_create("tcp", CLIENT, 5000, REMOTE) is not None
        assert nat.refusal_cause("udp") == "port_exhausted"
        assert nat.refusal_cause("tcp") is None

    def test_exhaustion_counters_are_per_protocol_and_sum(self, sim):
        nat = self._tight(sim)
        for port in (5000, 5001):
            nat.lookup_or_create("udp", CLIENT, port, REMOTE)
            nat.lookup_or_create("tcp", CLIENT, port, REMOTE)
        nat.lookup_or_create("udp", CLIENT, 5002, REMOTE)
        nat.lookup_or_create("udp", CLIENT, 5003, REMOTE)
        assert nat.port_exhausted_for("udp") == 2
        assert nat.port_exhausted_for("tcp") == 0
        assert nat.bindings_port_exhausted == 2


class TestOneFullWrapProperty:
    """Exhaustive property: a pool ending at 65535 is scanned exactly once.

    For every choice of freed port in a fully allocated 3-port pool at the
    very top of the port space, the next allocation must wrap once, find
    precisely that port, and a subsequent allocation must refuse again.
    """

    POOL = (65533, 65534, 65535)

    def _pool_engine(self, sim):
        return engine(
            sim,
            nat=NatPolicy(
                port_preservation=False,
                reuse_expired_binding=False,
                first_external_port=self.POOL[0],
            ),
        )

    @pytest.mark.parametrize("freed", POOL)
    def test_wrap_finds_exactly_the_freed_port(self, sim, freed):
        nat = self._pool_engine(sim)
        bindings = {
            nat.lookup_or_create("udp", CLIENT, 5000 + i, REMOTE).ext_port: i
            for i in range(len(self.POOL))
        }
        assert sorted(bindings) == list(self.POOL)
        assert nat.lookup_or_create("udp", CLIENT, 5900, REMOTE) is None
        victim = nat.find_by_external("udp", freed)
        nat.remove_binding(victim)
        fresh = nat.lookup_or_create("udp", CLIENT, 5901, REMOTE)
        assert fresh is not None and fresh.ext_port == freed
        assert nat.lookup_or_create("udp", CLIENT, 5902, REMOTE) is None

    def test_full_pool_raises_with_the_range_in_the_message(self, sim):
        nat = self._pool_engine(sim)
        nat._used_ports["udp"].update(self.POOL)
        with pytest.raises(PortExhaustedError, match=r"\[65533, 65535\]"):
            nat._allocate_sequential("udp")


class TestOccupancyCounts:
    """``binding_count(proto)`` is a live count kept next to the binding
    table.  After any sequence of binds, expiries, RST teardowns,
    ``remove_binding`` calls and flushes it must equal a recount of the
    table, on a home gateway (whose tight caps refuse with ``table_full``)
    and on a CGN, whose block allocator owns port selection and refuses
    with ``port_exhausted``."""

    OPS = st.lists(
        st.one_of(
            st.tuples(st.just("bind"), st.sampled_from(["udp", "tcp"]), st.integers(0, 3), st.integers(0, 5)),
            st.tuples(st.just("advance"), st.sampled_from([1.0, 20.0, 45.0, 90.0])),
            st.tuples(st.just("rst"), st.integers(0, 63)),
            st.tuples(st.just("remove"), st.integers(0, 63)),
            st.tuples(st.just("flush")),
        ),
        max_size=60,
    )

    @staticmethod
    def _gateway(kind, sim):
        if kind == "home":
            profile = make_profile(
                nat=NatPolicy(max_udp_bindings=6, max_tcp_bindings=4),
                udp_timeouts=UdpTimeoutPolicy(30.0, 60.0, 60.0),
                tcp_timeouts=TcpTimeoutPolicy(established=120.0, transitory=40.0),
            )
            return HomeGateway(sim, profile, mac_allocator())
        policy = CgnPolicy(
            block_size=2, blocks_per_subscriber=2, pool_ports=12,
            udp_timeout=40.0, tcp_transitory_timeout=50.0,
        )
        return CgnNode(sim, policy, mac_allocator(), IPv4Network("100.64.0.0/24"))

    @pytest.mark.parametrize("kind", ["home", "cgn"])
    @settings(max_examples=60, deadline=None)
    @given(ops=OPS)
    def test_count_equals_a_recount_of_the_table(self, kind, ops):
        sim = Simulation(seed=3)
        nat = self._gateway(kind, sim).nat
        clients = [IPv4Address(f"192.168.1.{10 + i}") for i in range(4)]
        seen = []
        for op in ops:
            if op[0] == "bind":
                _, proto, client, flow = op
                binding = nat.lookup_or_create(proto, clients[client], 4000 + flow, (SERVER, 7000 + flow))
                if binding is not None:
                    nat.note_outbound(binding)  # arms the expiry timer, as the gateway does
                    seen.append(binding)
            elif op[0] == "advance":
                sim.run(until=sim.now + op[1])
            elif op[0] == "rst" and seen:
                binding = seen[op[1] % len(seen)]
                if binding.proto == "tcp":
                    nat.note_tcp_flags(binding, fin=False, rst=True, outbound=False)
            elif op[0] == "remove" and seen:
                nat.remove_binding(seen[op[1] % len(seen)])
            elif op[0] == "flush":
                nat.flush()
            for proto in ("udp", "tcp"):
                recount = sum(1 for binding in nat._by_mapping.values() if binding.proto == proto)
                assert nat.binding_count(proto) == recount
            assert nat.binding_count() == len(nat._by_mapping)
