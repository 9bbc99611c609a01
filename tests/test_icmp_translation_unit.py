"""Unit tests for the ICMP translation engine (no testbed)."""

from ipaddress import IPv4Address

import pytest

from repro.devices.profile import IcmpAction, IcmpPolicy, icmp_actions
from repro.gateway.icmp_translation import IcmpTranslationEngine, classify_error
from repro.gateway.nat import NatEngine
from repro.packets import (
    ICMP_DEST_UNREACH,
    ICMP_ECHO_REQUEST,
    ICMP_SOURCE_QUENCH,
    ICMP_TIME_EXCEEDED,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    UNREACH_FRAG_NEEDED,
    UNREACH_PORT,
    TIME_EXCEEDED_TTL,
    IcmpMessage,
    IPv4Packet,
    TcpSegment,
    UdpDatagram,
)
from tests.conftest import make_profile

CLIENT = IPv4Address("192.168.1.100")
WAN = IPv4Address("10.0.1.2")
SERVER = IPv4Address("10.0.1.1")


def _setup(sim, **profile_overrides):
    profile = make_profile(**profile_overrides)
    nat = NatEngine(sim, profile)
    engine = IcmpTranslationEngine(profile.icmp, nat)
    binding = nat.lookup_or_create("udp", CLIENT, 5000, (SERVER, 7777))
    return nat, engine, binding


def _error_for(binding, icmp_type=ICMP_DEST_UNREACH, code=UNREACH_PORT, proto=PROTO_UDP):
    """Forge the inbound error the server side would send."""
    if proto == PROTO_UDP:
        transport = UdpDatagram(binding.ext_port, 7777, b"x")
    else:
        transport = TcpSegment(binding.ext_port, 7777, seq=1)
    outbound = IPv4Packet(WAN, SERVER, proto, transport)
    outbound.fill_checksums()
    error = IcmpMessage.error(icmp_type, code, outbound)
    packet = IPv4Packet(SERVER, WAN, PROTO_ICMP, error)
    packet.fill_checksums()
    return packet


class TestClassify:
    @pytest.mark.parametrize(
        "icmp_type,code,kind",
        [
            (ICMP_DEST_UNREACH, UNREACH_PORT, "port_unreach"),
            (ICMP_DEST_UNREACH, UNREACH_FRAG_NEEDED, "frag_needed"),
            (ICMP_TIME_EXCEEDED, TIME_EXCEEDED_TTL, "ttl_exceeded"),
            (ICMP_SOURCE_QUENCH, 0, "source_quench"),
        ],
    )
    def test_known_kinds(self, icmp_type, code, kind):
        message = IcmpMessage(icmp_type, code)
        assert classify_error(message) == kind

    def test_unknown_returns_none(self):
        assert classify_error(IcmpMessage(ICMP_ECHO_REQUEST)) is None
        assert classify_error(IcmpMessage(ICMP_DEST_UNREACH, 99)) is None


class TestTranslate:
    def test_forwarded_error_fully_rewritten(self, sim):
        nat, engine, binding = _setup(sim)
        action, result = engine.translate_inbound_error(_error_for(binding))
        assert action == "forward"
        assert result.dst == CLIENT
        inner = result.payload.embedded
        assert inner.src == CLIENT
        assert inner.payload.src_port == 5000
        assert inner.header_checksum_ok()
        assert inner.payload.checksum_ok(inner.src, inner.dst)
        assert result.payload.checksum_ok()

    def test_dropped_kind(self, sim):
        policy_kwargs = dict(
            icmp=IcmpPolicy(udp=icmp_actions({"ttl_exceeded"}), tcp=icmp_actions())
        )
        nat, engine, binding = _setup(sim, **policy_kwargs)
        action, result = engine.translate_inbound_error(_error_for(binding))
        assert action == "drop" and result is None
        assert engine.dropped == 1

    def test_no_binding_drops(self, sim):
        nat, engine, binding = _setup(sim)
        nat.remove_binding(binding)
        action, _ = engine.translate_inbound_error(_error_for(binding))
        assert action == "drop"

    def test_no_embedded_transport_rewrite_leaves_port_and_checksum(self, sim):
        nat, engine, binding = _setup(
            sim, icmp=IcmpPolicy(rewrites_embedded_transport=False)
        )
        action, result = engine.translate_inbound_error(_error_for(binding))
        assert action == "forward"
        inner = result.payload.embedded
        # Outer and embedded IPs are translated but the transport checksum is
        # now stale for the rewritten addresses.
        assert inner.src == CLIENT
        assert not inner.payload.checksum_ok(inner.src, inner.dst)

    def test_unfixed_embedded_ip_checksum(self, sim):
        nat, engine, binding = _setup(sim, icmp=IcmpPolicy(fixes_embedded_ip_checksum=False))
        action, result = engine.translate_inbound_error(_error_for(binding))
        assert action == "forward"
        assert not result.payload.embedded.header_checksum_ok()

    def test_ls2_style_rst_synthesis(self, sim):
        policy = IcmpPolicy(tcp={k: IcmpAction.TO_TCP_RST for k in icmp_actions()})
        profile = make_profile(icmp=policy)
        nat = NatEngine(sim, profile)
        engine = IcmpTranslationEngine(profile.icmp, nat)
        binding = nat.lookup_or_create("tcp", CLIENT, 5000, (SERVER, 7777))
        action, result = engine.translate_inbound_error(
            _error_for(binding, proto=PROTO_TCP)
        )
        assert action == "rst"
        assert isinstance(result.payload, TcpSegment)
        assert result.payload.rst
        assert result.dst == CLIENT
        assert result.payload.dst_port == 5000
        assert engine.rst_synthesized == 1

    def test_original_packet_not_mutated(self, sim):
        nat, engine, binding = _setup(sim)
        packet = _error_for(binding)
        original_dst = packet.dst
        original_inner_src = packet.payload.embedded.src
        engine.translate_inbound_error(packet)
        assert packet.dst == original_dst
        assert packet.payload.embedded.src == original_inner_src

    def test_non_error_dropped(self, sim):
        nat, engine, binding = _setup(sim)
        echo = IPv4Packet(SERVER, WAN, PROTO_ICMP, IcmpMessage.echo_request(1, 1))
        action, _ = engine.translate_inbound_error(echo)
        assert action == "drop"

    def test_echo_flow_error_translated(self, sim):
        nat, engine, binding = _setup(sim)
        ext_ident = nat.echo_outbound(CLIENT, 0x77)
        inner_echo = IcmpMessage.echo_request(ext_ident, 1)
        outbound = IPv4Packet(WAN, SERVER, PROTO_ICMP, inner_echo)
        outbound.fill_checksums()
        error = IcmpMessage.error(ICMP_DEST_UNREACH, 1, outbound)
        packet = IPv4Packet(SERVER, WAN, PROTO_ICMP, error)
        packet.fill_checksums()
        action, result = engine.translate_inbound_error(packet)
        assert action == "forward"
        assert result.dst == CLIENT
        assert result.payload.embedded.payload.echo_ident == 0x77

    def test_echo_flow_policy_off(self, sim):
        nat, engine, binding = _setup(sim, icmp=IcmpPolicy(icmp_flows=False))
        ext_ident = nat.echo_outbound(CLIENT, 0x77)
        inner_echo = IcmpMessage.echo_request(ext_ident, 1)
        outbound = IPv4Packet(WAN, SERVER, PROTO_ICMP, inner_echo)
        outbound.fill_checksums()
        error = IcmpMessage.error(ICMP_DEST_UNREACH, 1, outbound)
        packet = IPv4Packet(SERVER, WAN, PROTO_ICMP, error)
        action, _ = engine.translate_inbound_error(packet)
        assert action == "drop"
