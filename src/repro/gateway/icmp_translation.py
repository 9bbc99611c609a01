"""Inbound ICMP error translation — the behaviour Table 2 grades.

When an ICMP error arrives at the WAN port it embeds the (translated)
outbound packet that provoked it.  A correct NAT (RFC 5508):

1. finds the binding from the embedded source port,
2. rewrites the outer destination to the internal host,
3. rewrites the *embedded* source address/port back to the internal view,
4. fixes the embedded transport and IP checksums, and
5. forwards the result to the internal host.

The engine implements that pipeline with per-kind policy (translate / drop /
turn-into-TCP-RST for ls2) and two bug switches observed in the wild:
``rewrites_embedded_transport = False`` (16 of 34 devices) and
``fixes_embedded_ip_checksum = False`` (zy1, ls1).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.devices.profile import IcmpAction, IcmpPolicy
from repro.gateway.nat import NatEngine
from repro.gateway.translation import clone_packet
from repro.packets.icmp import (
    ICMP_DEST_UNREACH,
    ICMP_PARAM_PROBLEM,
    ICMP_SOURCE_QUENCH,
    ICMP_TIME_EXCEEDED,
    UNREACH_FRAG_NEEDED,
    UNREACH_HOST,
    UNREACH_NET,
    UNREACH_PORT,
    UNREACH_PROTO,
    UNREACH_SRC_ROUTE_FAILED,
    TIME_EXCEEDED_REASSEMBLY,
    TIME_EXCEEDED_TTL,
    IcmpMessage,
)
from repro.packets.ipv4 import PROTO_ICMP, PROTO_TCP, PROTO_UDP, IPv4Packet
from repro.packets.tcp import TCP_RST, TcpSegment
from repro.packets.udp import UdpDatagram


def classify_error(message: IcmpMessage) -> Optional[str]:
    """Map an ICMP error to the kind names used in Table 2."""
    if message.icmp_type == ICMP_DEST_UNREACH:
        return {
            UNREACH_NET: "net_unreach",
            UNREACH_HOST: "host_unreach",
            UNREACH_PROTO: "proto_unreach",
            UNREACH_PORT: "port_unreach",
            UNREACH_FRAG_NEEDED: "frag_needed",
            UNREACH_SRC_ROUTE_FAILED: "src_route_failed",
        }.get(message.code)
    if message.icmp_type == ICMP_TIME_EXCEEDED:
        return {
            TIME_EXCEEDED_TTL: "ttl_exceeded",
            TIME_EXCEEDED_REASSEMBLY: "reass_time_exceeded",
        }.get(message.code)
    if message.icmp_type == ICMP_SOURCE_QUENCH:
        return "source_quench"
    if message.icmp_type == ICMP_PARAM_PROBLEM:
        return "param_problem"
    return None


class IcmpTranslationEngine:
    """Applies a device's :class:`IcmpPolicy` to inbound errors."""

    def __init__(self, policy: IcmpPolicy, nat: NatEngine):
        self.policy = policy
        self.nat = nat
        self.translated = 0
        self.dropped = 0
        self.rst_synthesized = 0

    def translate_inbound_error(
        self, packet: IPv4Packet
    ) -> Tuple[str, Optional[IPv4Packet]]:
        """Handle one inbound ICMP error addressed to the WAN IP.

        Returns ``(action, result_packet)`` where action is one of
        ``"forward"`` (result is the translated ICMP packet, addressed to the
        internal host), ``"rst"`` (result is a synthesized TCP RST), or
        ``"drop"``.
        """
        message = packet.payload
        if not isinstance(message, IcmpMessage) or not message.is_error:
            return ("drop", None)
        embedded = message.embedded
        if embedded is None:
            self.dropped += 1
            return ("drop", None)
        kind = classify_error(message)
        if kind is None:
            self.dropped += 1
            return ("drop", None)

        if embedded.protocol == PROTO_UDP:
            table = self.policy.udp
            transport = embedded.payload
            port_ok = isinstance(transport, UdpDatagram)
        elif embedded.protocol == PROTO_TCP:
            table = self.policy.tcp
            transport = embedded.payload
            port_ok = isinstance(transport, TcpSegment)
        elif embedded.protocol == PROTO_ICMP:
            return self._translate_for_echo(packet, message, kind)
        else:
            self.dropped += 1
            return ("drop", None)
        if not port_ok:
            self.dropped += 1
            return ("drop", None)

        proto_name = "udp" if embedded.protocol == PROTO_UDP else "tcp"
        binding = self.nat.find_by_external(proto_name, transport.src_port)
        if binding is None:
            self.dropped += 1
            return ("drop", None)

        action = table.get(kind, IcmpAction.DROP)
        if action is IcmpAction.DROP:
            self.dropped += 1
            return ("drop", None)
        if action is IcmpAction.TO_TCP_RST:
            self.rst_synthesized += 1
            return ("rst", self._make_rst(packet, binding))

        translated = clone_packet(packet)
        translated.dst = binding.int_ip
        inner_message = translated.payload
        inner = inner_message.embedded
        # Rewrite the embedded packet back to the internal view.  Its VALID
        # checksums become numbers first, so those the policy does not fix
        # go stale as they do on the wire.
        inner.materialize_checksums()
        inner.src = binding.int_ip
        if self.policy.rewrites_embedded_transport:
            inner.payload.src_port = binding.int_port
            if hasattr(inner.payload, "fill_checksum"):
                inner.payload.fill_checksum(inner.src, inner.dst)
        if self.policy.fixes_embedded_ip_checksum:
            inner.header_checksum = inner.compute_header_checksum()
        # The outer ICMP checksum covers the embedded bytes; every device
        # that forwards at all recomputes it, or the host would discard.
        inner_message.fill_checksum()
        translated.header_checksum = translated.compute_header_checksum()
        self.translated += 1
        return ("forward", translated)

    def _translate_for_echo(
        self, packet: IPv4Packet, message: IcmpMessage, kind: str
    ) -> Tuple[str, Optional[IPv4Packet]]:
        """Errors about ICMP echo flows (Table 2's "ICMP: Host Unreach.")."""
        if not self.policy.icmp_flows:
            self.dropped += 1
            return ("drop", None)
        embedded = message.embedded
        inner_msg = embedded.payload
        if not isinstance(inner_msg, IcmpMessage):
            self.dropped += 1
            return ("drop", None)
        target = self.nat.echo_inbound(inner_msg.echo_ident)
        if target is None:
            self.dropped += 1
            return ("drop", None)
        int_ip, int_ident = target
        translated = clone_packet(packet)
        translated.dst = int_ip
        inner = translated.payload.embedded
        inner.materialize_checksums()
        inner.src = int_ip
        if self.policy.rewrites_embedded_transport:
            inner.payload.rest = (int_ident << 16) | inner.payload.echo_seq
            inner.payload.fill_checksum()
        if self.policy.fixes_embedded_ip_checksum:
            inner.header_checksum = inner.compute_header_checksum()
        translated.payload.fill_checksum()
        translated.header_checksum = translated.compute_header_checksum()
        self.translated += 1
        return ("forward", translated)

    def _make_rst(self, packet: IPv4Packet, binding) -> IPv4Packet:
        """ls2's quirk: an (invalid) RST toward the internal endpoint."""
        rst = TcpSegment(
            binding.remote[1],
            binding.int_port,
            seq=0,  # invalid: no relation to the connection's sequence space
            flags=TCP_RST,
        )
        result = IPv4Packet(binding.remote[0], binding.int_ip, PROTO_TCP, rst)
        result.fill_checksums()
        return result
