"""Header rewriting helpers used by the NAT data path.

All translation happens on *copies* — the original packet object may still
be referenced by traces or by the sender — and checksums are either fixed or
deliberately left stale according to the device's policy, so checksum bugs
(zy1, ls1) stay observable on the wire.

Checksum fixing uses RFC 1624 incremental updates over only the rewritten
address/port words (the same trick real NAT datapaths use): starting from a
checksum consistent with the packet, folding out the old words and folding
in the new ones is exactly equal to a full recomputation, at O(rewritten
words) instead of O(packet).  The full recompute survives as the fallback
for transports whose checksum we cannot update incrementally (SCTP's CRC,
DCCP) and for packets that arrive without a checksum to update.

Per RFC 3022 §4.1 a UDP zero checksum means "no checksum was generated" and
must be forwarded untouched, not updated.

A VALID checksum (:data:`~repro.packets.checksum.VALID`, what the model's
own senders create) follows the packet's content by definition, so a
correct rewrite keeps it without any arithmetic.  Explicit values keep the
RFC 1624 rule above.  A rewrite that must leave a checksum stale (the
IP-only fallback's transport checksum) computes VALID first.
"""

from __future__ import annotations

from ipaddress import IPv4Address
from typing import Optional

from repro.packets.checksum import VALID, incremental_update_words
from repro.packets.clone import clone_packet
from repro.packets.dccp import DccpPacket
from repro.packets.ipv4 import IPv4Packet
from repro.packets.sctp import SctpPacket
from repro.packets.tcp import TCPOPT_MSS, TcpSegment
from repro.packets.udp import UdpDatagram

__all__ = [
    "clone_packet",
    "rewrite_source",
    "rewrite_destination",
    "rewrite_ip_only",
    "refresh_ip_checksum",
    "strip_tcp_options",
]

_PORT_REWRITE_TRANSPORTS = (UdpDatagram, TcpSegment, SctpPacket, DccpPacket)


def rewrite_source(packet: IPv4Packet, new_ip: IPv4Address, new_port: Optional[int]) -> None:
    """SNAT: rewrite source address (and port) and fix the checksums."""
    _rewrite(packet, "src", "src_port", new_ip, new_port)


def rewrite_destination(packet: IPv4Packet, new_ip: IPv4Address, new_port: Optional[int]) -> None:
    """DNAT: rewrite destination address (and port) and fix the checksums."""
    _rewrite(packet, "dst", "dst_port", new_ip, new_port)


def _rewrite(packet: IPv4Packet, ip_attr: str, port_attr: str, new_ip: IPv4Address, new_port: Optional[int]) -> None:
    transport = packet.payload
    old_ip: IPv4Address = getattr(packet, ip_attr)
    old_words = old_ip._ip  # raw int; IPv4Address.__int__ costs a call per packet
    new_words = new_ip._ip
    nwords = 2
    setattr(packet, ip_attr, new_ip)
    if new_port is not None and isinstance(transport, _PORT_REWRITE_TRANSPORTS):
        old_port: int = getattr(transport, port_attr)
        old_words = (old_words << 16) | old_port
        new_words = (new_words << 16) | new_port
        nwords = 3
        setattr(transport, port_attr, new_port)
    _update_transport_checksum(packet, transport, old_words, new_words, nwords)
    _update_ip_checksum(packet, old_ip, new_ip)


def _update_transport_checksum(
    packet: IPv4Packet, transport, old_words: int, new_words: int, nwords: int
) -> None:
    checksum = getattr(transport, "checksum", None)
    if checksum is VALID:
        return  # valid by construction: it follows the rewrite
    if isinstance(transport, UdpDatagram):
        if checksum == 0:
            return  # RFC 3022: a zero UDP checksum means "none"; forward as-is
        if checksum is not None:
            updated = incremental_update_words(checksum, old_words, new_words, nwords)
            # RFC 768: an all-zero computed checksum is transmitted as 0xFFFF.
            transport.checksum = updated or 0xFFFF
            return
    elif isinstance(transport, TcpSegment):
        if checksum is not None:
            transport.checksum = incremental_update_words(checksum, old_words, new_words, nwords)
            return
    # No base checksum to update, or a transport (SCTP CRC, DCCP) we only
    # know how to recompute in full.
    if hasattr(transport, "fill_checksum"):
        transport.fill_checksum(packet.src, packet.dst)


def _update_ip_checksum(packet: IPv4Packet, old_ip: IPv4Address, new_ip: IPv4Address) -> None:
    checksum = packet.header_checksum
    if checksum is VALID:
        return
    if checksum is not None:
        packet.header_checksum = incremental_update_words(checksum, old_ip._ip, new_ip._ip, 2)
    else:
        packet.header_checksum = packet.compute_header_checksum()


def rewrite_ip_only(packet: IPv4Packet, src: Optional[IPv4Address] = None, dst: Optional[IPv4Address] = None) -> None:
    """The IP-only fallback: rewrite addresses, fix *only* the IP header
    checksum, and leave the transport checksum untouched.

    This preserves SCTP (its CRC ignores addresses) and corrupts DCCP (its
    checksum covers the pseudo-header) — the §4.4 mechanism.  A VALID
    transport checksum is computed before the addresses change, so it goes
    stale the same way.
    """
    packet.materialize_checksums()
    if src is not None:
        packet.src = src
    if dst is not None:
        packet.dst = dst
    packet.header_checksum = packet.compute_header_checksum()


def refresh_ip_checksum(packet: IPv4Packet) -> None:
    """Make the header checksum verify after a header write (TTL, options).

    A full recompute of an explicit value, or nothing for VALID, which
    already follows the header.
    """
    if packet.header_checksum is not VALID:
        packet.header_checksum = packet.compute_header_checksum()


def strip_tcp_options(packet: IPv4Packet) -> None:
    """The option-stripping quirk: keep only a TCP segment's MSS options.

    Stripping resizes the segment, so the cached wire sizes go, and an
    explicit checksum is recomputed here: a NAT rewrite downstream only
    applies an incremental address/port update to a consistent base.  VALID
    follows the new options.
    """
    segment = packet.payload
    if not segment.options:
        return
    segment.options = [opt for opt in segment.options if opt.kind == TCPOPT_MSS]
    segment._wire = None
    packet._wire = None
    if segment.checksum is not VALID:
        segment.fill_checksum(packet.src, packet.dst)
