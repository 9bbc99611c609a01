"""Deep-enough packet copying.

Simulated packets are shared object references; anything that *mutates* a
header (NAT translation, a router's TTL decrement) must work on a copy so
traces and senders keep seeing what was actually on their wire.  Payload
bytes are immutable and shared.
"""

from __future__ import annotations

from repro.packets.dccp import DccpPacket
from repro.packets.icmp import IcmpMessage
from repro.packets.ipv4 import IPv4Packet
from repro.packets.sctp import SctpPacket
from repro.packets.tcp import TcpSegment
from repro.packets.udp import UdpDatagram


def clone_packet(packet: IPv4Packet) -> IPv4Packet:
    """Copy an IPv4 packet, its Record Route option and its transport header
    (payload bytes shared).  Checksum states are copied as they are: a VALID
    checksum stays VALID, an explicit one keeps its number."""
    payload = packet.payload
    if isinstance(payload, (UdpDatagram, TcpSegment, SctpPacket, DccpPacket, IcmpMessage)):
        payload = payload.copy()
        if isinstance(payload, IcmpMessage) and payload.embedded is not None:
            payload.embedded = clone_packet(payload.embedded)
    return IPv4Packet(
        packet.src,
        packet.dst,
        packet.protocol,
        payload,
        ttl=packet.ttl,
        identification=packet.identification,
        tos=packet.tos,
        dont_fragment=packet.dont_fragment,
        header_checksum=packet.header_checksum,
        record_route=None if packet.record_route is None else packet.record_route.copy(),
    )
