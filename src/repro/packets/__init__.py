"""Structured packet model with real wire formats.

Every header the study touches is modelled here: Ethernet, IPv4 (including
the Record Route option some gateways mishandle), UDP, TCP, ICMP, SCTP and
DCCP, plus the DNS and DHCP application codecs.

Design rules:

* Every layer knows its :meth:`wire_size` so the simulator is byte-accurate
  without serializing on the hot path.
* Every layer serializes to *real* wire bytes (``to_bytes``/``from_bytes``)
  so tests can verify formats round-trip against the RFCs.
* Checksum fields are explicit and may be stale: a NAT that rewrites an
  address without fixing a checksum (a real bug the paper found in ``zy1``
  and ``ls1``) is representable, and receivers verify checksums the way real
  stacks do.  IPv4 header and TCP/UDP checksums may instead be
  :data:`~repro.packets.checksum.VALID`: equal by definition to a full
  recompute, and computed only when a byte is observed.
"""

from repro.packets.checksum import crc32c, internet_checksum
from repro.packets.ethernet import ETHERTYPE_IPV4, EthernetFrame
from repro.packets.ipv4 import (
    PROTO_DCCP,
    PROTO_ICMP,
    PROTO_SCTP,
    PROTO_TCP,
    PROTO_UDP,
    IPv4Packet,
    RecordRouteOption,
)
from repro.packets.udp import UdpDatagram
from repro.packets.tcp import (
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_RST,
    TCP_SYN,
    TcpSegment,
)
from repro.packets.icmp import (
    ICMP_DEST_UNREACH,
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
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
from repro.packets.sctp import (
    SCTP_ABORT,
    SCTP_COOKIE_ACK,
    SCTP_COOKIE_ECHO,
    SCTP_DATA,
    SCTP_INIT,
    SCTP_INIT_ACK,
    SCTP_SACK,
    SctpChunk,
    SctpPacket,
)
from repro.packets.dccp import (
    DCCP_ACK,
    DCCP_DATA,
    DCCP_REQUEST,
    DCCP_RESET,
    DCCP_RESPONSE,
    DccpPacket,
)

__all__ = [
    "crc32c",
    "internet_checksum",
    "EthernetFrame",
    "ETHERTYPE_IPV4",
    "IPv4Packet",
    "RecordRouteOption",
    "PROTO_ICMP",
    "PROTO_TCP",
    "PROTO_UDP",
    "PROTO_SCTP",
    "PROTO_DCCP",
    "UdpDatagram",
    "TcpSegment",
    "TCP_SYN",
    "TCP_ACK",
    "TCP_FIN",
    "TCP_RST",
    "TCP_PSH",
    "IcmpMessage",
    "ICMP_ECHO_REQUEST",
    "ICMP_ECHO_REPLY",
    "ICMP_DEST_UNREACH",
    "ICMP_SOURCE_QUENCH",
    "ICMP_TIME_EXCEEDED",
    "ICMP_PARAM_PROBLEM",
    "UNREACH_NET",
    "UNREACH_HOST",
    "UNREACH_PROTO",
    "UNREACH_PORT",
    "UNREACH_FRAG_NEEDED",
    "UNREACH_SRC_ROUTE_FAILED",
    "TIME_EXCEEDED_TTL",
    "TIME_EXCEEDED_REASSEMBLY",
    "SctpPacket",
    "SctpChunk",
    "SCTP_DATA",
    "SCTP_INIT",
    "SCTP_INIT_ACK",
    "SCTP_SACK",
    "SCTP_COOKIE_ECHO",
    "SCTP_COOKIE_ACK",
    "SCTP_ABORT",
    "DccpPacket",
    "DCCP_REQUEST",
    "DCCP_RESPONSE",
    "DCCP_DATA",
    "DCCP_ACK",
    "DCCP_RESET",
]
