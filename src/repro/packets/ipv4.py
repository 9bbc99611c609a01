"""IPv4 packets, including the header options the study exercises.

§4.4 of the paper notes that some gateways do not decrement TTL and that few
honour the Record Route option; both behaviours are representable here and
are exercised by the quirk tests.
"""

from __future__ import annotations

from ipaddress import IPv4Address
from typing import Any, Callable, Dict, List, Optional

from repro.packets.checksum import VALID, checksum_of_parts, internet_checksum

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17
PROTO_DCCP = 33
PROTO_SCTP = 132

PROTOCOL_NAMES = {
    PROTO_ICMP: "icmp",
    PROTO_TCP: "tcp",
    PROTO_UDP: "udp",
    PROTO_DCCP: "dccp",
    PROTO_SCTP: "sctp",
}

BASE_HEADER_BYTES = 20
DEFAULT_TTL = 64

IPOPT_END = 0
IPOPT_NOP = 1
IPOPT_RECORD_ROUTE = 7


class RecordRouteOption:
    """RFC 791 Record Route: routers append their address while slots last."""

    def __init__(self, slots: int = 4):
        if not 1 <= slots <= 9:
            raise ValueError(f"record route supports 1..9 slots, got {slots}")
        self.slots = slots
        self.addresses: List[IPv4Address] = []

    def record(self, address: IPv4Address) -> bool:
        """Append ``address`` if a slot is free; returns False when full."""
        if len(self.addresses) >= self.slots:
            return False
        self.addresses.append(address)
        return True

    def wire_size(self) -> int:
        return 3 + 4 * self.slots  # type, length, pointer, then slots

    def copy(self) -> "RecordRouteOption":
        option = RecordRouteOption(self.slots)
        option.addresses = list(self.addresses)
        return option

    def to_bytes(self) -> bytes:
        length = self.wire_size()
        pointer = 4 + 4 * len(self.addresses)
        body = b"".join(addr.packed for addr in self.addresses)
        body += b"\x00" * (4 * (self.slots - len(self.addresses)))
        return bytes([IPOPT_RECORD_ROUTE, length, pointer]) + body

    @classmethod
    def from_bytes(cls, data: bytes) -> "RecordRouteOption":
        if len(data) < 3 or data[0] != IPOPT_RECORD_ROUTE:
            raise ValueError("not a record-route option")
        length = data[1]
        pointer = data[2]
        slots = (length - 3) // 4
        option = cls(slots)
        recorded = (pointer - 4) // 4
        for i in range(recorded):
            option.addresses.append(IPv4Address(data[3 + 4 * i : 7 + 4 * i]))
        return option

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RecordRoute {len(self.addresses)}/{self.slots} {self.addresses}>"


#: Registry mapping protocol numbers to payload parsers, filled in lazily by
#: the transport modules so that :meth:`IPv4Packet.from_bytes` can dispatch.
PAYLOAD_PARSERS: Dict[int, Callable[[bytes], Any]] = {}


class IPv4Packet:
    """An IPv4 packet with a structured transport payload.

    ``header_checksum`` has three states: ``None`` means "to be computed on
    serialization"; an explicit int may be stale, and survives rewrites so
    NAT checksum bugs are observable, as they are on real wires;
    :data:`~repro.packets.checksum.VALID` is equal by definition to a full
    recompute of the current header, and is computed only when serialized.
    """

    __slots__ = (
        "src",
        "dst",
        "protocol",
        "payload",
        "ttl",
        "identification",
        "tos",
        "dont_fragment",
        "header_checksum",
        "record_route",
        "_wire",
    )

    def __init__(
        self,
        src: IPv4Address,
        dst: IPv4Address,
        protocol: int,
        payload: Any,
        ttl: int = DEFAULT_TTL,
        identification: int = 0,
        tos: int = 0,
        dont_fragment: bool = True,
        header_checksum: Optional[int] = None,
        record_route: Optional[RecordRouteOption] = None,
    ):
        self.src = src
        self.dst = dst
        self.protocol = protocol
        self.payload = payload
        self.ttl = ttl
        self.identification = identification
        self.tos = tos
        self.dont_fragment = dont_fragment
        self.header_checksum = header_checksum
        self.record_route = record_route
        self._wire: Optional[int] = None

    # -- sizes ------------------------------------------------------------

    def header_size(self) -> int:
        options = self.record_route.wire_size() if self.record_route else 0
        if options % 4:
            options += 4 - options % 4  # pad options to a 32-bit boundary
        return BASE_HEADER_BYTES + options

    def payload_size(self) -> int:
        if hasattr(self.payload, "wire_size"):
            return self.payload.wire_size()
        return len(self.payload)

    def wire_size(self) -> int:
        # Cached: in-flight packets are never resized (NAT and routers work
        # on fresh clones; rewrites touch addresses and TTL, not lengths).
        size = self._wire
        if size is None:
            size = self._wire = self.header_size() + self.payload_size()
        return size

    # -- checksums ---------------------------------------------------------

    def header_bytes(self, checksum: int) -> bytes:
        ihl = self.header_size() // 4
        total_length = self.wire_size()
        flags_frag = 0x4000 if self.dont_fragment else 0
        header = bytes(
            [
                (4 << 4) | ihl,
                self.tos,
            ]
        )
        header += total_length.to_bytes(2, "big")
        header += self.identification.to_bytes(2, "big")
        header += flags_frag.to_bytes(2, "big")
        header += bytes([self.ttl, self.protocol])
        header += checksum.to_bytes(2, "big")
        header += self.src.packed + self.dst.packed
        if self.record_route:
            options = self.record_route.to_bytes()
            if len(options) % 4:
                options += bytes([IPOPT_END]) * (4 - len(options) % 4)
            header += options
        return header

    def compute_header_checksum(self) -> int:
        if self.record_route is not None:
            return internet_checksum(self.header_bytes(0))
        src = self.src._ip  # ._ip avoids the IPv4Address.__int__ call
        dst = self.dst._ip
        words = (
            0x4500 + self.tos  # version 4, IHL 5 without options
            + self.wire_size()
            + self.identification
            + (0x4000 if self.dont_fragment else 0)
            + (self.ttl << 8) + self.protocol
            + (src >> 16) + (src & 0xFFFF) + (dst >> 16) + (dst & 0xFFFF)
        )
        return checksum_of_parts(words, b"")

    def fill_checksums(self) -> "IPv4Packet":
        """Compute the header checksum and (if supported) the payload's."""
        if hasattr(self.payload, "fill_checksum"):
            self.payload.fill_checksum(self.src, self.dst)
        self.header_checksum = self.compute_header_checksum()
        return self

    def header_checksum_ok(self) -> bool:
        checksum = self.header_checksum
        if checksum is VALID:
            return True
        if checksum is None:
            return False
        return checksum == self.compute_header_checksum()

    def materialize_checksums(self) -> None:
        """Turn each VALID checksum (header, transport) into its value over the current content.

        Call it before a field write that must leave a checksum stale, as a
        translator that does not fix it does: VALID would follow the write.
        """
        transport = self.payload
        if getattr(transport, "checksum", None) is VALID:
            transport.checksum = transport.compute_checksum(self.src, self.dst)
        if self.header_checksum is VALID:
            self.header_checksum = self.compute_header_checksum()

    # -- serialization ------------------------------------------------------

    def to_bytes(self) -> bytes:
        """The wire bytes.  VALID checksums are computed here and not stored,
        so serializing (a pcap sink, ICMP quoting) never changes the packet."""
        checksum = self.header_checksum
        if checksum is None or checksum is VALID:
            checksum = self.compute_header_checksum()
        payload = self.payload
        if not hasattr(payload, "to_bytes"):
            data = bytes(payload)
        elif getattr(payload, "checksum", None) is VALID:
            data = payload.to_bytes(self.src, self.dst)  # the pseudo-header's addresses
        else:
            data = payload.to_bytes()
        return self.header_bytes(checksum) + data

    @classmethod
    def from_bytes(cls, data: bytes) -> "IPv4Packet":
        if len(data) < BASE_HEADER_BYTES:
            raise ValueError(f"truncated IPv4 header: {len(data)} bytes")
        version = data[0] >> 4
        if version != 4:
            raise ValueError(f"not IPv4 (version={version})")
        ihl = (data[0] & 0x0F) * 4
        tos = data[1]
        total_length = int.from_bytes(data[2:4], "big")
        identification = int.from_bytes(data[4:6], "big")
        flags_frag = int.from_bytes(data[6:8], "big")
        ttl = data[8]
        protocol = data[9]
        checksum = int.from_bytes(data[10:12], "big")
        src = IPv4Address(data[12:16])
        dst = IPv4Address(data[16:20])
        record_route = None
        offset = BASE_HEADER_BYTES
        while offset < ihl:
            opt_type = data[offset]
            if opt_type == IPOPT_END:
                break
            if opt_type == IPOPT_NOP:
                offset += 1
                continue
            opt_len = data[offset + 1]
            if opt_type == IPOPT_RECORD_ROUTE:
                record_route = RecordRouteOption.from_bytes(data[offset : offset + opt_len])
            offset += opt_len
        raw_payload = data[ihl:total_length]
        parser = PAYLOAD_PARSERS.get(protocol)
        payload = parser(raw_payload) if parser else raw_payload
        return cls(
            src,
            dst,
            protocol,
            payload,
            ttl=ttl,
            identification=identification,
            tos=tos,
            dont_fragment=bool(flags_frag & 0x4000),
            header_checksum=checksum,
            record_route=record_route,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = PROTOCOL_NAMES.get(self.protocol, str(self.protocol))
        return f"<IPv4 {self.src}->{self.dst} {name} ttl={self.ttl} {self.payload!r}>"
