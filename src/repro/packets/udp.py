"""UDP datagrams (RFC 768)."""

from __future__ import annotations

from ipaddress import IPv4Address
from typing import Optional

from repro.packets.checksum import VALID, checksum_of_parts
from repro.packets.ipv4 import PAYLOAD_PARSERS, PROTO_UDP

HEADER_BYTES = 8


class UdpDatagram:
    """A UDP datagram.  The checksum covers the IPv4 pseudo-header; it is
    ``None``, an explicit (possibly stale, or RFC 768 zero) int, or
    :data:`~repro.packets.checksum.VALID`.

    The payload is bytes or a structured message with ``len()`` and
    ``to_bytes()`` (a :class:`~repro.packets.dhcp_codec.DhcpMessage`):
    its bytes are built only where a sink reads them.
    """

    __slots__ = ("src_port", "dst_port", "payload", "checksum")

    def __init__(self, src_port: int, dst_port: int, payload: bytes = b"", checksum: Optional[int] = None):
        for port in (src_port, dst_port):
            if not 0 <= port <= 0xFFFF:
                raise ValueError(f"port out of range: {port}")
        self.src_port = src_port
        self.dst_port = dst_port
        self.payload = payload
        self.checksum = checksum

    def wire_size(self) -> int:
        return HEADER_BYTES + len(self.payload)

    def _header(self, checksum: int) -> bytes:
        return (
            self.src_port.to_bytes(2, "big")
            + self.dst_port.to_bytes(2, "big")
            + self.wire_size().to_bytes(2, "big")
            + checksum.to_bytes(2, "big")
        )

    def payload_bytes(self) -> bytes:
        """The payload's wire bytes, encoding a structured message here."""
        payload = self.payload
        return payload if isinstance(payload, (bytes, bytearray)) else payload.to_bytes()

    def compute_checksum(self, src_ip: IPv4Address, dst_ip: IPv4Address) -> int:
        payload = self.payload_bytes()
        length = HEADER_BYTES + len(payload)
        src = src_ip._ip  # ._ip avoids the IPv4Address.__int__ call
        dst = dst_ip._ip
        words = (
            (src >> 16) + (src & 0xFFFF) + (dst >> 16) + (dst & 0xFFFF)
            + PROTO_UDP + length  # pseudo-header; length appears again below
            + self.src_port + self.dst_port + length
        )
        checksum = checksum_of_parts(words, payload)
        # RFC 768: an all-zero computed checksum is transmitted as 0xFFFF.
        return checksum or 0xFFFF

    def fill_checksum(self, src_ip: IPv4Address, dst_ip: IPv4Address) -> None:
        self.checksum = self.compute_checksum(src_ip, dst_ip)

    def checksum_ok(self, src_ip: IPv4Address, dst_ip: IPv4Address) -> bool:
        checksum = self.checksum
        if checksum is VALID:
            return True
        if checksum is None:
            return False
        return checksum == self.compute_checksum(src_ip, dst_ip)

    def to_bytes(self, src_ip: Optional[IPv4Address] = None, dst_ip: Optional[IPv4Address] = None) -> bytes:
        """The wire bytes; a VALID checksum is computed from the pseudo-header's addresses."""
        checksum = self.checksum
        if checksum is VALID:
            if src_ip is None or dst_ip is None:
                raise ValueError("a VALID checksum covers the pseudo-header: serialize with its addresses")
            checksum = self.compute_checksum(src_ip, dst_ip)
        return self._header(checksum or 0) + self.payload_bytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "UdpDatagram":
        if len(data) < HEADER_BYTES:
            raise ValueError(f"truncated UDP datagram: {len(data)} bytes")
        src_port = int.from_bytes(data[0:2], "big")
        dst_port = int.from_bytes(data[2:4], "big")
        length = int.from_bytes(data[4:6], "big")
        checksum = int.from_bytes(data[6:8], "big")
        return cls(src_port, dst_port, data[HEADER_BYTES:length], checksum)

    def copy(self) -> "UdpDatagram":
        return UdpDatagram(self.src_port, self.dst_port, self.payload, self.checksum)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<UDP {self.src_port}->{self.dst_port} len={len(self.payload)}>"


PAYLOAD_PARSERS[PROTO_UDP] = UdpDatagram.from_bytes
