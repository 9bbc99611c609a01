"""TCP segments (RFC 793), with the option kinds the study discusses.

The paper runs its TCP tests with SACK, timestamps and window scaling
*disabled* (§3.2.2), so the default segments here carry only an MSS option on
SYNs.  The option encoders exist because middlebox handling of TCP options
(e.g. sequence-number shifting that forgets SACK blocks, per Medina et al.)
is part of the related work this library lets users probe.
"""

from __future__ import annotations

from ipaddress import IPv4Address
from typing import List, Optional, Tuple

from repro.packets.checksum import VALID, checksum_of_parts, internet_checksum, pseudo_header
from repro.packets.ipv4 import PAYLOAD_PARSERS, PROTO_TCP

TCP_FIN = 0x01
TCP_SYN = 0x02
TCP_RST = 0x04
TCP_PSH = 0x08
TCP_ACK = 0x10

BASE_HEADER_BYTES = 20

TCPOPT_END = 0
TCPOPT_NOP = 1
TCPOPT_MSS = 2
TCPOPT_WSCALE = 3
TCPOPT_SACK_PERMITTED = 4
TCPOPT_SACK = 5
TCPOPT_TIMESTAMP = 8

_FLAG_NAMES = [
    (TCP_SYN, "S"),
    (TCP_ACK, "A"),
    (TCP_FIN, "F"),
    (TCP_RST, "R"),
    (TCP_PSH, "P"),
]


class TcpOption:
    """One TCP option TLV."""

    __slots__ = ("kind", "data")

    def __init__(self, kind: int, data: bytes = b""):
        self.kind = kind
        self.data = data

    def wire_size(self) -> int:
        if self.kind in (TCPOPT_END, TCPOPT_NOP):
            return 1
        return 2 + len(self.data)

    def to_bytes(self) -> bytes:
        if self.kind in (TCPOPT_END, TCPOPT_NOP):
            return bytes([self.kind])
        return bytes([self.kind, 2 + len(self.data)]) + self.data

    @classmethod
    def mss(cls, value: int) -> "TcpOption":
        return cls(TCPOPT_MSS, value.to_bytes(2, "big"))

    @classmethod
    def sack_permitted(cls) -> "TcpOption":
        return cls(TCPOPT_SACK_PERMITTED)

    @classmethod
    def sack(cls, blocks: List[Tuple[int, int]]) -> "TcpOption":
        data = b"".join(left.to_bytes(4, "big") + right.to_bytes(4, "big") for left, right in blocks)
        return cls(TCPOPT_SACK, data)

    @classmethod
    def timestamp(cls, value: int, echo: int) -> "TcpOption":
        return cls(TCPOPT_TIMESTAMP, value.to_bytes(4, "big") + echo.to_bytes(4, "big"))

    @classmethod
    def window_scale(cls, shift: int) -> "TcpOption":
        return cls(TCPOPT_WSCALE, bytes([shift]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TcpOption kind={self.kind} len={len(self.data)}>"


class TcpSegment:
    """A TCP segment.  Its checksum is ``None``, an explicit (possibly stale)
    int, or :data:`~repro.packets.checksum.VALID`."""

    __slots__ = (
        "src_port",
        "dst_port",
        "seq",
        "ack",
        "flags",
        "window",
        "payload",
        "options",
        "checksum",
        "urgent",
        "_wire",
    )

    def __init__(
        self,
        src_port: int,
        dst_port: int,
        seq: int = 0,
        ack: int = 0,
        flags: int = 0,
        window: int = 65535,
        payload: bytes = b"",
        options: Optional[List[TcpOption]] = None,
        checksum: Optional[int] = None,
        urgent: int = 0,
    ):
        for port in (src_port, dst_port):
            if not 0 <= port <= 0xFFFF:
                raise ValueError(f"port out of range: {port}")
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq & 0xFFFFFFFF
        self.ack = ack & 0xFFFFFFFF
        self.flags = flags
        self.window = window
        self.payload = payload
        self.options = options or []
        self.checksum = checksum
        self.urgent = urgent
        self._wire: Optional[int] = None

    # -- flag helpers -------------------------------------------------------

    @property
    def syn(self) -> bool:
        return bool(self.flags & TCP_SYN)

    @property
    def ack_flag(self) -> bool:
        return bool(self.flags & TCP_ACK)

    @property
    def fin(self) -> bool:
        return bool(self.flags & TCP_FIN)

    @property
    def rst(self) -> bool:
        return bool(self.flags & TCP_RST)

    def flag_string(self) -> str:
        return "".join(name for bit, name in _FLAG_NAMES if self.flags & bit)

    # -- sizes ----------------------------------------------------------------

    def options_size(self) -> int:
        if not self.options:  # every data/ACK segment; only SYNs carry options
            return 0
        size = sum(opt.wire_size() for opt in self.options)
        if size % 4:
            size += 4 - size % 4
        return size

    def header_size(self) -> int:
        return BASE_HEADER_BYTES + self.options_size()

    def wire_size(self) -> int:
        # Cached: segments are structurally immutable once on the wire (the
        # one in-place mutation, the MSS-stripping quirk, resets the cache).
        size = self._wire
        if size is None:
            size = self._wire = self.header_size() + len(self.payload)
        return size

    def seq_space(self) -> int:
        """Sequence numbers this segment consumes (payload + SYN/FIN)."""
        return len(self.payload) + (1 if self.syn else 0) + (1 if self.fin else 0)

    # -- checksums ---------------------------------------------------------------

    def _header(self, checksum: int) -> bytes:
        data_offset = self.header_size() // 4
        header = self.src_port.to_bytes(2, "big") + self.dst_port.to_bytes(2, "big")
        header += self.seq.to_bytes(4, "big") + self.ack.to_bytes(4, "big")
        header += bytes([(data_offset << 4), self.flags & 0x3F])
        header += self.window.to_bytes(2, "big")
        header += checksum.to_bytes(2, "big")
        header += self.urgent.to_bytes(2, "big")
        opts = b"".join(opt.to_bytes() for opt in self.options)
        if len(opts) % 4:
            opts += bytes([TCPOPT_END]) * (4 - len(opts) % 4)
        return header + opts

    def compute_checksum(self, src_ip: IPv4Address, dst_ip: IPv4Address) -> int:
        if self.options:  # SYNs only; data/ACK segments take the int path
            pseudo = pseudo_header(src_ip, dst_ip, PROTO_TCP, self.wire_size())
            return internet_checksum(pseudo + self._header(0) + self.payload)
        payload = self.payload
        src = src_ip._ip  # IPv4Address.__int__ is a Python call; ._ip is the raw int
        dst = dst_ip._ip
        words = (
            (src >> 16) + (src & 0xFFFF) + (dst >> 16) + (dst & 0xFFFF)
            + PROTO_TCP + BASE_HEADER_BYTES + len(payload)  # pseudo length word
            + self.src_port + self.dst_port
            + (self.seq >> 16) + (self.seq & 0xFFFF)
            + (self.ack >> 16) + (self.ack & 0xFFFF)
            + 0x5000 + (self.flags & 0x3F)  # data offset 5, reserved zero
            + self.window + self.urgent
        )
        return checksum_of_parts(words, payload)

    def fill_checksum(self, src_ip: IPv4Address, dst_ip: IPv4Address) -> None:
        self.checksum = self.compute_checksum(src_ip, dst_ip)

    def checksum_ok(self, src_ip: IPv4Address, dst_ip: IPv4Address) -> bool:
        checksum = self.checksum
        if checksum is VALID:
            return True
        if checksum is None:
            return False
        return checksum == self.compute_checksum(src_ip, dst_ip)

    # -- serialization ----------------------------------------------------------

    def to_bytes(self, src_ip: Optional[IPv4Address] = None, dst_ip: Optional[IPv4Address] = None) -> bytes:
        """The wire bytes; a VALID checksum is computed from the pseudo-header's addresses."""
        checksum = self.checksum
        if checksum is VALID:
            if src_ip is None or dst_ip is None:
                raise ValueError("a VALID checksum covers the pseudo-header: serialize with its addresses")
            checksum = self.compute_checksum(src_ip, dst_ip)
        return self._header(checksum or 0) + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "TcpSegment":
        if len(data) < BASE_HEADER_BYTES:
            raise ValueError(f"truncated TCP segment: {len(data)} bytes")
        src_port = int.from_bytes(data[0:2], "big")
        dst_port = int.from_bytes(data[2:4], "big")
        seq = int.from_bytes(data[4:8], "big")
        ack = int.from_bytes(data[8:12], "big")
        data_offset = (data[12] >> 4) * 4
        flags = data[13] & 0x3F
        window = int.from_bytes(data[14:16], "big")
        checksum = int.from_bytes(data[16:18], "big")
        urgent = int.from_bytes(data[18:20], "big")
        options: List[TcpOption] = []
        offset = BASE_HEADER_BYTES
        while offset < data_offset:
            kind = data[offset]
            if kind == TCPOPT_END:
                break
            if kind == TCPOPT_NOP:
                options.append(TcpOption(TCPOPT_NOP))
                offset += 1
                continue
            length = data[offset + 1]
            options.append(TcpOption(kind, data[offset + 2 : offset + length]))
            offset += length
        return cls(
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window,
            data[data_offset:],
            options,
            checksum,
            urgent,
        )

    def copy(self) -> "TcpSegment":
        return TcpSegment(
            self.src_port,
            self.dst_port,
            self.seq,
            self.ack,
            self.flags,
            self.window,
            self.payload,
            list(self.options),
            self.checksum,
            self.urgent,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TCP {self.src_port}->{self.dst_port} [{self.flag_string()}] "
            f"seq={self.seq} ack={self.ack} len={len(self.payload)}>"
        )


PAYLOAD_PARSERS[PROTO_TCP] = TcpSegment.from_bytes
