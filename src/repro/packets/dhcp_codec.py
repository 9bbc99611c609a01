"""DHCP wire format (RFC 2131/2132), as used by the testbed.

The test server leases a distinct RFC 1918 block to every gateway's WAN
interface, and each gateway's own DHCP server configures the test client's
per-VLAN interface — so both a server and a client speak this format.
Supported options are the ones those exchanges need: message type, subnet
mask, router, DNS servers, lease time, server identifier, requested address.

A :class:`DhcpMessage` keeps those options as typed values and rides in a
:class:`~repro.packets.udp.UdpDatagram` as it is: ``len()`` is its encoded
size, computed from the fields, so a frame carrying it takes exactly the
link time its bytes would.  Bytes exist only where a sink reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from ipaddress import IPv4Address
from typing import List, Optional

from repro.netsim.addresses import MacAddress

DHCP_DISCOVER = 1
DHCP_OFFER = 2
DHCP_REQUEST = 3
DHCP_DECLINE = 4
DHCP_ACK = 5
DHCP_NAK = 6
DHCP_RELEASE = 7

OPT_SUBNET_MASK = 1
OPT_ROUTER = 3
OPT_DNS_SERVERS = 6
OPT_REQUESTED_IP = 50
OPT_LEASE_TIME = 51
OPT_MESSAGE_TYPE = 53
OPT_SERVER_ID = 54
OPT_END = 255

BOOTREQUEST = 1
BOOTREPLY = 2

MAGIC_COOKIE = bytes([99, 130, 83, 99])

_FIXED_BYTES = 236
#: The fixed header, the magic cookie and the END option.
_BASE_BYTES = _FIXED_BYTES + len(MAGIC_COOKIE) + 1
#: An option carrying one address or one 32-bit number: code, length, 4 bytes.
_WORD_OPTION_BYTES = 6

MESSAGE_TYPE_NAMES = {
    DHCP_DISCOVER: "DISCOVER",
    DHCP_OFFER: "OFFER",
    DHCP_REQUEST: "REQUEST",
    DHCP_DECLINE: "DECLINE",
    DHCP_ACK: "ACK",
    DHCP_NAK: "NAK",
    DHCP_RELEASE: "RELEASE",
}

_ZERO_IP = IPv4Address("0.0.0.0")


@dataclass
class DhcpMessage:
    """A BOOTP/DHCP message; an option is present when its field is set.

    ``dns_servers`` is present when non-empty; ``router`` encodes as a
    one-address router list.
    """

    op: int
    xid: int
    client_mac: MacAddress
    ciaddr: IPv4Address = _ZERO_IP
    yiaddr: IPv4Address = _ZERO_IP
    siaddr: IPv4Address = _ZERO_IP
    giaddr: IPv4Address = _ZERO_IP
    message_type: Optional[int] = None
    subnet_mask: Optional[IPv4Address] = None
    router: Optional[IPv4Address] = None
    dns_servers: List[IPv4Address] = field(default_factory=list)
    lease_time: Optional[int] = None
    server_id: Optional[IPv4Address] = None
    requested_ip: Optional[IPv4Address] = None

    # -- constructors -----------------------------------------------------------

    @classmethod
    def discover(cls, xid: int, client_mac: MacAddress) -> "DhcpMessage":
        return cls(BOOTREQUEST, xid, client_mac, message_type=DHCP_DISCOVER)

    @classmethod
    def request(cls, xid: int, client_mac: MacAddress, requested: IPv4Address, server_id: IPv4Address) -> "DhcpMessage":
        return cls(
            BOOTREQUEST, xid, client_mac, message_type=DHCP_REQUEST, requested_ip=requested, server_id=server_id
        )

    @classmethod
    def reply(
        cls,
        message_type: int,
        xid: int,
        client_mac: MacAddress,
        yiaddr: IPv4Address,
        server_id: IPv4Address,
        subnet_mask: IPv4Address,
        router: Optional[IPv4Address],
        dns_servers: List[IPv4Address],
        lease_time: int,
    ) -> "DhcpMessage":
        return cls(
            BOOTREPLY, xid, client_mac, yiaddr=yiaddr, siaddr=server_id, message_type=message_type,
            subnet_mask=subnet_mask, router=router, dns_servers=list(dns_servers), lease_time=lease_time,
            server_id=server_id,
        )

    # -- serialization ------------------------------------------------------------

    def __len__(self) -> int:
        """The encoded size, ``len(self.to_bytes())``, without encoding."""
        size = _BASE_BYTES
        if self.message_type is not None:
            size += 3
        if self.subnet_mask is not None:
            size += _WORD_OPTION_BYTES
        if self.router is not None:
            size += _WORD_OPTION_BYTES
        if self.dns_servers:
            size += 2 + 4 * len(self.dns_servers)
        if self.requested_ip is not None:
            size += _WORD_OPTION_BYTES
        if self.lease_time is not None:
            size += _WORD_OPTION_BYTES
        if self.server_id is not None:
            size += _WORD_OPTION_BYTES
        return size

    def to_bytes(self) -> bytes:
        """The wire bytes; options in ascending code order, then END."""
        out = bytearray(_FIXED_BYTES)
        out[0] = self.op
        out[1] = 1  # htype: Ethernet
        out[2] = 6  # hlen
        out[4:8] = self.xid.to_bytes(4, "big")
        out[12:16] = self.ciaddr.packed
        out[16:20] = self.yiaddr.packed
        out[20:24] = self.siaddr.packed
        out[24:28] = self.giaddr.packed
        out[28:34] = self.client_mac.to_bytes()
        out += MAGIC_COOKIE
        if self.subnet_mask is not None:
            out += bytes([OPT_SUBNET_MASK, 4]) + self.subnet_mask.packed
        if self.router is not None:
            out += bytes([OPT_ROUTER, 4]) + self.router.packed
        if self.dns_servers:
            out += bytes([OPT_DNS_SERVERS, 4 * len(self.dns_servers)])
            out += b"".join(address.packed for address in self.dns_servers)
        if self.requested_ip is not None:
            out += bytes([OPT_REQUESTED_IP, 4]) + self.requested_ip.packed
        if self.lease_time is not None:
            out += bytes([OPT_LEASE_TIME, 4]) + self.lease_time.to_bytes(4, "big")
        if self.message_type is not None:
            out += bytes([OPT_MESSAGE_TYPE, 1, self.message_type])
        if self.server_id is not None:
            out += bytes([OPT_SERVER_ID, 4]) + self.server_id.packed
        out.append(OPT_END)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "DhcpMessage":
        """Decode the supported options; any other option is skipped."""
        if len(data) < _FIXED_BYTES + 4:
            raise ValueError(f"truncated DHCP message: {len(data)} bytes")
        if data[_FIXED_BYTES : _FIXED_BYTES + 4] != MAGIC_COOKIE:
            raise ValueError("missing DHCP magic cookie")
        message = cls(
            op=data[0],
            xid=int.from_bytes(data[4:8], "big"),
            client_mac=MacAddress.from_bytes(data[28:34]),
            ciaddr=IPv4Address(data[12:16]),
            yiaddr=IPv4Address(data[16:20]),
            siaddr=IPv4Address(data[20:24]),
            giaddr=IPv4Address(data[24:28]),
        )
        offset = _FIXED_BYTES + 4
        while offset < len(data):
            code = data[offset]
            if code == OPT_END:
                break
            if code == 0:  # pad
                offset += 1
                continue
            length = data[offset + 1]
            raw = data[offset + 2 : offset + 2 + length]
            offset += 2 + length
            if not raw:
                continue
            if code == OPT_MESSAGE_TYPE:
                message.message_type = raw[0]
            elif code == OPT_SUBNET_MASK:
                message.subnet_mask = IPv4Address(raw)
            elif code == OPT_ROUTER:
                message.router = IPv4Address(raw[:4])
            elif code == OPT_DNS_SERVERS:
                message.dns_servers = [IPv4Address(raw[i : i + 4]) for i in range(0, len(raw), 4)]
            elif code == OPT_LEASE_TIME:
                message.lease_time = int.from_bytes(raw, "big")
            elif code == OPT_SERVER_ID:
                message.server_id = IPv4Address(raw)
            elif code == OPT_REQUESTED_IP:
                message.requested_ip = IPv4Address(raw)
        return message

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = MESSAGE_TYPE_NAMES.get(self.message_type or 0, "?")
        return f"<DHCP {name} xid={self.xid:#x} mac={self.client_mac} yiaddr={self.yiaddr}>"
