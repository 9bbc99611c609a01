"""DHCP server and client services.

The testbed uses DHCP in both directions (Figure 1): the test server's
``dhcpd`` leases a distinct private block to each gateway's WAN port, and
each gateway's built-in DHCP server configures the test client's per-VLAN
interface.  The client mirrors the paper's modification: it installs
*interface-specific* configuration only (address, netmask, gateway, DNS) and
never a global default route.

Both services send and receive :class:`~repro.packets.dhcp_codec.DhcpMessage`
objects: a datagram carries the message itself, and its bytes are built only
where a sink reads them (a pcap, an ICMP quote).
"""

from __future__ import annotations

from dataclasses import dataclass
from ipaddress import IPv4Address, IPv4Network
from itertools import chain
from typing import Callable, Dict, Iterator, List, Optional, TYPE_CHECKING

from repro.netsim.addresses import MacAddress
from repro.packets.dhcp_codec import (
    DHCP_ACK,
    DHCP_DISCOVER,
    DHCP_NAK,
    DHCP_OFFER,
    DHCP_REQUEST,
    DhcpMessage,
)
from repro.packets.ipv4 import PROTO_UDP, IPv4Packet
from repro.packets.udp import UdpDatagram
from repro.protocols.stack import LIMITED_BROADCAST, UNSPECIFIED

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.protocols.stack import Host

DHCP_SERVER_PORT = 67
DHCP_CLIENT_PORT = 68
DEFAULT_LEASE_SECONDS = 86400
#: The mask a client assumes when an ACK carries none.
DEFAULT_MASK = IPv4Address("255.255.255.0")


@dataclass
class Lease:
    """One address lease."""

    mac: MacAddress
    address: IPv4Address
    expires_at: float


class DhcpServerService:
    """A DHCP server bound to one interface.

    The pool is every host address of ``network`` but the server's own:
    leases start at ``first_offset`` and, once the top of the network is
    used, continue below it.
    """

    def __init__(
        self,
        host: "Host",
        iface_index: int,
        network: IPv4Network,
        server_ip: IPv4Address,
        router: Optional[IPv4Address] = None,
        dns_servers: Optional[List[IPv4Address]] = None,
        lease_seconds: int = DEFAULT_LEASE_SECONDS,
        first_offset: int = 100,
    ):
        self.host = host
        self.iface_index = iface_index
        self.network = network
        self.server_ip = server_ip
        self.router = router
        self.dns_servers = dns_servers or []
        self.lease_seconds = lease_seconds
        self.leases: Dict[MacAddress, Lease] = {}
        self._free = self._pool(first_offset)
        self._socket = host.udp.bind(DHCP_SERVER_PORT, iface_index)
        self._socket.accept_unconfigured = False
        self._socket.on_receive = self._on_datagram

    def _pool(self, first_offset: int) -> Iterator[IPv4Address]:
        """Free addresses in lease order; the network, broadcast and server addresses are never leased."""
        base = self.network.network_address._ip
        top = self.network.num_addresses - 1  # the broadcast address's offset
        for offset in chain(range(first_offset, top), range(1, min(first_offset, top))):
            if base + offset != self.server_ip._ip:
                yield IPv4Address(base + offset)

    def _allocate(self, mac: MacAddress) -> IPv4Address:
        lease = self.leases.get(mac)
        if lease is not None:
            lease.expires_at = self.host.sim.now + self.lease_seconds
            return lease.address
        address = next(self._free, None)
        if address is None:
            raise RuntimeError(f"DHCP pool exhausted on {self.network}")
        self.leases[mac] = Lease(mac, address, self.host.sim.now + self.lease_seconds)
        return address

    def _on_datagram(self, message: DhcpMessage, src_ip: IPv4Address, src_port: int) -> None:
        if message.__class__ is not DhcpMessage:
            return  # not a DHCP message: dropped, as a malformed one would be
        if message.message_type == DHCP_DISCOVER:
            self._reply(message, DHCP_OFFER, self._allocate(message.client_mac))
        elif message.message_type == DHCP_REQUEST:
            requested = message.requested_ip or message.ciaddr
            lease = self.leases.get(message.client_mac)
            if lease is not None and requested == lease.address:
                self._reply(message, DHCP_ACK, lease.address)
            elif requested in self.network:
                self.leases[message.client_mac] = Lease(
                    message.client_mac, requested, self.host.sim.now + self.lease_seconds
                )
                self._reply(message, DHCP_ACK, requested)
            else:
                self._reply(message, DHCP_NAK, UNSPECIFIED)

    def _reply(self, request: DhcpMessage, message_type: int, yiaddr: IPv4Address) -> None:
        reply = DhcpMessage.reply(
            message_type,
            request.xid,
            request.client_mac,
            yiaddr,
            self.server_ip,
            self.network.netmask,
            self.router,
            self.dns_servers,
            self.lease_seconds,
        )
        # Reply unicast to the client's MAC; IP-level destination is the
        # offered address (the client stack accepts it while unconfigured).
        datagram = UdpDatagram(DHCP_SERVER_PORT, DHCP_CLIENT_PORT, reply)
        dst_ip = yiaddr if yiaddr != UNSPECIFIED else LIMITED_BROADCAST
        packet = IPv4Packet(self.server_ip, dst_ip, PROTO_UDP, datagram)
        self.host.send_ip_on_iface(packet, self.iface_index, dst_mac=request.client_mac)


class DhcpClientService:
    """A DHCP client bound to one interface.

    Runs DISCOVER/OFFER/REQUEST/ACK and then configures *only* the owning
    interface; ``on_configured`` fires when the lease is applied.
    """

    def __init__(
        self,
        host: "Host",
        iface_index: int,
        on_configured: Optional[Callable[["DhcpClientService"], None]] = None,
        retry_interval: float = 2.0,
        max_retries: int = 5,
    ):
        self.host = host
        self.iface_index = iface_index
        self.on_configured = on_configured
        self.retry_interval = retry_interval
        self.max_retries = max_retries
        self.configured = False
        self.offer: Optional[DhcpMessage] = None
        self.lease_time: Optional[int] = None
        self._xid = host.sim.rng.randrange(1, 1 << 32)
        self._retries = 0
        self._timer = host.sim.timer(self._on_timeout)
        self._socket = host.udp.bind(DHCP_CLIENT_PORT, iface_index)
        self._socket.accept_unconfigured = True
        self._socket.on_receive = self._on_datagram

    def start(self) -> None:
        self._send_discover()

    def stop(self) -> None:
        """Release the client socket and stop retrying."""
        self._timer.cancel()
        self._socket.close()

    def _broadcast(self, message: DhcpMessage) -> None:
        datagram = UdpDatagram(DHCP_CLIENT_PORT, DHCP_SERVER_PORT, message)
        packet = IPv4Packet(UNSPECIFIED, LIMITED_BROADCAST, PROTO_UDP, datagram)
        self.host.send_ip_on_iface(packet, self.iface_index)

    def _send_discover(self) -> None:
        iface = self.host.interfaces[self.iface_index]
        self._broadcast(DhcpMessage.discover(self._xid, iface.mac))
        self._timer.restart(self.retry_interval)

    def _on_timeout(self) -> None:
        if self.configured:
            return
        self._retries += 1
        if self._retries > self.max_retries:
            return  # give up silently; caller can inspect .configured
        if self.offer is None:
            self._send_discover()
        else:
            self._send_request(self.offer)

    def _send_request(self, offer: DhcpMessage) -> None:
        iface = self.host.interfaces[self.iface_index]
        server_id = offer.server_id or offer.siaddr
        self._broadcast(DhcpMessage.request(self._xid, iface.mac, offer.yiaddr, server_id))
        self._timer.restart(self.retry_interval)

    def _on_datagram(self, message: DhcpMessage, src_ip: IPv4Address, src_port: int) -> None:
        if message.__class__ is not DhcpMessage or message.xid != self._xid:
            return
        if message.message_type == DHCP_OFFER and self.offer is None:
            self.offer = message
            self._send_request(message)
        elif message.message_type == DHCP_ACK and not self.configured:
            self._apply(message)
        elif message.message_type == DHCP_NAK:
            self.offer = None
            self.configured = False
            self._send_discover()

    def _apply(self, ack: DhcpMessage) -> None:
        iface = self.host.interfaces[self.iface_index]
        mask = (ack.subnet_mask or DEFAULT_MASK)._ip
        # From ints: a dotted-quad round trip would parse two strings.  The
        # mask is contiguous (every server here takes it from a network).
        prefixlen = 32 - (mask ^ 0xFFFFFFFF).bit_length()
        network = IPv4Network((ack.yiaddr._ip & mask, prefixlen))
        iface.configure(ack.yiaddr, network, gateway_ip=ack.router)
        self.configured = True
        self.lease_time = ack.lease_time
        self.dns_servers = ack.dns_servers
        self._timer.cancel()
        if self.on_configured is not None:
            self.on_configured(self)
