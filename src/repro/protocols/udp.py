"""UDP sockets.

Callback-driven (the simulator has no blocking I/O): a socket delivers
datagram payloads to ``on_receive`` and transport-related ICMP errors to
``on_icmp_error``.  A payload is what the sender put in the datagram: bytes,
or a structured message such as a
:class:`~repro.packets.dhcp_codec.DhcpMessage`.  Sockets may be pinned to
one interface — the test client binds one socket per home-gateway VLAN.
"""

from __future__ import annotations

from ipaddress import IPv4Address
from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING

from repro.netsim.node import Interface
from repro.packets.checksum import VALID
from repro.packets.icmp import IcmpMessage
from repro.packets.ipv4 import PROTO_UDP, IPv4Packet
from repro.packets.udp import UdpDatagram
from repro.protocols.ports import EphemeralPortAllocator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.protocols.stack import Host

ReceiveCallback = Callable[[Any, IPv4Address, int], None]
IcmpErrorCallback = Callable[[IcmpMessage, IPv4Packet], None]


class UdpSocket:
    """One bound UDP socket."""

    def __init__(self, manager: "UdpManager", port: int, iface_index: Optional[int]):
        self._manager = manager
        self.port = port
        self.iface_index = iface_index
        self.on_receive: Optional[ReceiveCallback] = None
        self.on_icmp_error: Optional[IcmpErrorCallback] = None
        #: Accept datagrams before the interface has an address (DHCP client).
        self.accept_unconfigured = False
        self.closed = False
        self.datagrams_received = 0

    @property
    def host(self) -> "Host":
        return self._manager.host

    def send_to(
        self,
        payload: bytes,
        dst_ip: IPv4Address,
        dst_port: int,
        ttl: int = 64,
        src_ip: Optional[IPv4Address] = None,
        record_route: bool = False,
    ) -> bool:
        """Send one datagram; returns False when unroutable."""
        if self.closed:
            raise RuntimeError("socket is closed")
        host = self._manager.host
        if src_ip is None:
            if self.iface_index is not None:
                src_ip = host.interfaces[self.iface_index].ip
            else:
                src_ip = host.source_ip_for(dst_ip)
        if src_ip is None:
            return False
        datagram = UdpDatagram(self.port, dst_port, payload)
        from repro.packets.ipv4 import RecordRouteOption

        packet = IPv4Packet(
            src_ip,
            dst_ip,
            PROTO_UDP,
            datagram,
            ttl=ttl,
            record_route=RecordRouteOption() if record_route else None,
        )
        return host.send_ip_routed(packet, self.iface_index)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._manager.unbind(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        iface = "any" if self.iface_index is None else f"eth{self.iface_index}"
        return f"<UdpSocket {self._manager.host.name}:{self.port} on {iface}>"


class UdpManager:
    """Per-host socket table and demultiplexer."""

    def __init__(self, host: "Host"):
        self.host = host
        self._sockets: Dict[int, List[UdpSocket]] = {}
        self._ports = EphemeralPortAllocator()
        #: Datagrams that arrived for a port nobody owns.
        self.unmatched = 0

    def bind(self, port: int = 0, iface_index: Optional[int] = None) -> UdpSocket:
        """Bind a socket; ``port=0`` picks an ephemeral port."""
        if port == 0:
            port = self._ports.allocate(lambda p: not self._conflicts(p, iface_index))
        elif self._conflicts(port, iface_index):
            raise OSError(f"UDP port {port} already bound on {self.host.name}")
        socket = UdpSocket(self, port, iface_index)
        self._sockets.setdefault(port, []).append(socket)
        return socket

    def _conflicts(self, port: int, iface_index: Optional[int]) -> bool:
        for existing in self._sockets.get(port, []):
            if existing.iface_index is None or iface_index is None:
                return True
            if existing.iface_index == iface_index:
                return True
        return False

    def unbind(self, socket: UdpSocket) -> None:
        listeners = self._sockets.get(socket.port, [])
        if socket in listeners:
            listeners.remove(socket)
        if not listeners:
            self._sockets.pop(socket.port, None)

    def socket_for(self, port: int, iface_index: Optional[int] = None) -> Optional[UdpSocket]:
        """First socket bound to ``port`` (matching the interface if given)."""
        for socket in self._sockets.get(port, []):
            if iface_index is None or socket.iface_index in (None, iface_index):
                return socket
        return None

    def has_port(self, port: int) -> bool:
        """Is any socket bound to ``port``?  (Used by the gateway demux.)"""
        return bool(self._sockets.get(port))

    def accepts_unconfigured(self, iface: Interface) -> bool:
        """Does any socket want traffic on this unconfigured interface?"""
        for listeners in self._sockets.values():
            for socket in listeners:
                if socket.accept_unconfigured and socket.iface_index in (None, iface.index):
                    return True
        return False

    def _match(self, port: int, iface: Interface) -> Optional[UdpSocket]:
        sockets = self._sockets.get(port)
        if sockets is None:
            return None
        if len(sockets) == 1:  # the common case: one socket owns the port
            socket = sockets[0]
            if socket.iface_index is None or socket.iface_index == iface.index:
                return socket
            return None
        best = None
        for socket in sockets:
            if socket.iface_index is None:
                best = best or socket
            elif socket.iface_index == iface.index:
                return socket
        return best

    def handle_packet(self, packet: IPv4Packet, iface: Interface) -> None:
        datagram = packet.payload
        if not isinstance(datagram, UdpDatagram):
            return
        # RFC 768: a zero checksum means the transmitter generated none, so
        # there is nothing to verify (NATs forward it untouched, per RFC 3022);
        # a VALID one is accepted without computing anything.
        checksum = datagram.checksum
        if checksum is not VALID and checksum is not None and checksum != 0 and self.host.validate_checksums:
            if not datagram.checksum_ok(packet.src, packet.dst):
                self.host.checksum_drops += 1
                return
        socket = self._match(datagram.dst_port, iface)
        if socket is None:
            self.unmatched += 1
            self.host.icmp.port_unreachable(packet, iface)
            return
        socket.datagrams_received += 1
        if socket.on_receive is not None:
            socket.on_receive(datagram.payload, packet.src, datagram.src_port)

    def handle_icmp_error(self, icmp: IcmpMessage, embedded: IPv4Packet, iface: Interface) -> None:
        """Deliver an ICMP error to the socket that owns the embedded flow."""
        datagram = embedded.payload
        if not isinstance(datagram, UdpDatagram):
            return
        socket = self._match(datagram.src_port, iface)
        if socket is not None and socket.on_icmp_error is not None:
            socket.on_icmp_error(icmp, embedded)
