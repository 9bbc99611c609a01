"""The host IP stack: interfaces, routing, neighbor resolution, demux.

Hosts are endpoints, not routers — a packet that arrives for an address the
host does not own is dropped, exactly like a Linux box with forwarding off.

Neighbor resolution is deliberately ARP-free: when the MAC for a next hop is
unknown the frame goes out to the Ethernet broadcast address (the VLAN switch
floods it within the VLAN), and hosts learn ``ip -> mac`` mappings from every
frame they receive.  After the first exchange all traffic is unicast.  This
models a converged LAN without simulating ARP round-trips, which are
irrelevant to every measurement in the study.
"""

from __future__ import annotations

from ipaddress import IPv4Address, IPv4Network
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.netsim.addresses import BROADCAST_MAC, MacAddress
from repro.netsim.node import Interface, Node, Route
from repro.netsim.sim import Simulation
from repro.packets.checksum import VALID, incremental_update_words
from repro.packets.ethernet import ETHERTYPE_IPV4, EthernetFrame
from repro.packets.ipv4 import (
    PROTO_DCCP,
    PROTO_ICMP,
    PROTO_SCTP,
    PROTO_TCP,
    PROTO_UDP,
    IPv4Packet,
)
from repro.packets.tcp import TcpSegment
from repro.packets.udp import UdpDatagram

LIMITED_BROADCAST = IPv4Address("255.255.255.255")
UNSPECIFIED = IPv4Address("0.0.0.0")
DEFAULT_NETWORK = IPv4Network("0.0.0.0/0")


class Host(Node):
    """A multi-homed IP endpoint with UDP/TCP/ICMP/SCTP/DCCP stacks.

    The paper's test client has one interface per home gateway under test and
    uses *interface-specific routes only* (§3.1); :meth:`add_route` supports
    exactly that, and the most-specific matching route wins.
    """

    def __init__(self, sim: Simulation, name: str, mac_pool: Any):
        super().__init__(sim, name)
        self._mac_pool = mac_pool
        self.routes: List[Route] = []
        # Keyed by (iface index, int(ip)): the stdlib IPv4Address hash builds
        # a hex string per call, too slow for a per-frame dict.
        self.neighbors: Dict[Tuple[int, int], MacAddress] = {}
        # Observers see every IPv4 packet accepted by this host (like a
        # tcpdump on all interfaces); interceptors may consume a packet
        # before the stack handles it — the paper's "hijack" hook.
        self.ip_observers: List[Callable[[IPv4Packet, Interface], None]] = []
        self.interceptors: List[Callable[[IPv4Packet, Interface], bool]] = []
        self.validate_checksums = True
        #: Linux-style IP forwarding between this host's interfaces.  Off for
        #: endpoints; the hole-punching experiments switch it on for the test
        #: server so WAN VLANs can reach each other (peer-to-peer paths).
        self.ip_forwarding = False
        self.packets_sent = 0
        self.packets_received = 0
        self.packets_forwarded = 0
        self.checksum_drops = 0

        # Protocol managers are imported lazily to avoid import cycles.
        from repro.protocols.udp import UdpManager
        from repro.protocols.tcp import TcpManager
        from repro.protocols.icmp_service import IcmpService
        from repro.protocols.sctp import SctpManager
        from repro.protocols.dccp import DccpManager

        self.udp = UdpManager(self)
        self.tcp = TcpManager(self)
        self.icmp = IcmpService(self)
        self.sctp = SctpManager(self)
        self.dccp = DccpManager(self)
        self._handlers: Dict[int, Callable[[IPv4Packet, Interface], None]] = {
            PROTO_UDP: self.udp.handle_packet,
            PROTO_TCP: self.tcp.handle_packet,
            PROTO_ICMP: self.icmp.handle_packet,
            PROTO_SCTP: self.sctp.handle_packet,
            PROTO_DCCP: self.dccp.handle_packet,
        }
        self._next_ident = 1

    # -- construction -----------------------------------------------------

    def new_interface(self) -> Interface:
        return self.add_interface(next(self._mac_pool))

    # -- routing ------------------------------------------------------------

    def add_route(self, network: IPv4Network, iface_index: int, gateway: Optional[IPv4Address] = None) -> None:
        self.routes.append(Route(network, iface_index, gateway))

    def add_default_route(self, iface_index: int, gateway: IPv4Address) -> None:
        self.add_route(DEFAULT_NETWORK, iface_index, gateway)

    def clear_routes(self, iface_index: Optional[int] = None) -> None:
        if iface_index is None:
            self.routes.clear()
            return
        self.routes = [route for route in self.routes if route.iface_index != iface_index]

    def lookup_route(self, dst: IPv4Address) -> Optional[Route]:
        """Longest-prefix match, including connected networks."""
        address = dst._ip
        best: Optional[Route] = None
        best_len = -1
        for iface in self.interfaces:
            route = iface.route
            if route is not None and address & route.mask == route.net and route.prefixlen > best_len:
                best = route
                best_len = route.prefixlen
        for route in self.routes:
            if address & route.mask == route.net and route.prefixlen > best_len:
                best = route
                best_len = route.prefixlen
        return best

    def source_ip_for(self, dst: IPv4Address) -> Optional[IPv4Address]:
        """The source address the stack would use toward ``dst``."""
        route = self.lookup_route(dst)
        if route is None:
            return None
        return self.interfaces[route.iface_index].ip

    # -- transmit ------------------------------------------------------------

    def next_ident(self) -> int:
        ident = self._next_ident
        self._next_ident = (self._next_ident + 1) & 0xFFFF
        return ident

    def send_ip(self, packet: IPv4Packet) -> bool:
        """Route and transmit ``packet``; returns False when unroutable."""
        if packet.dst._ip == 0xFFFFFFFF:  # LIMITED_BROADCAST
            raise ValueError("use send_ip_on_iface for limited broadcasts")
        route = self.lookup_route(packet.dst)
        if route is None:
            return False
        next_hop = route.gateway if route.gateway is not None else packet.dst
        return self.send_ip_on_iface(packet, route.iface_index, next_hop=next_hop)

    def send_ip_routed(self, packet: IPv4Packet, iface_index: Optional[int] = None) -> bool:
        """Transmit, optionally forcing a specific interface.

        With an interface pinned (the test client's per-VLAN sockets), an
        off-link destination goes to that interface's DHCP-learned gateway —
        the "interface-specific routes" configuration of §3.1.
        """
        if iface_index is None:
            return self.send_ip(packet)
        iface = self.interfaces[iface_index]
        next_hop = packet.dst
        if iface.gateway_ip is not None and next_hop._ip & iface.mask_int != iface.net_int:
            next_hop = iface.gateway_ip  # off-link (always, while unconfigured)
        return self.send_ip_on_iface(packet, iface_index, next_hop=next_hop)

    def send_ip_on_iface(
        self,
        packet: IPv4Packet,
        iface_index: int,
        next_hop: Optional[IPv4Address] = None,
        dst_mac: Optional[MacAddress] = None,
    ) -> bool:
        """Transmit on a specific interface (used by DHCP and the testbed)."""
        iface = self.interfaces[iface_index]
        checksum = packet.header_checksum
        if packet.identification == 0:
            packet.identification = ident = self.next_ident()
            if checksum is not None and checksum is not VALID:
                # A sender that ran fill_checksums() summed identification 0:
                # fold the assigned word in, so the header verifies on the wire
                # (and a deliberately wrong checksum stays exactly as wrong).
                packet.header_checksum = incremental_update_words(checksum, 0, ident, 1)
        if checksum is None:
            # The stack's own checksums are valid by construction: TCP and
            # UDP ones are computed only where a byte is observed.
            transport = packet.payload
            if transport.__class__ is UdpDatagram or transport.__class__ is TcpSegment:
                transport.checksum = VALID
            elif hasattr(transport, "fill_checksum"):
                transport.fill_checksum(packet.src, packet.dst)
            packet.header_checksum = VALID
        if dst_mac is None:
            if next_hop is None or packet.dst._ip == 0xFFFFFFFF:  # LIMITED_BROADCAST
                dst_mac = BROADCAST_MAC
            else:
                dst_mac = self.neighbors.get((iface_index, next_hop._ip), BROADCAST_MAC)
        frame = EthernetFrame(dst_mac, iface.mac, packet, ETHERTYPE_IPV4)
        self.packets_sent += 1
        iface.transmit(frame)
        return True

    # -- receive --------------------------------------------------------------

    def receive_frame(self, iface: Interface, frame: Any) -> None:
        if frame.ethertype != ETHERTYPE_IPV4:
            return
        dst_mac = frame.dst._value  # inlined is_broadcast/is_multicast checks
        if dst_mac != iface.mac._value and dst_mac != 0xFFFFFFFFFFFF and not (dst_mac >> 40) & 1:
            return
        packet = frame.payload
        if not isinstance(packet, IPv4Packet):
            return
        # Learn the sender's L2 address for future unicasts.
        src = packet.src._ip
        if src != 0:  # UNSPECIFIED
            self.neighbors[(iface.index, src)] = frame.src
        if not self._addressed_to_us(packet.dst._ip, iface):
            if self.ip_forwarding:
                self._forward(packet, iface)
            return
        self.deliver_local(packet, iface)

    def _forward(self, packet: IPv4Packet, in_iface: Interface) -> None:
        """Route a transit packet out another interface (plain IP router)."""
        route = self.lookup_route(packet.dst)
        if route is None:
            return
        if packet.ttl <= 1:
            return  # a router would emit Time Exceeded; transit probes don't need it
        out_iface = self.interfaces[route.iface_index]
        if packet.wire_size() > out_iface.mtu:
            if packet.dont_fragment:
                self._send_frag_needed(packet, in_iface, out_iface.mtu)
            # Without DF a real router would fragment; our stacks always set
            # DF (as Linux does for TCP), so oversized DF-less packets drop.
            return
        from repro.packets.clone import clone_packet

        forwarded = clone_packet(packet)
        forwarded.ttl -= 1
        if forwarded.header_checksum is not VALID:  # VALID follows the TTL
            forwarded.header_checksum = forwarded.compute_header_checksum()
        next_hop = route.gateway if route.gateway is not None else forwarded.dst
        self.packets_forwarded += 1
        self.send_ip_on_iface(forwarded, route.iface_index, next_hop=next_hop)

    def _send_frag_needed(self, offending: IPv4Packet, in_iface: Interface, mtu: int) -> None:
        """RFC 1191: Destination Unreachable / Fragmentation Needed."""
        from repro.packets.icmp import ICMP_DEST_UNREACH, UNREACH_FRAG_NEEDED, IcmpMessage

        if in_iface.ip is None:
            return
        error = IcmpMessage.error(ICMP_DEST_UNREACH, UNREACH_FRAG_NEEDED, offending, mtu=mtu)
        reply = IPv4Packet(in_iface.ip, offending.src, PROTO_ICMP, error)
        reply.fill_checksums()
        self.send_ip(reply)

    def deliver_local(self, packet: IPv4Packet, iface: Interface) -> None:
        """Run a packet through this host's own stack (observers + demux)."""
        self.packets_received += 1
        if self.ip_observers:  # copied so observers may deregister mid-walk
            for observer in list(self.ip_observers):
                observer(packet, iface)
        if self.interceptors:
            for interceptor in list(self.interceptors):
                if interceptor(packet, iface):
                    return
        handler = self._handlers.get(packet.protocol)
        if handler is None:
            self.icmp.protocol_unreachable(packet, iface)
            return
        handler(packet, iface)

    def _addressed_to_us(self, dst: int, iface: Interface) -> bool:
        """Is the int address ``dst`` ours, as seen on ``iface``?"""
        if dst == 0xFFFFFFFF or dst == iface.broadcast_int:  # limited/directed broadcast
            return True
        # Weak host model (Linux default): any local address on any
        # interface is "us" — the multi-VLAN test server depends on it.
        for own in self.interfaces:
            if dst == own.ip_int:
                return True
        # DHCP clients accept unicasts to their about-to-be address.
        return iface.ip is None and dst != 0 and self.udp.accepts_unconfigured(iface)

    # -- convenience ------------------------------------------------------------

    def install_intercept(self, fn: Callable[[IPv4Packet, Interface], bool]) -> Callable[[], None]:
        """Install a packet interceptor; returns a removal callback."""
        self.interceptors.append(fn)

        def remove() -> None:
            if fn in self.interceptors:
                self.interceptors.remove(fn)

        return remove

    def observe_ip(self, fn: Callable[[IPv4Packet, Interface], None]) -> Callable[[], None]:
        """Install a packet observer; returns a removal callback."""
        self.ip_observers.append(fn)

        def remove() -> None:
            if fn in self.ip_observers:
                self.ip_observers.remove(fn)

        return remove
