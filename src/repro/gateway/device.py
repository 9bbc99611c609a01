"""The :class:`HomeGateway` device: NAT router + local services.

A ``HomeGateway`` is a :class:`~repro.protocols.stack.Host` (it has its own
IP stack for DHCP, DNS proxying and answering pings) whose frame-receive
path additionally *forwards*: LAN→WAN traffic is NATted out the WAN port,
WAN→LAN traffic addressed to the WAN IP is matched against the binding
table, translated and forwarded in.  Everything passes through the
rate/buffer-limited :class:`~repro.gateway.forwarding.ForwardingEngine`.

Interface 0 is always the WAN port, interface 1 the LAN port.
"""

from __future__ import annotations

from ipaddress import IPv4Address, IPv4Network
from typing import Any, Callable, List, Optional

from repro.devices.profile import DeviceProfile, FallbackBehavior
from repro.gateway.dns_proxy import DnsProxyService
from repro.gateway.forwarding import DOWNSTREAM, UPSTREAM, ForwardingEngine
from repro.gateway.icmp_translation import IcmpTranslationEngine
from repro.gateway.nat import NatEngine
from repro.gateway.translation import (
    clone_packet,
    refresh_ip_checksum,
    rewrite_destination,
    rewrite_ip_only,
    rewrite_source,
    strip_tcp_options,
)
from repro.netsim.addresses import BROADCAST_MAC
from repro.netsim.node import Interface
from repro.netsim.sim import Simulation
from repro.packets.ethernet import ETHERTYPE_IPV4, EthernetFrame
from repro.packets.icmp import (
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
    ICMP_TIME_EXCEEDED,
    TIME_EXCEEDED_TTL,
    IcmpMessage,
)
from repro.packets.ipv4 import (
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    IPv4Packet,
)
from repro.packets.tcp import TcpSegment
from repro.packets.udp import UdpDatagram
from repro.protocols.dhcp import DhcpClientService, DhcpServerService
from repro.protocols.stack import Host

WAN_IFACE = 0
LAN_IFACE = 1


class HomeGateway(Host):
    """One simulated home gateway, behaving per its :class:`DeviceProfile`.

    The profile is pure policy — binding timers, port allocation, mapping
    and filtering behaviours, forwarding rates and buffers, ICMP handling,
    quirks — and this class is the machine that interprets it.  The moving
    parts: a :class:`~repro.gateway.nat.NatEngine` (binding table and its
    timers), a rate/buffer-limited
    :class:`~repro.gateway.forwarding.ForwardingEngine`, an ICMP
    translation engine, a DHCP server and DNS proxy on the LAN side, and a
    DHCP client on the WAN side (:meth:`start`), plus fault-injection
    state (:meth:`crash` / :meth:`schedule_crash`).

    Under a trace (see :mod:`repro.obs`) the gateway publishes its life as
    events attributed to ``profile.tag``: ``pkt.rx``/``pkt.tx`` at
    ingress/egress, ``pkt.drop`` with a cause (``queue_full``, ``down``,
    ``no_binding``, ``filtered``, ``fallback``, ``ip_options``, ``flush``),
    and ``fault.crash``/``fault.boot`` around power cycles.
    """

    def __init__(
        self,
        sim: Simulation,
        profile: DeviceProfile,
        mac_pool: Any,
        lan_network: IPv4Network = IPv4Network("192.168.1.0/24"),
        name: Optional[str] = None,
    ):
        super().__init__(sim, name or f"gw-{profile.tag}", mac_pool)
        self.profile = profile
        self.lan_network = lan_network
        wan_iface = self.new_interface()
        if profile.quirks.shared_wan_lan_mac:
            lan_iface = self.add_interface(wan_iface.mac)
        else:
            lan_iface = self.new_interface()
        self.lan_ip = IPv4Address(int(lan_network.network_address) + 1)
        lan_iface.configure(self.lan_ip, lan_network)

        self.nat = NatEngine(sim, profile)
        self.nat.port_reserved = self._port_reserved
        self.engine = ForwardingEngine(sim, profile.forwarding)
        self.engine.label = profile.tag
        self.icmp_translation = IcmpTranslationEngine(profile.icmp, self.nat)
        self.dhcp_server = DhcpServerService(
            self,
            LAN_IFACE,
            lan_network,
            self.lan_ip,
            router=self.lan_ip,
            dns_servers=[self.lan_ip],  # the gateway advertises its own proxy
            lease_seconds=profile.dhcp_lease_seconds,
        )
        self.dns_proxy = DnsProxyService(self, profile.dns_proxy, LAN_IFACE)
        self.wan_dns_servers: List[IPv4Address] = []
        self._dhcp_client: Optional[DhcpClientService] = None
        self.on_wan_configured: Optional[Callable[["HomeGateway"], None]] = None
        # Gateways that don't answer RSTs for unsolicited WAN SYNs: the
        # firewall silently drops them instead (handled in the demux below).
        self.forwarded_up = 0
        self.forwarded_down = 0
        self.dropped_no_binding = 0
        self.dropped_fallback = 0
        self.dropped_while_down = 0
        # Fault-injection state: a crashed device forwards nothing until its
        # boot delay elapses.
        self.running = True
        self.crashes = 0
        self._boot_timer = sim.timer(self._finish_boot)

    # -- properties -------------------------------------------------------

    @property
    def wan_iface(self) -> Interface:
        return self.interfaces[WAN_IFACE]

    @property
    def lan_iface(self) -> Interface:
        return self.interfaces[LAN_IFACE]

    @property
    def wan_ip(self) -> Optional[IPv4Address]:
        return self.wan_iface.ip

    @property
    def tag(self) -> str:
        return self.profile.tag

    def install_ruleset(self, rules: int, conntrack_entries: int = 0) -> None:
        """Load ``rules`` firewall rules (and an emulated conntrack size).

        Delegates to the forwarding engine's per-packet CPU cost model —
        see :meth:`~repro.gateway.forwarding.ForwardingEngine
        .install_ruleset`.  ``install_ruleset(0)`` restores the factory
        (empty-chain) forwarding path.
        """
        self.engine.install_ruleset(rules, conntrack_entries)

    # -- startup --------------------------------------------------------------

    def start(self, on_ready: Optional[Callable[["HomeGateway"], None]] = None) -> None:
        """Bring the WAN side up via DHCP (as the testbed's gateways do)."""
        self.on_wan_configured = on_ready

        def configured(client: DhcpClientService) -> None:
            iface = self.wan_iface
            if iface.gateway_ip is not None:
                self.add_default_route(WAN_IFACE, iface.gateway_ip)
            self.wan_dns_servers = list(client.dns_servers)
            if self.on_wan_configured is not None:
                self.on_wan_configured(self)

        self._dhcp_client = DhcpClientService(self, WAN_IFACE, on_configured=configured)
        self._dhcp_client.start()

    # -- fault injection ------------------------------------------------------

    def crash(self, boot_delay: Optional[float] = None) -> None:
        """Power-cycle the device.

        Everything volatile is gone instantly: the NAT binding table (and its
        timers), the forwarding-plane queues, and frames queued on the
        device's own link transmitters.  The gateway then forwards nothing
        until the boot delay (``profile.boot_seconds`` unless overridden)
        elapses; ``math.inf`` models a device that never comes back.  The WAN
        lease is kept across the reboot — address stability through power
        cycles is the common CPE behaviour, and what the NAT *loses* is the
        interesting part.
        """
        self.crashes += 1
        self.running = False
        delay = self.profile.boot_seconds if boot_delay is None else boot_delay
        bus = self.sim.bus
        if bus is not None:
            bus.emit("fault.crash", dev=self.profile.tag, boot="never" if delay == float("inf") else delay)
        self.nat.flush()
        self.engine.flush()
        for iface in self.interfaces:
            if iface.endpoint is not None:
                iface.endpoint.flush()
        if delay == float("inf"):
            self._boot_timer.cancel()  # bricked: never reboots
            return
        self._boot_timer.restart(delay)

    def schedule_crash(self, at: float, boot_delay: Optional[float] = None) -> None:
        """Arrange a crash ``at`` seconds from now (virtual time)."""
        self.sim.schedule(at, self.crash, boot_delay)

    def _finish_boot(self) -> None:
        self.running = True
        bus = self.sim.bus
        if bus is not None:
            bus.emit("fault.boot", dev=self.profile.tag)

    def _trace_drop(self, cause: str) -> None:
        """Publish a ``pkt.drop`` event (no-op when unobserved)."""
        bus = self.sim.bus
        if bus is not None:
            bus.emit("pkt.drop", dev=self.profile.tag, cause=cause)

    def _port_reserved(self, proto: str, port: int) -> bool:
        if proto == "udp":
            return self.udp.has_port(port)
        if proto == "tcp":
            return port in self.tcp.listeners or any(
                key[1] == port for key in self.tcp.connections
            )
        return False

    # -- frame demux ---------------------------------------------------------------

    def receive_frame(self, iface: Interface, frame: Any) -> None:
        if not self.running:
            self.dropped_while_down += 1
            self._trace_drop("down")
            return
        if frame.ethertype != ETHERTYPE_IPV4:
            return
        dst_mac = frame.dst._value  # inlined is_broadcast/is_multicast checks
        if dst_mac != iface.mac._value and dst_mac != 0xFFFFFFFFFFFF and not (dst_mac >> 40) & 1:
            return
        packet = frame.payload
        if not isinstance(packet, IPv4Packet):
            return
        bus = self.sim.bus
        if bus is not None:
            bus.emit(
                "pkt.rx",
                dev=self.profile.tag,
                iface="lan" if iface.index == LAN_IFACE else "wan",
                proto=packet.protocol,
                size=packet.wire_size(),
            )
        src = packet.src._ip
        if src != 0:  # 0.0.0.0
            self.neighbors[(iface.index, src)] = frame.src
        if iface.index == LAN_IFACE:
            self._from_lan(packet, iface)
        else:
            self._from_wan(packet, iface)

    # -- LAN -> WAN ---------------------------------------------------------------------

    def _from_lan(self, packet: IPv4Packet, iface: Interface) -> None:
        # Address checks compare ints; ``iface`` is the LAN port, which
        # __init__ configured with lan_ip and lan_network.
        dst = packet.dst._ip
        if dst == iface.ip_int or dst == 0xFFFFFFFF or dst == iface.broadcast_int:
            self.deliver_local(packet, iface)
            return
        if dst & iface.mask_int == iface.net_int:
            return  # LAN-to-LAN traffic is the switch's business, not ours
        wan = self.interfaces[WAN_IFACE]
        if wan.ip is None:
            return  # WAN not up yet
        if self.profile.nat.hairpinning and dst == wan.ip_int:
            self._hairpin(packet)
            return
        outbound = clone_packet(packet)
        if not self._apply_ttl_and_options(outbound):
            return
        self._translate_and_forward_up(outbound)

    def _apply_ttl_and_options(self, packet: IPv4Packet) -> bool:
        """TTL decrement and option handling, per the §4.4/§5 quirks."""
        if self.profile.quirks.drops_ip_options and packet.record_route is not None:
            # Medina et al.: packets with IP options frequently just vanish.
            self.dropped_fallback += 1
            self._trace_drop("ip_options")
            return False
        if self.profile.quirks.decrements_ttl:
            if packet.ttl <= 1:
                self._send_ttl_exceeded(packet)
                return False
            packet.ttl -= 1
        if packet.record_route is not None and self.profile.quirks.honors_record_route:
            if self.wan_ip is not None:
                packet.record_route.record(self.wan_ip)
        if self.profile.quirks.strips_tcp_options and isinstance(packet.payload, TcpSegment):
            strip_tcp_options(packet)
        refresh_ip_checksum(packet)
        return True

    def _send_ttl_exceeded(self, offending: IPv4Packet) -> None:
        error = IcmpMessage.error(ICMP_TIME_EXCEEDED, TIME_EXCEEDED_TTL, offending)
        reply = IPv4Packet(self.lan_ip, offending.src, PROTO_ICMP, error)
        reply.fill_checksums()
        self.send_ip_on_iface(reply, LAN_IFACE, next_hop=offending.src)

    def _translate_and_forward_up(self, packet: IPv4Packet) -> None:
        transport = packet.payload
        if packet.protocol == PROTO_UDP and isinstance(transport, UdpDatagram):
            self._forward_up_napt(packet, "udp", transport)
        elif packet.protocol == PROTO_TCP and isinstance(transport, TcpSegment):
            self._forward_up_napt(packet, "tcp", transport)
        elif packet.protocol == PROTO_ICMP and isinstance(transport, IcmpMessage):
            self._forward_up_icmp(packet, transport)
        else:
            self._forward_up_fallback(packet)

    def _forward_up_napt(self, packet: IPv4Packet, proto: str, transport) -> None:
        binding = self.nat.lookup_or_create(
            proto, packet.src, transport.src_port, (packet.dst, transport.dst_port)
        )
        if binding is None:
            self.dropped_no_binding += 1
            # The engine says precisely *why* it refused (table_full,
            # rate_limited, port_exhausted); attribute the drop to that.
            # Per-protocol lookup: a concurrent flood on the other protocol
            # must not relabel this packet's refusal cause.
            self._trace_drop(self.nat.refusal_cause(proto) or "no_binding")
            return
        rewrite_source(packet, self.interfaces[WAN_IFACE].ip, binding.ext_port)
        self.nat.note_outbound(binding)
        if proto == "tcp":
            self.nat.note_tcp_flags(binding, fin=transport.fin, rst=transport.rst, outbound=True)
        self._enqueue_up(packet)

    def _forward_up_icmp(self, packet: IPv4Packet, message: IcmpMessage) -> None:
        if message.icmp_type in (ICMP_ECHO_REQUEST, ICMP_ECHO_REPLY) and self.profile.icmp.echo_binding:
            ext_ident = self.nat.echo_outbound(packet.src, message.echo_ident)
            packet.src = self.wan_ip
            message.rest = (ext_ident << 16) | message.echo_seq
            message.fill_checksum()
            refresh_ip_checksum(packet)
            self._enqueue_up(packet)
            return
        # Outbound ICMP errors: translate the outer source only.
        packet.src = self.wan_ip
        refresh_ip_checksum(packet)
        self._enqueue_up(packet)

    def _forward_up_fallback(self, packet: IPv4Packet) -> None:
        fallback = self.profile.fallback
        if fallback is FallbackBehavior.DROP:
            self.dropped_fallback += 1
            self._trace_drop("fallback")
            return
        if fallback is FallbackBehavior.IP_ONLY:
            self.nat.generic_outbound(packet.protocol, packet.src, packet.dst)
            rewrite_ip_only(packet, src=self.wan_ip)
        # PASSTHROUGH: forward the packet exactly as it came, private source
        # address and all (dl4/dl9/dl10/ls1's behaviour).
        self._enqueue_up(packet)

    def _hairpin(self, packet: IPv4Packet) -> None:
        transport = packet.payload
        proto = "udp" if packet.protocol == PROTO_UDP else "tcp" if packet.protocol == PROTO_TCP else None
        if proto is None or not hasattr(transport, "dst_port"):
            return
        binding = self.nat.find_by_external(proto, transport.dst_port)
        if binding is None:
            self.dropped_no_binding += 1
            self._trace_drop("no_binding")
            return
        # Hairpin: SNAT to the WAN address, DNAT to the internal target, and
        # bounce the packet back down the LAN side.
        out_binding = self.nat.lookup_or_create(
            proto, packet.src, transport.src_port, (packet.dst, transport.dst_port)
        )
        if out_binding is None:
            self.dropped_no_binding += 1
            self._trace_drop(self.nat.refusal_cause(proto) or "no_binding")
            return
        hairpinned = clone_packet(packet)
        rewrite_source(hairpinned, self.wan_ip, out_binding.ext_port)
        rewrite_destination(hairpinned, binding.int_ip, binding.int_port)
        self.nat.note_outbound(out_binding)
        self.nat.note_inbound(binding)
        self._enqueue_down(hairpinned)

    # -- WAN -> LAN --------------------------------------------------------------------------

    def _from_wan(self, packet: IPv4Packet, iface: Interface) -> None:
        dst = packet.dst._ip
        if dst == 0xFFFFFFFF:  # limited broadcast
            self.deliver_local(packet, iface)
            return
        if dst != self.interfaces[WAN_IFACE].ip_int:  # also while the WAN is down
            if iface.ip is None and dst != 0:
                # DHCP unicast during WAN configuration.
                self.deliver_local(packet, iface)
            elif self._generic_inbound(packet):
                pass
            return
        transport = packet.payload
        if packet.protocol == PROTO_UDP and isinstance(transport, UdpDatagram):
            self._forward_down_napt(packet, "udp", transport, iface)
        elif packet.protocol == PROTO_TCP and isinstance(transport, TcpSegment):
            self._forward_down_napt(packet, "tcp", transport, iface)
        elif packet.protocol == PROTO_ICMP and isinstance(transport, IcmpMessage):
            self._forward_down_icmp(packet, transport, iface)
        else:
            if not self._generic_inbound(packet):
                self.dropped_no_binding += 1
                self._trace_drop("no_binding")

    def _forward_down_napt(self, packet: IPv4Packet, proto: str, transport, iface: Interface) -> None:
        binding = self.nat.find_by_external(proto, transport.dst_port)
        if binding is None:
            # Not a NATted flow: maybe it is for one of our own services
            # (the DHCP client, the proxy's upstream sockets).
            if self._local_owns(packet, proto, transport):
                self.deliver_local(packet, iface)
            else:
                self.dropped_no_binding += 1  # firewall: silent drop
                self._trace_drop("no_binding")
            return
        if not self.nat.inbound_allowed(binding, (packet.src, transport.src_port)):
            return
        inbound = clone_packet(packet)
        rewrite_destination(inbound, binding.int_ip, binding.int_port)
        self.nat.note_inbound(binding)
        if proto == "tcp":
            self.nat.note_tcp_flags(binding, fin=transport.fin, rst=transport.rst, outbound=False)
        self._enqueue_down(inbound)

    def _local_owns(self, packet: IPv4Packet, proto: str, transport) -> bool:
        if proto == "udp":
            return self.udp.has_port(transport.dst_port)
        return self.tcp.owns_flow(packet.dst, transport.dst_port, packet.src, transport.src_port)

    def _forward_down_icmp(self, packet: IPv4Packet, message: IcmpMessage, iface: Interface) -> None:
        if message.icmp_type == ICMP_ECHO_REQUEST:
            self.deliver_local(packet, iface)  # the gateway answers pings itself
            return
        if message.icmp_type == ICMP_ECHO_REPLY:
            target = self.nat.echo_inbound(message.echo_ident) if self.profile.icmp.echo_binding else None
            if target is None:
                self.deliver_local(packet, iface)
                return
            int_ip, int_ident = target
            inbound = clone_packet(packet)
            inbound.dst = int_ip
            reply = inbound.payload
            reply.rest = (int_ident << 16) | reply.echo_seq
            reply.fill_checksum()
            refresh_ip_checksum(inbound)
            self._enqueue_down(inbound)
            return
        if message.is_error:
            action, result = self.icmp_translation.translate_inbound_error(packet)
            if action == "drop" or result is None:
                return
            self._enqueue_down(result)

    def _generic_inbound(self, packet: IPv4Packet) -> bool:
        """Inbound path for unknown transports under the IP_ONLY fallback."""
        if self.profile.fallback is not FallbackBehavior.IP_ONLY:
            return False
        int_ip = self.nat.generic_inbound(packet.protocol, packet.src)
        if int_ip is None:
            return False
        if not self.profile.fallback_allows_inbound:
            self.dropped_no_binding += 1
            self._trace_drop("filtered")
            return True  # consumed (filtered)
        inbound = clone_packet(packet)
        rewrite_ip_only(inbound, dst=int_ip)
        self._enqueue_down(inbound)
        return True

    # -- forwarding-plane egress ---------------------------------------------------------------

    def _enqueue_up(self, packet: IPv4Packet) -> None:
        self.engine.forward(UPSTREAM, packet, packet.wire_size(), self._transmit_wan)

    def _enqueue_down(self, packet: IPv4Packet) -> None:
        self.engine.forward(DOWNSTREAM, packet, packet.wire_size(), self._transmit_lan)

    def _transmit_wan(self, packet: IPv4Packet) -> None:
        self.forwarded_up += 1
        bus = self.sim.bus
        if bus is not None:
            bus.emit("pkt.tx", dev=self.profile.tag, dir=UPSTREAM, proto=packet.protocol, size=packet.wire_size())
        iface = self.interfaces[WAN_IFACE]
        next_hop = packet.dst
        if next_hop._ip & iface.mask_int != iface.net_int:  # off-link
            next_hop = iface.gateway_ip or packet.dst
        mac = self.neighbors.get((WAN_IFACE, next_hop._ip), BROADCAST_MAC)
        iface.transmit(EthernetFrame(mac, iface.mac, packet, ETHERTYPE_IPV4))

    def _transmit_lan(self, packet: IPv4Packet) -> None:
        self.forwarded_down += 1
        bus = self.sim.bus
        if bus is not None:
            bus.emit("pkt.tx", dev=self.profile.tag, dir=DOWNSTREAM, proto=packet.protocol, size=packet.wire_size())
        iface = self.interfaces[LAN_IFACE]
        mac = self.neighbors.get((LAN_IFACE, packet.dst._ip), BROADCAST_MAC)
        iface.transmit(EthernetFrame(mac, iface.mac, packet, ETHERTYPE_IPV4))
