"""Network nodes and their Ethernet interfaces.

A :class:`Node` is anything with interfaces: a host, a switch, or a home
gateway.  An :class:`Interface` is one Ethernet port — it has a MAC address,
optionally an IPv4 configuration, and is attached to at most one
:class:`~repro.netsim.link.Link` endpoint.

The simulator is intentionally agnostic about what travels over links; it
only requires frames to expose ``wire_size()`` (bytes on the wire) plus
``src``/``dst`` MAC attributes, which :class:`repro.packets.EthernetFrame`
provides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from ipaddress import IPv4Address, IPv4Network
from typing import Any, List, Optional, TYPE_CHECKING

from repro.netsim.addresses import MacAddress

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.link import LinkEndpoint
    from repro.netsim.sim import Simulation


@dataclass(frozen=True)
class Route:
    """One routing-table entry."""

    network: IPv4Network
    iface_index: int
    gateway: Optional[IPv4Address] = None
    # ``network`` as ints, for the per-packet longest-prefix match.
    net: int = field(init=False, repr=False, compare=False)
    mask: int = field(init=False, repr=False, compare=False)
    prefixlen: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "net", int(self.network.network_address))
        object.__setattr__(self, "mask", int(self.network.netmask))
        object.__setattr__(self, "prefixlen", self.network.prefixlen)


class Interface:
    """One Ethernet port of a :class:`Node`.

    :meth:`configure` also derives what the data path compares: the
    address, network, mask and broadcast as ints (``ip_int``, ``net_int``,
    ``mask_int``, ``broadcast_int``) and the connected :class:`Route`.
    Unconfigured, the ints read ``-1``, which no address equals, and
    ``mask_int`` reads 0, so ``address & mask_int == net_int`` is the whole
    on-link test.
    """

    def __init__(self, node: "Node", index: int, mac: MacAddress):
        self.node = node
        self.index = index
        self.mac = mac
        self.endpoint: Optional["LinkEndpoint"] = None
        #: Largest IP datagram this port forwards (routers enforce on egress;
        #: smaller values + DF set produce ICMP Frag Needed — the PMTU
        #: discovery mechanics of §3.2.3).
        self.mtu = 1500
        # IPv4 configuration; populated statically or by the DHCP client.
        self.ip: Optional[IPv4Address] = None
        self.network: Optional[IPv4Network] = None
        self.gateway_ip: Optional[IPv4Address] = None
        self.ip_int = -1
        self.net_int = -1
        self.mask_int = 0
        self.broadcast_int = -1
        self.route: Optional[Route] = None
        self.frames_sent = 0
        self.frames_received = 0

    @property
    def name(self) -> str:
        return f"{self.node.name}.eth{self.index}"

    @property
    def attached(self) -> bool:
        return self.endpoint is not None

    def configure(
        self,
        ip: IPv4Address,
        network: IPv4Network,
        gateway_ip: Optional[IPv4Address] = None,
    ) -> None:
        """Assign an IPv4 address/netmask (and optional default gateway)."""
        if ip not in network:
            raise ValueError(f"{ip} is not inside {network}")
        self.ip = ip
        self.network = network
        self.gateway_ip = gateway_ip
        self.route = Route(network, self.index)
        self.ip_int = int(ip)
        self.net_int = self.route.net
        self.mask_int = self.route.mask
        self.broadcast_int = self.net_int | (self.mask_int ^ 0xFFFFFFFF)

    def deconfigure(self) -> None:
        self.ip = None
        self.network = None
        self.gateway_ip = None
        self.route = None
        self.ip_int = self.net_int = self.broadcast_int = -1
        self.mask_int = 0

    def transmit(self, frame: Any) -> None:
        """Hand a frame to the attached link for transmission."""
        if self.endpoint is None:
            # Mirrors real life: sending on an unplugged port loses the frame.
            return
        self.frames_sent += 1
        self.endpoint.transmit(frame)

    def deliver(self, frame: Any) -> None:
        """Called by the link when a frame arrives at this port."""
        self.frames_received += 1
        self.node.receive_frame(self, frame)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Interface {self.name} mac={self.mac} ip={self.ip}>"


class Node:
    """Base class for every simulated device."""

    def __init__(self, sim: "Simulation", name: str):
        self.sim = sim
        self.name = name
        self.interfaces: List[Interface] = []

    def add_interface(self, mac: MacAddress) -> Interface:
        iface = Interface(self, len(self.interfaces), mac)
        self.interfaces.append(iface)
        return iface

    def iface(self, index: int) -> Interface:
        return self.interfaces[index]

    def receive_frame(self, iface: Interface, frame: Any) -> None:
        """Frame arrival hook; subclasses override."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
