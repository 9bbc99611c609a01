"""Builds the Figure-1 topology."""

from __future__ import annotations

from dataclasses import dataclass
from ipaddress import IPv4Address, IPv4Network
from typing import Dict, List, Optional, Sequence

from repro.devices.profile import DeviceProfile
from repro.gateway.device import HomeGateway
from repro.netsim.sim import Simulation
from repro.protocols.dhcp import DhcpClientService
from repro.testbed.wiring import (
    DEFAULT_ZONE_ANSWER,
    DEFAULT_ZONE_NAME,
    LINK_DELAY,
    LINK_RATE_BPS,
    Wiring,
    dhcp_cascade,
    first_host,
    simulation,
    slash24,
)

#: The wiring constants stay importable from here, where probes look for them.
__all__ = [
    "GatewayPort",
    "Testbed",
    "DEFAULT_ZONE_ANSWER",
    "DEFAULT_ZONE_NAME",
    "LINK_DELAY",
    "LINK_RATE_BPS",
]


@dataclass
class GatewayPort:
    """Everything attached to one gateway slot ``n``."""

    index: int
    profile: DeviceProfile
    gateway: HomeGateway
    wan_network: IPv4Network
    lan_network: IPv4Network
    server_ip: IPv4Address
    server_iface_index: int
    client_iface_index: int
    client_dhcp: Optional[DhcpClientService] = None

    @property
    def tag(self) -> str:
        return self.profile.tag


class Testbed(Wiring):
    """The assembled testbed: server, switches, gateways, client.

    Gateway ``n`` puts its WAN on VLAN ``1000+n`` (``10.0.n.0/24``, server
    at ``.1``) and its LAN on VLAN ``2000+n`` (``192.168.n.0/24``).
    """

    __test__ = False  # not a pytest class, despite the name

    def __init__(self, sim: Simulation, profiles: Sequence[DeviceProfile]):
        super().__init__(sim)
        self.figure1()
        self.ports: Dict[str, GatewayPort] = {}
        for number, profile in enumerate(profiles, start=1):
            self._add_gateway(number, profile)

    @classmethod
    def build(
        cls, profiles: Sequence[DeviceProfile], seed: int = 0, fastpath: bool = True
    ) -> "Testbed":
        """Construct the testbed and bring every gateway and client VLAN up."""
        bed = cls(simulation(seed, fastpath), profiles)
        bed.bring_up()
        return bed

    def _add_gateway(self, number: int, profile: DeviceProfile) -> None:
        if profile.tag in self.ports:
            raise ValueError(f"duplicate device tag {profile.tag!r}")
        wan_network = slash24(10, 0, number)
        server_ip = first_host(wan_network)
        uplink = (self.wan_switch, 1000 + number)
        server_iface = self.server_face(number, wan_network, server_ip, uplink, profile.tag)
        gateway = self.gateway(profile, self.macs, slash24(192, 168, number))
        client_iface_index = self.home(
            profile.tag, gateway, uplink, (self.lan_switch, 2000 + number), self.client
        )
        self.ports[profile.tag] = GatewayPort(
            index=number,
            profile=profile,
            gateway=gateway,
            wan_network=wan_network,
            lan_network=gateway.lan_network,
            server_ip=server_ip,
            server_iface_index=server_iface.index,
            client_iface_index=client_iface_index,
        )

    def bring_up(self, timeout: float = 60.0) -> None:
        """DHCP-configure every gateway WAN and every client VLAN interface."""
        dhcp_cascade(self.client, self.ports.values())
        self.settle(self.ports, timeout, "testbed")

    # -- accessors ---------------------------------------------------------------

    def port(self, tag: str) -> GatewayPort:
        return self.ports[tag]

    def tags(self) -> List[str]:
        return list(self.ports)

    def client_iface(self, tag: str):
        return self.client.interfaces[self.ports[tag].client_iface_index]

    def client_ip(self, tag: str) -> IPv4Address:
        ip = self.client_iface(tag).ip
        if ip is None:
            raise RuntimeError(f"client interface for {tag} not configured")
        return ip

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Testbed {len(self.ports)} gateways at t={self.sim.now:.3f}>"
