"""The Figure-1 wiring unit that every testbed is assembled from.

Every measurement in the paper runs on one unit of wiring (Figure 1): a
VLAN interface on the test server with its DHCP service and DNS record, a
home gateway between a WAN and a LAN switch port, and a test-client
interface on that LAN, all brought up by DHCP before any probe.  The NAT444
tier puts a carrier-grade NAT between the server face and the home WANs —
the CGN segment Richter et al. (PAPERS.md) treat as the unit of deployment —
and the traversal matrix hangs two units off one server.

:class:`Wiring` builds that unit, once.  The testbeds are *address plans*
over it: :class:`~repro.testbed.testbed.Testbed`,
:class:`~repro.cgn.topology.Nat444Topology`,
:class:`~repro.traversal.matrix.PairTopology` and
:class:`~repro.cgn.metro.MetroTopology` choose subnets, VLAN ids,
names and link labels, and call the builders below in a fixed order.  That
order is part of every measurement:

* each link's ordinal in :attr:`Wiring.links` seeds its impairment RNG
  (:func:`~repro.netsim.impair.impair_seed`);
* MACs are drawn from an allocator in construction order;
* the order of the DHCP ``start()`` calls fixes the scheduler sequence
  numbers that break same-instant ties; and
* crash faults are scheduled over the gateways in the order they were built.

``tests/test_bed_layout.py`` pins links, MACs, VLANs and bring-up counters
for every bed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from ipaddress import IPv4Address, IPv4Network
from typing import TYPE_CHECKING, Any, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.devices.profile import DeviceProfile
from repro.gateway.device import HomeGateway
from repro.gateway.faults import FaultSpec
from repro.netsim.addresses import mac_allocator
from repro.netsim.impair import Impairment, impair_seed
from repro.netsim.link import Link
from repro.netsim.node import Interface
from repro.netsim.sim import Simulation
from repro.netsim.switch import VlanSwitch
from repro.protocols.dhcp import DhcpClientService, DhcpServerService
from repro.protocols.dns import DnsAuthoritativeServer
from repro.protocols.stack import Host

if TYPE_CHECKING:  # pragma: no cover - types only: repro.cgn imports this module
    from repro.cgn.node import CgnNode
    from repro.devices.cgn_profiles import CgnPolicy

LINK_RATE_BPS = 100e6  # the testbed's 100 Mb/s Ethernet
LINK_DELAY = 25e-6

#: Default zone served by the testbed's DNS server (the paper's hiit.fi).
DEFAULT_ZONE_NAME = "test.hiit.fi"
#: The canonical answer for the default name (TEST-NET-1 documentation space).
DEFAULT_ZONE_ANSWER = IPv4Address("192.0.2.80")

#: Homes one CGN's /24 access pool can lease: every address but the
#: network, the broadcast and the CGN's own.
ACCESS_POOL_HOMES = 253

#: A switch access port still to be created: ``(switch, vlan)``.
VlanPort = Tuple[VlanSwitch, int]


def slash24(a: int, b: int, c: int) -> IPv4Network:
    """The network ``a.b.c.0/24``, built from ints: an address plan runs
    once per bed, and a dotted string would be parsed every time."""
    if not (0 <= a <= 255 and 0 <= b <= 255 and 0 <= c <= 255):
        raise ValueError(f"no /24 network at {a}.{b}.{c}.0")
    return IPv4Network(((a << 24) | (b << 16) | (c << 8), 24))


def first_host(network: IPv4Network) -> IPv4Address:
    """The network's ``.1``: where every plan puts its server or gateway."""
    return IPv4Address(int(network.network_address) + 1)


def simulation(seed: int, fastpath: bool) -> Simulation:
    """A fresh simulation pinned to one engine for its whole run.

    ``fastpath=False`` runs everything, bring-up included, on the staged
    event engine (the eager kernels' property-test oracle).
    """
    sim = Simulation(seed=seed)
    sim.fastpath = fastpath
    return sim


@dataclass
class HomeSlot:
    """One subscriber home: a gateway, its LAN, and its client interface."""

    index: int
    gateway: HomeGateway
    lan_network: IPv4Network
    client_iface_index: int
    client_dhcp: Optional[DhcpClientService] = None


@dataclass
class CgnSegment:
    """Everything behind (and in front of) one carrier-grade NAT.

    Metro segments also set ``client`` (their own client host) and ``load``.
    """

    index: int
    profile: DeviceProfile
    cgn: CgnNode
    wan_network: IPv4Network
    access_network: IPv4Network
    server_ip: IPv4Address
    server_iface_index: int
    homes: List[HomeSlot] = field(default_factory=list)
    client: Optional[Host] = None
    load: Optional[Any] = None

    @property
    def tag(self) -> str:
        return self.profile.tag


def dhcp_cascade(client: Host, homes: Iterable, cgn: Optional[CgnNode] = None) -> None:
    """Start one unit's DHCP: CGN WAN first, then every home WAN, then every client.

    ``homes`` are records with ``gateway`` and ``client_iface_index``; each
    gets its ``client_dhcp`` once its gateway's WAN holds a lease.  Nothing
    is stepped here: the stepping beds follow this with
    :meth:`Wiring.settle`, metro schedules it at t=0.
    """

    def start_homes(_cgn: Optional[HomeGateway] = None) -> None:
        for home in homes:

            def home_ready(_gateway: HomeGateway, home=home) -> None:
                home.client_dhcp = DhcpClientService(client, home.client_iface_index)
                home.client_dhcp.start()

            home.gateway.start(on_ready=home_ready)

    if cgn is None:
        start_homes()
    else:
        cgn.start(on_ready=start_homes)


class Wiring:
    """The shared builders and chaos hooks of every testbed (see module doc).

    Satisfies the structural contract the survey engine expects of a bed —
    ``sim``, ``links``, ``apply_impairment``, ``schedule_faults`` — so every
    bed plugs into shards, observers, watchdogs and chaos unchanged.
    """

    #: The test server's authoritative DNS zone (``None``: no DNS records).
    dns_zone: Optional[DnsAuthoritativeServer] = None

    def __init__(self, sim: Simulation):
        self.sim = sim
        #: Every link in construction order; the ordinal seeds per-link
        #: impairment RNGs, so it must be deterministic.
        self.links: List[Link] = []
        #: Home gateways and CGNs in construction order, the order crash
        #: faults are scheduled in.
        self.gateways: List[HomeGateway] = []

    # -- construction -----------------------------------------------------

    def figure1(self, access_switch: bool = False) -> None:
        """The test server with its DNS zone, the test client and the switches.

        §4.4: some devices share one MAC between WAN and LAN ports, which
        forces physically separate switches — so the WAN and LAN sides get
        one each.  NAT444 beds add an access switch between CGNs and homes.
        """
        self.macs = mac_allocator()
        self.server = Host(self.sim, "test-server", self.macs)
        self.client = Host(self.sim, "test-client", self.macs)
        self.wan_switch = VlanSwitch(self.sim, "wan-switch", self.macs)
        if access_switch:
            self.access_switch = VlanSwitch(self.sim, "access-switch", self.macs)
        self.lan_switch = VlanSwitch(self.sim, "lan-switch", self.macs)
        self.dns_zone = DnsAuthoritativeServer(self.server, {DEFAULT_ZONE_NAME: DEFAULT_ZONE_ANSWER})

    def link(
        self, label: str, iface_a: Interface, iface_b: Interface,
        rate_bps: float = LINK_RATE_BPS, delay: float = LINK_DELAY,
    ) -> Link:
        """Cable two interfaces; the link takes the next ordinal in :attr:`links`."""
        link = Link(self.sim, rate_bps, delay)
        link.label = label
        self.links.append(link)
        return link.attach(iface_a, iface_b)

    def server_face(
        self, number: int, wan_network: IPv4Network, server_ip: IPv4Address,
        uplink: Optional[VlanPort] = None, prefix: str = "",
    ) -> Interface:
        """One VLAN interface on the server: cabled (``<prefix>:srv``), DHCP, DNS record."""
        iface = self.server.new_interface()
        iface.configure(server_ip, wan_network)
        if uplink is not None:
            switch, vlan = uplink
            self.link(f"{prefix}:srv", iface, switch.new_port(vlan))
        DhcpServerService(
            self.server, iface.index, wan_network, server_ip,
            router=server_ip, dns_servers=[server_ip], first_offset=2,
        )
        if self.dns_zone is not None:
            self.dns_zone.add_record(f"vlan{number}.{DEFAULT_ZONE_NAME}", server_ip)
        return iface

    def gateway(
        self, profile: DeviceProfile, macs: Any, lan_network: IPv4Network, name: Optional[str] = None
    ) -> HomeGateway:
        """A home gateway of ``profile`` serving ``lan_network``."""
        gateway = HomeGateway(self.sim, profile, macs, lan_network=lan_network, name=name)
        self.gateways.append(gateway)
        return gateway

    def cgn(
        self, prefix: str, policy: CgnPolicy, macs: Any, access_network: IPv4Network, tag: str,
        access: VlanPort, wan: Optional[VlanPort] = None, roles: Tuple[str, str] = ("wan", "acc"),
    ) -> CgnNode:
        """A carrier-grade NAT cabled to ``wan`` (if given), then to ``access``.

        The links are labelled ``<prefix>:<role>`` with ``roles`` = (WAN
        role, access role).
        """
        from repro.cgn.node import CgnNode  # repro.cgn imports this module

        cgn = CgnNode(self.sim, policy, macs, access_network, tag=tag)
        self.gateways.append(cgn)
        if wan is not None:
            switch, vlan = wan
            self.link(f"{prefix}:{roles[0]}", cgn.wan_iface, switch.new_port(vlan))
        switch, vlan = access
        self.link(f"{prefix}:{roles[1]}", cgn.lan_iface, switch.new_port(vlan))
        return cgn

    def home(self, prefix: str, gateway: HomeGateway, uplink: VlanPort, lan: VlanPort, client: Host) -> int:
        """Cable one home: WAN to ``uplink``; LAN and a new ``client`` interface to ``lan``.

        Links are ``<prefix>:wan``, ``<prefix>:lan`` and ``<prefix>:cli``.
        Returns the client interface's index; its DHCP runs in the cascade.
        """
        uplink_switch, uplink_vlan = uplink
        lan_switch, lan_vlan = lan
        self.link(f"{prefix}:wan", gateway.wan_iface, uplink_switch.new_port(uplink_vlan))
        self.link(f"{prefix}:lan", gateway.lan_iface, lan_switch.new_port(lan_vlan))
        client_iface = client.new_interface()
        self.link(f"{prefix}:cli", client_iface, lan_switch.new_port(lan_vlan))
        return client_iface.index

    def subscriber_homes(
        self, segment: CgnSegment, count: int, macs: Any, access: VlanSwitch, lan: VlanSwitch,
        client: Host, first_lan: int, prefix: str,
    ) -> None:
        """Put ``count`` homes of the segment's model behind its CGN.

        Home ``slot`` (1-based) serves ``192.168.<first_lan+slot-1>.0/24``
        and is labelled ``<prefix>.<slot>``.
        """
        profile, index = segment.profile, segment.index
        for slot in range(1, count + 1):
            k = first_lan + slot - 1
            lan_network = slash24(192, 168, k)
            gateway = self.gateway(profile, macs, lan_network, name=f"gw-{profile.tag}-{index}.{slot}")
            client_iface_index = self.home(f"{prefix}.{slot}", gateway, (access, 2000 + index), (lan, 3000 + k), client)
            segment.homes.append(HomeSlot(slot, gateway, gateway.lan_network, client_iface_index))

    # -- bring-up ---------------------------------------------------------

    def settle(self, homes: Mapping[str, Any], timeout: float, what: str) -> None:
        """Step the clock until every home's client holds a lease.

        The check runs before each event, so bring-up returns right after
        the event that configured the last client.  Raises naming every
        home (by its key in ``homes``) still unconfigured at ``timeout``.
        """
        sim = self.sim
        # Reversed, so the next home to wait for is at the end: a configured
        # one is popped once rather than rechecked before every event.
        pending = list(homes.values())[::-1]
        deadline = sim.now + timeout
        while sim.now < deadline:
            while pending and pending[-1].client_dhcp is not None and pending[-1].client_dhcp.configured:
                pending.pop()
            if not pending or not sim.step():
                break
        not_up = [name for name, home in homes.items() if home.client_dhcp is None or not home.client_dhcp.configured]
        if not_up:
            raise RuntimeError(f"{what} bring-up failed for: {not_up}")

    # -- chaos ------------------------------------------------------------

    def apply_impairment(self, impairment: Impairment) -> None:
        """Install ``impairment`` on every link, each with its own RNG.

        Per-link seeds derive from the simulation seed and the link's
        construction ordinal (:func:`~repro.netsim.impair.impair_seed`), so
        the perturbation a device suffers is a pure function of the
        campaign seed — identical under any ``jobs`` and any device subset.
        Call after bring-up: DHCP configuration stays clean and any flap
        window is anchored at measurement start.
        """
        for ordinal, link in enumerate(self.links):
            link.impair(impairment, rng=random.Random(impair_seed(self.sim.seed, ordinal)))

    def schedule_faults(self, faults: Sequence[FaultSpec]) -> None:
        """Schedule every applicable fault against the gateways, by tag.

        Home gateways answer to their device tag, CGNs to their own tag
        (``cgn-<tag>`` in NAT444 beds).
        """
        for fault in faults:
            for gateway in self.gateways:
                if fault.applies_to(gateway.tag):
                    gateway.schedule_crash(fault.at, fault.boot)
