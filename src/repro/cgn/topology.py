"""NAT444 topology: home gateways stacked behind carrier-grade NATs.

One :class:`Nat444Topology` builds, per device profile, an isolated NAT444
*segment*: ``subscribers`` home gateways of that model, each with its own
client LAN, all drawing their WAN addresses from the RFC 6598 shared
address space (``100.64.0.0/10``) served by one :class:`CgnNode`, which in
turn NATs the whole population onto a public /24 in front of the test
server.  The segment is the double-NAT analogue of the Figure-1 testbed's
per-device VLAN: traffic crosses

    client ─ LAN ─ home gateway ─ access network ─ CGN ─ WAN ─ server

and every flow is translated twice, with independent policy at each tier.

The segment is built from the shared Figure-1 wiring
(:mod:`repro.testbed.wiring`): links append to ``self.links`` in a
deterministic order (their ordinal seeds per-link impairment RNGs),
bring-up is the staged DHCP cascade (CGN WAN first, then every home WAN,
then every client), and chaos — link impairment, gateway crash faults —
installs through the same two methods the survey engine already calls.
"""

from __future__ import annotations

from ipaddress import IPv4Address
from typing import Dict, List, Optional, Sequence

from repro.devices.cgn_profiles import CgnPolicy
from repro.devices.profile import DeviceProfile
from repro.netsim.sim import Simulation
from repro.testbed.wiring import (
    ACCESS_POOL_HOMES,
    CgnSegment,
    HomeSlot,
    Wiring,
    dhcp_cascade,
    first_host,
    simulation,
    slash24,
)

__all__ = ["HomeSlot", "CgnSegment", "Nat444Topology"]

#: Segments are numbered into ``100.(64+n).0.0/24`` access networks, so the
#: RFC 6598 /10 bounds the population of CGNs in one simulation.
MAX_SEGMENTS = 63
#: Home LANs are numbered into ``192.168.k.0/24``.
MAX_HOMES = 254


class Nat444Topology(Wiring):
    """The assembled NAT444 population testbed.

    Segment ``n`` faces the server on VLAN ``1000+n`` (``10.100.n.0/24``)
    and its homes on VLAN ``2000+n`` (``100.(64+n).0.0/24``); the CGN
    answers crash faults as ``cgn-<tag>``, the homes as ``<tag>``.
    """

    __test__ = False  # not a pytest class, despite the name

    def __init__(
        self,
        sim: Simulation,
        profiles: Sequence[DeviceProfile],
        subscribers: int = 8,
        cgn_policy: Optional[CgnPolicy] = None,
    ):
        if subscribers < 1:
            raise ValueError("a NAT444 segment needs at least one subscriber")
        if len(profiles) > MAX_SEGMENTS:
            raise ValueError(f"at most {MAX_SEGMENTS} NAT444 segments per simulation")
        if len(profiles) * subscribers > MAX_HOMES:
            raise ValueError(
                f"{len(profiles)} segments x {subscribers} subscribers exceeds "
                f"the {MAX_HOMES}-home address plan"
            )
        if subscribers > ACCESS_POOL_HOMES:
            raise ValueError(
                f"a NAT444 segment's /24 access pool leases at most {ACCESS_POOL_HOMES} homes, got {subscribers}"
            )
        super().__init__(sim)
        self.subscribers = subscribers
        self.cgn_policy = cgn_policy if cgn_policy is not None else CgnPolicy()
        self.figure1(access_switch=True)
        self.segments: Dict[str, CgnSegment] = {}
        for number, profile in enumerate(profiles, start=1):
            self._add_segment(number, profile)

    @classmethod
    def build(
        cls,
        profiles: Sequence[DeviceProfile],
        seed: int = 0,
        subscribers: int = 8,
        cgn_policy: Optional[CgnPolicy] = None,
        fastpath: bool = True,
    ) -> "Nat444Topology":
        """Construct the population and DHCP the whole chain up."""
        bed = cls(simulation(seed, fastpath), profiles, subscribers=subscribers, cgn_policy=cgn_policy)
        bed.bring_up()
        return bed

    def _add_segment(self, number: int, profile: DeviceProfile) -> None:
        """Segment ``n``: server face and CGN on VLAN ``1000+n``, homes on ``2000+n``."""
        if profile.tag in self.segments:
            raise ValueError(f"duplicate device tag {profile.tag!r}")
        wan_network = slash24(10, 100, number)
        access_network = slash24(100, 64 + number, 0)
        server_ip = first_host(wan_network)
        name = f"cgn-{profile.tag}"
        uplink = (self.wan_switch, 1000 + number)
        server_iface = self.server_face(number, wan_network, server_ip, uplink, name)
        cgn = self.cgn(
            name, self.cgn_policy, self.macs, access_network, name,
            access=(self.access_switch, 2000 + number), wan=uplink,
        )
        segment = CgnSegment(
            number, profile, cgn, wan_network, access_network, server_ip, server_iface.index
        )
        # Home LANs are numbered across segments: 192.168.k.0/24, VLAN 3000+k.
        self.subscriber_homes(
            segment, self.subscribers, self.macs, self.access_switch, self.lan_switch, self.client,
            first_lan=(number - 1) * self.subscribers + 1, prefix=profile.tag,
        )
        self.segments[profile.tag] = segment

    def bring_up(self, timeout: float = 120.0) -> None:
        """Run the staged DHCP cascade until every client is configured.

        Each CGN leases its WAN address from the server first; its readiness
        starts the segment's home gateways, whose WANs lease from the CGN;
        each home's readiness starts its client's DHCP.  One virtual-time
        loop drives all segments concurrently.
        """
        homes: Dict[str, HomeSlot] = {}
        for segment in self.segments.values():
            dhcp_cascade(self.client, segment.homes, segment.cgn)
            homes.update((f"{segment.tag}.{home.index}", home) for home in segment.homes)
        self.settle(homes, timeout, "NAT444")

    # -- accessors -----------------------------------------------------------

    def segment(self, tag: str) -> CgnSegment:
        return self.segments[tag]

    def tags(self) -> List[str]:
        return list(self.segments)

    def client_iface(self, tag: str, subscriber: int = 1):
        """The client-side interface of home ``subscriber`` (1-based)."""
        home = self.segments[tag].homes[subscriber - 1]
        return self.client.interfaces[home.client_iface_index]

    def client_ip(self, tag: str, subscriber: int = 1) -> IPv4Address:
        ip = self.client_iface(tag, subscriber).ip
        if ip is None:
            raise RuntimeError(f"client interface for {tag}.{subscriber} not configured")
        return ip

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Nat444Topology {len(self.segments)} segments x "
            f"{self.subscribers} homes at t={self.sim.now:.3f}>"
        )
