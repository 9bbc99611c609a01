"""VLAN-aware learning Ethernet switch.

The testbed of the paper (Figure 1) isolates every home gateway on its own
pair of VLANs using HP-2524 switches: VLAN ``1000+n`` carries gateway *n*'s
WAN traffic, VLAN ``2000+n`` its LAN traffic.  :class:`VlanSwitch` models an
access-port switch — each port belongs to exactly one VLAN, MAC learning and
flooding are confined to a VLAN — which is all the study needs.

A noteworthy detail from §4.4: some gateways use the *same* MAC address on
their WAN and LAN ports, which forced the authors to use physically separate
switches for the two sides.  The same failure reproduces here if both sides
share one switch: the MAC table flip-flops between ports.  The testbed
therefore builds two switches, as the paper did.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.netsim.node import Interface, Node
from repro.netsim.sim import Simulation


class VlanSwitch(Node):
    """A learning switch with per-port access VLANs."""

    def __init__(self, sim: Simulation, name: str, mac_pool: Any):
        super().__init__(sim, name)
        self._mac_pool = mac_pool
        self._port_vlan: Dict[int, int] = {}
        # (vlan, int(mac)) -> port index.  Int keys: MacAddress.__hash__ is a
        # Python-level call, and this table is probed twice per frame.
        self._mac_table: Dict[Tuple[int, int], int] = {}
        self.frames_switched = 0
        self.frames_flooded = 0

    def new_port(self, vlan: int) -> Interface:
        """Add an access port on ``vlan`` and return its interface."""
        if vlan <= 0:
            raise ValueError(f"VLAN id must be positive, got {vlan}")
        iface = self.add_interface(next(self._mac_pool))
        self._port_vlan[iface.index] = vlan
        return iface

    def vlan_of(self, iface: Interface) -> int:
        return self._port_vlan[iface.index]

    def receive_frame(self, iface: Interface, frame: Any) -> None:
        vlan = self._port_vlan[iface.index]
        self._mac_table[(vlan, frame.src._value)] = iface.index
        dst = frame.dst._value
        if dst == 0xFFFFFFFFFFFF or (dst >> 40) & 1:  # broadcast/multicast
            self._flood(vlan, iface.index, frame)
            return
        out_port = self._mac_table.get((vlan, dst))
        if out_port is None:
            self._flood(vlan, iface.index, frame)
            return
        if out_port == iface.index:
            return  # destination is back where it came from; drop
        self.frames_switched += 1
        self.interfaces[out_port].transmit(frame)

    def _flood(self, vlan: int, ingress_port: int, frame: Any) -> None:
        self.frames_flooded += 1
        for iface in self.interfaces:
            if iface.index == ingress_port:
                continue
            if self._port_vlan.get(iface.index) != vlan:
                continue
            iface.transmit(frame)

    def forget(self) -> None:
        """Flush the MAC table (e.g. after re-cabling)."""
        self._mac_table.clear()
