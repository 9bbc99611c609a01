"""The experimental testbed of Figure 1, in software.

:class:`Testbed` wires a test server, two VLAN switches, N home gateways and
a test client exactly like the paper: each gateway's WAN port lives on VLAN
``1000+n`` (subnet ``10.0.n.0/24``) against a per-VLAN DHCP service on the
test server, and its LAN port on VLAN ``2000+n`` (subnet ``192.168.n.0/24``)
against a per-VLAN DHCP client on the test client.  That per-VLAN unit is
built once, in :mod:`repro.testbed.wiring`, for this testbed and for the
NAT444, traversal-pair and metro beds alike.  A management channel — the
paper's ``testrund`` daemons — coordinates measurements out of band.
"""

from repro.testbed.testbed import GatewayPort, Testbed
from repro.testbed.testrund import ManagementChannel, Testrund

__all__ = ["Testbed", "GatewayPort", "ManagementChannel", "Testrund"]
