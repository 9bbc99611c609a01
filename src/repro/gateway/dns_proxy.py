"""The gateway's DNS proxy.

Home gateways advertise themselves as the DNS server in their DHCP leases
and relay queries to the ISP's resolver (here: the testbed's DNS server,
learned from the WAN-side DHCP lease).  The paper's DNS test (§3.2.3/§4.3)
grades three behaviours, all configurable via
:class:`~repro.devices.profile.DnsProxyPolicy`:

* whether the proxy answers UDP queries at all,
* whether TCP port 53 accepts connections (14/34 devices),
* whether queries over TCP are actually answered (10/34), and over *which*
  upstream transport (``ap`` forwards TCP-received queries via UDP).
"""

from __future__ import annotations

from ipaddress import IPv4Address
from typing import Optional, TYPE_CHECKING

from repro.devices.profile import DnsProxyPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gateway.device import HomeGateway
    from repro.protocols.tcp import TcpConnection

DNS_PORT = 53
UPSTREAM_TIMEOUT = 5.0


class DnsProxyService:
    """UDP and (optionally) TCP DNS relay on the LAN side."""

    def __init__(self, gateway: "HomeGateway", policy: DnsProxyPolicy, lan_iface_index: int):
        self.gateway = gateway
        self.policy = policy
        self.udp_relayed = 0
        self.tcp_relayed = 0
        if policy.proxy_udp:
            self._udp = gateway.udp.bind(DNS_PORT, lan_iface_index)
            self._udp.on_receive = self._on_udp_query
        if policy.accepts_tcp:
            gateway.tcp.listen(DNS_PORT, on_accept=self._on_tcp_accept, iface_index=lan_iface_index)

    def _upstream(self) -> Optional[IPv4Address]:
        servers = self.gateway.wan_dns_servers
        return servers[0] if servers else None

    # -- UDP path -----------------------------------------------------------

    def _on_udp_query(self, payload: bytes, src_ip: IPv4Address, src_port: int) -> None:
        upstream = self._upstream()
        if upstream is None:
            return
        relay = self.gateway.udp.bind(0)
        timer = self.gateway.sim.timer(relay.close)

        def on_response(data: bytes, _ip: IPv4Address, _port: int) -> None:
            timer.cancel()
            relay.close()
            self.udp_relayed += 1
            self._udp.send_to(data, src_ip, src_port)

        relay.on_receive = on_response
        relay.send_to(payload, upstream, DNS_PORT)
        timer.start(UPSTREAM_TIMEOUT)

    # -- TCP path -------------------------------------------------------------

    def _on_tcp_accept(self, conn: "TcpConnection") -> None:
        if not self.policy.responds_tcp:
            # The device accepts the connection and then ignores the query
            # (the paper found 14 accepting but only 10 answering).
            return
        buffer = bytearray()

        def on_data(data: bytes) -> None:
            nonlocal buffer
            buffer += data
            while len(buffer) >= 2:
                length = int.from_bytes(buffer[0:2], "big")
                if len(buffer) < 2 + length:
                    return
                raw_query = bytes(buffer[2 : 2 + length])
                del buffer[: 2 + length]
                self._relay_tcp_query(conn, raw_query)

        conn.on_data = on_data

    def _relay_tcp_query(self, client_conn: "TcpConnection", raw_query: bytes) -> None:
        upstream = self._upstream()
        if upstream is None:
            return
        if self.policy.forwards_tcp_as == "udp":
            self._relay_tcp_query_via_udp(client_conn, raw_query, upstream)
        else:
            self._relay_tcp_query_via_tcp(client_conn, raw_query, upstream)

    def _relay_tcp_query_via_udp(self, client_conn: "TcpConnection", raw_query: bytes, upstream: IPv4Address) -> None:
        relay = self.gateway.udp.bind(0)
        timer = self.gateway.sim.timer(relay.close)

        def on_response(data: bytes, _ip: IPv4Address, _port: int) -> None:
            timer.cancel()
            relay.close()
            self.tcp_relayed += 1
            if client_conn.state in ("ESTABLISHED", "CLOSE_WAIT"):
                client_conn.send(len(data).to_bytes(2, "big") + data)

        relay.on_receive = on_response
        relay.send_to(raw_query, upstream, DNS_PORT)
        timer.start(UPSTREAM_TIMEOUT)

    def _relay_tcp_query_via_tcp(self, client_conn: "TcpConnection", raw_query: bytes, upstream: IPv4Address) -> None:
        upstream_conn = self.gateway.tcp.connect(upstream, DNS_PORT)
        response = bytearray()

        def on_established(conn: "TcpConnection") -> None:
            conn.send(len(raw_query).to_bytes(2, "big") + raw_query)

        def on_data(data: bytes) -> None:
            nonlocal response
            response += data
            if len(response) >= 2:
                length = int.from_bytes(response[0:2], "big")
                if len(response) >= 2 + length:
                    self.tcp_relayed += 1
                    if client_conn.state in ("ESTABLISHED", "CLOSE_WAIT"):
                        client_conn.send(bytes(response[: 2 + length]))
                    upstream_conn.close()

        upstream_conn.on_established = on_established
        upstream_conn.on_data = on_data
