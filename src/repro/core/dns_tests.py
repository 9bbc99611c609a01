"""DNS proxy tests (§3.2.3/§4.3: the "DNS over TCP/UDP" columns).

The client queries each gateway's DNS proxy — the address its DHCP lease
advertised — with `dig`-equivalent queries over UDP and over TCP.  Three
facts are recorded per device:

* answers over UDP (baseline; every proxy of the study did),
* accepts TCP connections on port 53 (14/34),
* answers the query over TCP (10/34),

plus, from the *server's* perspective, which upstream transport carried a
TCP-received query (``ap`` forwards them over UDP; the others use TCP).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional

from repro.core import registry
from repro.core.runtime import Future, SimTask, run_tasks
from repro.protocols.dns import DnsStubResolver
from repro.testbed.testbed import DEFAULT_ZONE_NAME, Testbed

QUERY_TIMEOUT = 6.0


@dataclass
class DnsProxyResult:
    """One device's DNS proxy verdict."""

    tag: str
    answers_udp: bool = False
    accepts_tcp: bool = False
    answers_tcp: bool = False
    #: "udp", "tcp", or None when no TCP query reached the upstream server.
    upstream_transport_for_tcp: Optional[str] = None


class DnsProxyTest:
    """Queries every gateway's proxy over UDP and TCP."""

    def __init__(self, name: str = DEFAULT_ZONE_NAME):
        self.name = name

    def run_all(self, bed: Testbed) -> Dict[str, DnsProxyResult]:
        """Probe every device's DNS proxy over UDP and TCP."""
        tags = bed.tags()
        results = {tag: DnsProxyResult(tag) for tag in tags}
        resolver = DnsStubResolver(bed.client)
        # Serial on purpose: the upstream-transport attribution compares the
        # zone server's per-transport query counters around each device's
        # query, which must not interleave.
        for tag in tags:
            task = SimTask(bed.sim, self._device_task(bed, tag, resolver, results[tag]), name=f"dns:{tag}")
            run_tasks(bed.sim, [task])
        return results

    def _device_task(self, bed: Testbed, tag: str, resolver: DnsStubResolver, result: DnsProxyResult) -> Generator:
        port = bed.port(tag)
        proxy_ip = port.gateway.lan_ip

        # -- UDP query ----------------------------------------------------
        answered = Future(timeout=QUERY_TIMEOUT + 1.0)
        resolver.query_udp(
            proxy_ip, self.name, answered.set_result,
            timeout=QUERY_TIMEOUT, iface_index=port.client_iface_index,
        )
        response = yield answered
        result.answers_udp = response is not None and bool(response.answers)

        # -- TCP query, watching which transport reaches the upstream ------
        before_udp = bed.dns_zone.udp_queries
        before_tcp = bed.dns_zone.tcp_queries

        # Track whether the TCP handshake itself succeeded (separately from
        # whether a DNS answer came back).
        connected = Future(timeout=QUERY_TIMEOUT)
        original_connect = bed.client.tcp.connect

        def tracking_connect(*args, **kwargs):
            conn = original_connect(*args, **kwargs)
            inner = conn.on_established

            def on_established(c) -> None:
                connected.set_result(True)
                if inner is not None:
                    inner(c)

            # The resolver assigns on_established after connect returns, so
            # defer the wrap one event.
            def arm() -> None:
                user_cb = conn.on_established

                def wrapped(c) -> None:
                    connected.set_result(True)
                    if user_cb is not None:
                        user_cb(c)

                conn.on_established = wrapped

            bed.sim.schedule(0.0, arm)
            return conn

        bed.client.tcp.connect = tracking_connect  # type: ignore[method-assign]
        answered_tcp = Future(timeout=QUERY_TIMEOUT + 2.0)
        try:
            resolver.query_tcp(
                proxy_ip, self.name, answered_tcp.set_result,
                timeout=QUERY_TIMEOUT, iface_index=port.client_iface_index,
            )
        finally:
            bed.client.tcp.connect = original_connect  # type: ignore[method-assign]
        result.accepts_tcp = bool((yield connected))
        response_tcp = yield answered_tcp
        result.answers_tcp = response_tcp is not None and bool(response_tcp.answers)
        if result.answers_tcp:
            if bed.dns_zone.tcp_queries > before_tcp:
                result.upstream_transport_for_tcp = "tcp"
            elif bed.dns_zone.udp_queries > before_udp:
                result.upstream_transport_for_tcp = "udp"
        yield 1.0  # settle before the next device reuses the zone counters


# ---------------------------------------------------------------------------
# Registry: family descriptor.
# ---------------------------------------------------------------------------


registry.register_family(registry.ExperimentFamily(
    name="dns",
    order=100,
    cell_type=DnsProxyResult,
    probe_factory=lambda knobs: DnsProxyTest().run_all,
    view=registry.row_view(lambda result: (
        f"udp:{result.answers_udp}  accepts-tcp:{result.accepts_tcp}  "
        f"answers-tcp:{result.answers_tcp}  upstream:{result.upstream_transport_for_tcp}"
    )),
))
