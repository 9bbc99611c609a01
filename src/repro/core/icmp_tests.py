"""ICMP translation tests (§3.2.3, the ICMP columns of Table 2).

Methodology, exactly as the paper describes: create a flow through the NAT,
*hijack* the translated packet on the server side, forge an ICMP error of
the desired type that embeds it, send the error back at the NAT's WAN
address, and inspect what (if anything) comes out of the LAN side.

Graded observables, per (transport × error kind):

* ``forwarded`` — did a matching ICMP error reach the internal host?
  (This is what the Table 2 bullets mean.)
* ``transport_rewritten`` — was the embedded transport header translated
  back to the internal port?  (16 of 34 devices fail this across the board.)
* ``embedded_checksum_ok`` — is the embedded IP header checksum valid after
  translation?  (zy1 and ls1 fail this.)
* ``as_tcp_rst`` — did the device convert the error into a TCP RST (ls2)?
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.core import registry
from repro.core.runtime import Future, SimTask, run_tasks
from repro.devices.profile import ICMP_KINDS
from repro.gateway.icmp_translation import classify_error
from repro.gateway.translation import clone_packet
from repro.packets.icmp import (
    ICMP_DEST_UNREACH,
    ICMP_PARAM_PROBLEM,
    ICMP_SOURCE_QUENCH,
    ICMP_TIME_EXCEEDED,
    UNREACH_FRAG_NEEDED,
    UNREACH_HOST,
    UNREACH_NET,
    UNREACH_PORT,
    UNREACH_PROTO,
    UNREACH_SRC_ROUTE_FAILED,
    TIME_EXCEEDED_REASSEMBLY,
    TIME_EXCEEDED_TTL,
    IcmpMessage,
)
from repro.packets.ipv4 import PROTO_ICMP, PROTO_TCP, PROTO_UDP, IPv4Packet
from repro.packets.tcp import TcpSegment
from repro.packets.udp import UdpDatagram
from repro.testbed.testbed import Testbed

ICMP_TEST_UDP_PORT = 34800
ICMP_TEST_TCP_PORT = 34801
OBSERVE_TIMEOUT = 3.0

#: kind name -> (icmp type, code)
KIND_CODES: Dict[str, Tuple[int, int]] = {
    "reass_time_exceeded": (ICMP_TIME_EXCEEDED, TIME_EXCEEDED_REASSEMBLY),
    "frag_needed": (ICMP_DEST_UNREACH, UNREACH_FRAG_NEEDED),
    "param_problem": (ICMP_PARAM_PROBLEM, 0),
    "src_route_failed": (ICMP_DEST_UNREACH, UNREACH_SRC_ROUTE_FAILED),
    "source_quench": (ICMP_SOURCE_QUENCH, 0),
    "ttl_exceeded": (ICMP_TIME_EXCEEDED, TIME_EXCEEDED_TTL),
    "host_unreach": (ICMP_DEST_UNREACH, UNREACH_HOST),
    "net_unreach": (ICMP_DEST_UNREACH, UNREACH_NET),
    "port_unreach": (ICMP_DEST_UNREACH, UNREACH_PORT),
    "proto_unreach": (ICMP_DEST_UNREACH, UNREACH_PROTO),
}

assert set(KIND_CODES) == set(ICMP_KINDS)


@dataclass
class IcmpObservation:
    """What the client saw for one forged error."""

    forwarded: bool = False
    transport_rewritten: bool = False
    embedded_checksum_ok: bool = False
    as_tcp_rst: bool = False


@dataclass
class IcmpTestResult:
    """Per-device outcome of the whole ICMP battery."""

    tag: str
    udp: Dict[str, IcmpObservation] = field(default_factory=dict)
    tcp: Dict[str, IcmpObservation] = field(default_factory=dict)
    icmp_host_unreach: Optional[IcmpObservation] = None

    def forwarded_kinds(self, transport: str) -> List[str]:
        """ICMP kinds the device forwarded (or converted) for a transport."""
        table = self.udp if transport == "udp" else self.tcp
        return [kind for kind, obs in table.items() if obs.forwarded or obs.as_tcp_rst]

    def translates_embedded_transport(self) -> bool:
        """Does the device rewrite embedded transport headers (when it
        forwards at all)?"""
        observations = [
            obs for obs in list(self.udp.values()) + list(self.tcp.values()) if obs.forwarded
        ]
        if not observations:
            return False
        return all(obs.transport_rewritten for obs in observations)

    def fixes_embedded_ip_checksum(self) -> bool:
        """Whether forwarded errors carry a corrected embedded IP checksum."""
        observations = [
            obs for obs in list(self.udp.values()) + list(self.tcp.values()) if obs.forwarded
        ]
        if not observations:
            return False
        return all(obs.embedded_checksum_ok for obs in observations)

    def tcp_errors_become_rsts(self) -> bool:
        """Whether the device converts TCP ICMP errors into RSTs (ls2's quirk)."""
        return any(obs.as_tcp_rst for obs in self.tcp.values())


class IcmpTranslationTest:
    """Runs the forged-error battery across the population."""

    def __init__(self, kinds: Optional[Sequence[str]] = None, test_icmp_flows: bool = True):
        self.kinds = list(kinds if kinds is not None else ICMP_KINDS)
        unknown = set(self.kinds) - set(ICMP_KINDS)
        if unknown:
            raise ValueError(f"unknown ICMP kinds: {sorted(unknown)}")
        self.test_icmp_flows = test_icmp_flows

    def run_all(self, bed: Testbed) -> Dict[str, IcmpTestResult]:
        """Forge the ICMP battery against every device."""
        tags = bed.tags()
        results = {tag: IcmpTestResult(tag) for tag in tags}
        # A server-side UDP sink so probe datagrams are uncontroversial.
        sink = bed.server.udp.bind(ICMP_TEST_UDP_PORT)
        sink.on_receive = lambda *_args: None
        bed.server.tcp.listen(ICMP_TEST_TCP_PORT)
        tasks = [
            SimTask(bed.sim, self._device_task(bed, tag, results[tag]), name=f"icmp:{tag}")
            for tag in tags
        ]
        run_tasks(bed.sim, tasks)
        sink.close()
        return results

    # -- per-device battery -------------------------------------------------

    def _device_task(self, bed: Testbed, tag: str, result: IcmpTestResult) -> Generator:
        for kind in self.kinds:
            observation = yield from self._test_udp_kind(bed, tag, kind)
            result.udp[kind] = observation
        for kind in self.kinds:
            observation = yield from self._test_tcp_kind(bed, tag, kind)
            result.tcp[kind] = observation
        if self.test_icmp_flows:
            result.icmp_host_unreach = yield from self._test_echo_flow(bed, tag)

    # -- hijack helpers ---------------------------------------------------------

    def _capture_at_server(self, bed: Testbed, match) -> Tuple[Future, object]:
        """Hijack the next matching packet arriving at the server."""
        captured = Future(timeout=OBSERVE_TIMEOUT)

        def intercept(packet: IPv4Packet, iface) -> bool:
            if match(packet):
                captured.set_result(clone_packet(packet))
                return True
            return False

        remove = bed.server.install_intercept(intercept)
        return captured, remove

    def _observe_at_client(self, bed: Testbed, tag: str, match) -> Tuple[Future, object]:
        observed = Future(timeout=OBSERVE_TIMEOUT)

        def observer(packet: IPv4Packet, iface) -> None:
            if iface.index == bed.port(tag).client_iface_index and match(packet) and not observed.done:
                observed.set_result(clone_packet(packet))

        remove = bed.client.observe_ip(observer)
        return observed, remove

    def _forge_and_send(self, bed: Testbed, tag: str, kind: str, hijacked: IPv4Packet) -> None:
        """Build the forged error and fire it at the gateway's WAN address."""
        icmp_type, code = KIND_CODES[kind]
        port = bed.port(tag)
        error = IcmpMessage.error(icmp_type, code, hijacked, mtu=576 if kind == "frag_needed" else 0)
        packet = IPv4Packet(port.server_ip, port.gateway.wan_ip, PROTO_ICMP, error)
        packet.fill_checksums()
        bed.server.send_ip(packet)

    # -- UDP battery -----------------------------------------------------------------

    def _test_udp_kind(self, bed: Testbed, tag: str, kind: str) -> Generator:
        port = bed.port(tag)
        client_socket = bed.client.udp.bind(0, port.client_iface_index)
        local_port = client_socket.port

        def is_probe(packet: IPv4Packet) -> bool:
            return (
                packet.protocol == PROTO_UDP
                and isinstance(packet.payload, UdpDatagram)
                and packet.payload.dst_port == ICMP_TEST_UDP_PORT
                and packet.src == port.gateway.wan_ip
            )

        captured, remove_capture = self._capture_at_server(bed, is_probe)
        client_socket.send_to(b"icmp-probe", port.server_ip, ICMP_TEST_UDP_PORT)
        hijacked = yield captured
        remove_capture()
        if hijacked is None:
            client_socket.close()
            return IcmpObservation()  # flow never crossed: nothing to grade

        def is_our_error(packet: IPv4Packet) -> bool:
            if packet.protocol != PROTO_ICMP or not isinstance(packet.payload, IcmpMessage):
                return False
            message = packet.payload
            if not message.is_error or message.embedded is None:
                return False
            return classify_error(message) == kind and message.embedded.protocol == PROTO_UDP

        observed, remove_observe = self._observe_at_client(bed, tag, is_our_error)
        self._forge_and_send(bed, tag, kind, hijacked)
        arrival = yield observed
        remove_observe()
        client_socket.close()
        return self._grade(arrival, local_port)

    # -- TCP battery -----------------------------------------------------------------

    def _test_tcp_kind(self, bed: Testbed, tag: str, kind: str) -> Generator:
        port = bed.port(tag)
        established = Future(timeout=10.0)
        conn = bed.client.tcp.connect(port.server_ip, ICMP_TEST_TCP_PORT, iface_index=port.client_iface_index)
        conn.on_established = established.set_result
        ok = yield established
        if not ok:
            conn.abort()
            return IcmpObservation()
        local_port = conn.local_port

        def is_probe(packet: IPv4Packet) -> bool:
            return (
                packet.protocol == PROTO_TCP
                and isinstance(packet.payload, TcpSegment)
                and packet.payload.dst_port == ICMP_TEST_TCP_PORT
                and packet.src == port.gateway.wan_ip
                and bool(packet.payload.payload)
            )

        captured, remove_capture = self._capture_at_server(bed, is_probe)
        conn.send(b"icmp-probe")
        hijacked = yield captured
        remove_capture()
        if hijacked is None:
            conn.abort()
            return IcmpObservation()

        def is_our_error(packet: IPv4Packet) -> bool:
            if packet.protocol == PROTO_TCP and isinstance(packet.payload, TcpSegment):
                segment = packet.payload
                return segment.rst and segment.dst_port == local_port
            if packet.protocol != PROTO_ICMP or not isinstance(packet.payload, IcmpMessage):
                return False
            message = packet.payload
            if not message.is_error or message.embedded is None:
                return False
            return classify_error(message) == kind and message.embedded.protocol == PROTO_TCP

        observed, remove_observe = self._observe_at_client(bed, tag, is_our_error)
        self._forge_and_send(bed, tag, kind, hijacked)
        arrival = yield observed
        remove_observe()
        conn.abort()
        return self._grade(arrival, local_port)

    # -- ICMP echo flow ("ICMP: Host Unreach." column) -----------------------------------

    def _test_echo_flow(self, bed: Testbed, tag: str) -> Generator:
        port = bed.port(tag)
        ident = 0x4242

        def is_echo(packet: IPv4Packet) -> bool:
            return (
                packet.protocol == PROTO_ICMP
                and isinstance(packet.payload, IcmpMessage)
                and packet.payload.icmp_type == 8
                and packet.src == port.gateway.wan_ip
            )

        captured, remove_capture = self._capture_at_server(bed, is_echo)
        request = IcmpMessage.echo_request(ident, 1, b"ping")
        probe = IPv4Packet(bed.client_ip(tag), port.server_ip, PROTO_ICMP, request)
        probe.fill_checksums()
        bed.client.send_ip_routed(probe, port.client_iface_index)
        hijacked = yield captured
        remove_capture()
        if hijacked is None:
            return IcmpObservation()

        def is_our_error(packet: IPv4Packet) -> bool:
            if packet.protocol != PROTO_ICMP or not isinstance(packet.payload, IcmpMessage):
                return False
            message = packet.payload
            return (
                message.is_error
                and message.embedded is not None
                and message.embedded.protocol == PROTO_ICMP
            )

        observed, remove_observe = self._observe_at_client(bed, tag, is_our_error)
        self._forge_and_send(bed, tag, "host_unreach", hijacked)
        arrival = yield observed
        remove_observe()
        observation = IcmpObservation()
        if arrival is not None:
            observation.forwarded = True
            inner = arrival.payload.embedded
            observation.embedded_checksum_ok = inner.header_checksum_ok()
            observation.transport_rewritten = (
                isinstance(inner.payload, IcmpMessage) and inner.payload.echo_ident == ident
            )
        return observation

    # -- grading ------------------------------------------------------------------------------

    @staticmethod
    def _grade(arrival: Optional[IPv4Packet], local_port: int) -> IcmpObservation:
        observation = IcmpObservation()
        if arrival is None:
            return observation
        if isinstance(arrival.payload, TcpSegment):
            observation.as_tcp_rst = True
            return observation
        observation.forwarded = True
        inner = arrival.payload.embedded
        observation.embedded_checksum_ok = inner.header_checksum_ok()
        transport = inner.payload
        # Port equality alone is ambiguous under port preservation (the
        # external port *is* the internal port); a genuinely rewritten
        # transport header also carries a checksum recomputed over the
        # rewritten embedded addresses.
        port_matches = hasattr(transport, "src_port") and transport.src_port == local_port
        checksum_fresh = (
            hasattr(transport, "checksum_ok") and transport.checksum_ok(inner.src, inner.dst)
        )
        observation.transport_rewritten = port_matches and checksum_fresh
        return observation


# ---------------------------------------------------------------------------
# Registry: family descriptor and the Table-2 report hook
# (which also consumes the transport-support and DNS families).
# ---------------------------------------------------------------------------


def _render_table2(results) -> Optional[str]:
    from repro import paperdata
    from repro.analysis.figures import code_block
    from repro.analysis.tables import render_table2

    return "\n\n".join([
        f"## Other tests ({paperdata.FAMILY_FIGURES['other']})",
        code_block(render_table2(results.family("icmp"), results.family("transports"), results.family("dns"))),
    ])


registry.register_family(registry.ExperimentFamily(
    name="icmp",
    order=80,
    cell_type=IcmpTestResult,
    probe_factory=lambda knobs: IcmpTranslationTest().run_all,
    view=registry.row_view(lambda result: (
        f"udp:{len(result.forwarded_kinds('udp')):>2}/10  tcp:{len(result.forwarded_kinds('tcp')):>2}/10  "
        f"embedded-rewrite:{result.translates_embedded_transport()}  ip-cksum:{result.fixes_embedded_ip_checksum()}"
    )),
))

registry.register_section(registry.ReportSection(
    key="table2", order=80, families=("icmp", "transports", "dns"),
    render=_render_table2, requires_all=True,
))
