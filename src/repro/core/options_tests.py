"""TCP and IP option handling (§5: "investigate handling of TCP and IP
options"; §2's Medina et al. discussion).

Three observables per device:

* ``ip_options_pass`` — does a packet carrying an IP option (Record Route)
  make it through at all?  (Medina et al.: IP options mostly fail.)
* ``record_route_recorded`` — if it passes, did the gateway add its address?
* ``tcp_options_preserved`` — do unknown/optional TCP SYN options (SACK-
  permitted, window scale, timestamps) survive translation, or does the
  middlebox strip them?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional

from repro.core import registry
from repro.core.runtime import Future, SimTask, run_tasks
from repro.packets import IPv4Packet, PROTO_TCP, PROTO_UDP, TcpSegment, UdpDatagram
from repro.packets.tcp import TCPOPT_SACK_PERMITTED, TCPOPT_TIMESTAMP, TCPOPT_WSCALE, TcpOption
from repro.testbed.testbed import Testbed

OPTIONS_UDP_PORT = 34950
OPTIONS_TCP_PORT = 34951
OBSERVE_TIMEOUT = 3.0

PROBE_OPTION_KINDS = (TCPOPT_SACK_PERMITTED, TCPOPT_WSCALE, TCPOPT_TIMESTAMP)


@dataclass
class OptionsResult:
    """One device's option-handling verdicts."""

    tag: str
    ip_options_pass: bool = False
    record_route_recorded: bool = False
    tcp_options_preserved: Optional[bool] = None  # None: SYN never arrived


class OptionsTest:
    """Runs the option probes across the population."""

    def run_all(self, bed: Testbed) -> Dict[str, OptionsResult]:
        """Run the Record-Route and SYN-option probes on every device."""
        tags = bed.tags()
        sink = bed.server.udp.bind(OPTIONS_UDP_PORT)
        sink.on_receive = lambda *args: None
        bed.server.tcp.listen(OPTIONS_TCP_PORT)
        results = {tag: OptionsResult(tag) for tag in tags}
        tasks = [
            SimTask(bed.sim, self._device_task(bed, tag, results[tag]), name=f"options:{tag}")
            for tag in tags
        ]
        run_tasks(bed.sim, tasks)
        sink.close()
        return results

    def _device_task(self, bed: Testbed, tag: str, result: OptionsResult) -> Generator:
        port = bed.port(tag)

        # -- IP options: a Record Route datagram toward the server ---------
        arrived = Future(timeout=OBSERVE_TIMEOUT)

        def ip_observer(packet: IPv4Packet, iface) -> None:
            if (
                packet.protocol == PROTO_UDP
                and isinstance(packet.payload, UdpDatagram)
                and packet.payload.dst_port == OPTIONS_UDP_PORT
                and packet.src == port.gateway.wan_ip
            ):
                arrived.set_result(packet)

        remove = bed.server.observe_ip(ip_observer)
        sock = bed.client.udp.bind(0, port.client_iface_index)
        sock.send_to(b"rr-probe", port.server_ip, OPTIONS_UDP_PORT, record_route=True)
        packet = yield arrived
        remove()
        sock.close()
        if packet is not None:
            result.ip_options_pass = True
            result.record_route_recorded = bool(
                packet.record_route is not None and packet.record_route.addresses
            )

        # -- TCP options: a SYN with SACK-permitted/wscale/timestamps ------
        syn_seen = Future(timeout=OBSERVE_TIMEOUT)

        def tcp_observer(packet: IPv4Packet, iface) -> None:
            if (
                packet.protocol == PROTO_TCP
                and isinstance(packet.payload, TcpSegment)
                and packet.payload.syn
                and packet.payload.dst_port == OPTIONS_TCP_PORT
                and packet.src == port.gateway.wan_ip
            ):
                syn_seen.set_result(packet)

        remove = bed.server.observe_ip(tcp_observer)
        # A hand-crafted SYN carrying the probe options (no connection state
        # needed — the wire observation is the measurement).
        raw = TcpSegment(
            45678,
            OPTIONS_TCP_PORT,
            seq=1000,
            flags=0x02,  # SYN
            options=[
                TcpOption.mss(1460),
                TcpOption.sack_permitted(),
                TcpOption.window_scale(7),
                TcpOption.timestamp(1, 0),
            ],
        )
        probe = IPv4Packet(bed.client_ip(tag), port.server_ip, PROTO_TCP, raw)
        probe.fill_checksums()
        bed.client.send_ip_routed(probe, port.client_iface_index)
        observed = yield syn_seen
        remove()
        if observed is not None:
            kinds = {option.kind for option in observed.payload.options}
            result.tcp_options_preserved = all(kind in kinds for kind in PROBE_OPTION_KINDS)
        return None


registry.register_family(registry.ExperimentFamily(
    name="options",
    order=110,
    cell_type=OptionsResult,
    probe_factory=lambda knobs: OptionsTest().run_all,
    default_selected=False,
    view=registry.row_view(lambda result: (
        f"ip-options:{result.ip_options_pass}  record-route:{result.record_route_recorded}  "
        f"tcp-options:{result.tcp_options_preserved}"
    )),
))

registry.register_view_section("options", 82, "TCP and IP option handling (§5)")
