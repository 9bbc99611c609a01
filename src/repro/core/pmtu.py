"""Path-MTU black-hole experiment (§3.2.3's motivation, RFC 2923).

Topology: beyond the test server (acting as a router) sits a *far host*
reached over a link with a small MTU.  A client behind each gateway bulk-
transfers to the far host with a full-size MSS:

* the router drops the oversized DF segments and sends ICMP Fragmentation
  Needed back toward the gateway's WAN address;
* a gateway that **translates** TCP Frag Needed (Table 2) delivers the
  error, the client's PMTU discovery shrinks its MSS, and the transfer
  completes promptly;
* a gateway that **drops** it produces the classic PMTU black hole: the
  transfer stalls in retransmission until it dies.
"""

from __future__ import annotations

from dataclasses import dataclass
from ipaddress import IPv4Address, IPv4Network
from typing import Dict, Generator, Optional

from repro.core import registry
from repro.core.runtime import Future, SimTask, run_tasks
from repro.netsim.link import Link
from repro.protocols.stack import Host
from repro.testbed.testbed import LINK_DELAY, LINK_RATE_BPS, Testbed

FAR_NETWORK = IPv4Network("198.51.100.0/24")
FAR_ROUTER_IP = IPv4Address("198.51.100.1")
FAR_HOST_IP = IPv4Address("198.51.100.2")
FAR_PORT = 35100
DEFAULT_PATH_MTU = 1000
TRANSFER_BYTES = 120 * 1024
#: A black hole is declared when the transfer hasn't completed in this many
#: simulated seconds (a healthy PMTUD transfer takes well under one).
BLACKHOLE_DEADLINE = 30.0


@dataclass
class PmtuResult:
    """One device's verdict."""

    tag: str
    completed: bool
    duration: Optional[float]
    mss_after: int
    pmtu_reductions: int

    @property
    def black_hole(self) -> bool:
        """Whether the transfer stalled: PMTU discovery never converged."""
        return not self.completed


def attach_far_host(bed: Testbed, path_mtu: int = DEFAULT_PATH_MTU) -> Host:
    """Wire the far host behind the (routing) test server over a thin link."""
    bed.server.ip_forwarding = True
    far = Host(bed.sim, "far-host", bed.macs)
    server_iface = bed.server.new_interface()
    far_iface = far.new_interface()
    Link(bed.sim, LINK_RATE_BPS, LINK_DELAY).attach(server_iface, far_iface)
    server_iface.configure(FAR_ROUTER_IP, FAR_NETWORK)
    server_iface.mtu = path_mtu  # the tight egress
    far_iface.configure(FAR_HOST_IP, FAR_NETWORK)
    far.add_default_route(far_iface.index, FAR_ROUTER_IP)
    return far


class PmtuBlackholeTest:
    """Runs the black-hole experiment across the population (serially, so
    one device's retransmission storms don't perturb another's timing)."""

    def __init__(self, path_mtu: int = DEFAULT_PATH_MTU, transfer_bytes: int = TRANSFER_BYTES):
        if not 256 <= path_mtu < 1500:
            raise ValueError(f"path MTU {path_mtu} out of the interesting range")
        self.path_mtu = path_mtu
        self.transfer_bytes = transfer_bytes

    def run_all(self, bed: Testbed) -> Dict[str, PmtuResult]:
        """Run the constrained-path transfer behind every device."""
        tags = bed.tags()
        far = attach_far_host(bed, self.path_mtu)

        def on_accept(conn) -> None:
            conn.on_data = lambda data: None  # byte counting happens client-side

        far.tcp.listen(FAR_PORT, on_accept)
        results: Dict[str, PmtuResult] = {}
        for tag in tags:
            task = SimTask(bed.sim, self._device_task(bed, tag, results), name=f"pmtu:{tag}")
            run_tasks(bed.sim, [task])
        return results

    def _device_task(self, bed: Testbed, tag: str, results: Dict[str, PmtuResult]) -> Generator:
        port = bed.port(tag)
        started = bed.sim.now
        finished = Future(timeout=BLACKHOLE_DEADLINE)
        conn = bed.client.tcp.connect(FAR_HOST_IP, FAR_PORT, iface_index=port.client_iface_index)
        payload = b"m" * self.transfer_bytes

        def on_established(c) -> None:
            c.send(payload)

        def check_done() -> None:
            # Done once everything is ACKed end to end.
            if conn.state == "ESTABLISHED" and conn.unsent_bytes() == 0 and conn.flight_size() == 0:
                finished.set_result(bed.sim.now - started)
                return
            if conn.state == "CLOSED":
                finished.set_result(None)
                return
            bed.sim.timer(check_done).start(0.05)

        conn.on_established = on_established
        bed.sim.timer(check_done).start(0.1)
        duration = yield finished
        results[tag] = PmtuResult(
            tag=tag,
            completed=duration is not None,
            duration=duration,
            mss_after=conn.mss,
            pmtu_reductions=conn.pmtu_reductions,
        )
        if conn.state != "CLOSED":
            conn.abort()
        # Drain stragglers before the next device runs.
        yield 2.0


registry.register_family(registry.ExperimentFamily(
    name="pmtu",
    order=130,
    cell_type=PmtuResult,
    probe_factory=lambda knobs: PmtuBlackholeTest().run_all,
    default_selected=False,
    view=registry.row_view(
        lambda result: f"ok in {result.duration:.2f}s (mss {result.mss_after})" if result.completed else "BLACK HOLE"
    ),
))

registry.register_view_section("pmtu", 86, "Path-MTU black holes (RFC 2923)")
