"""TCP binding tests: TCP-1 (idle timeout) and TCP-4 (binding capacity).

TCP-1 opens a connection, leaves it idle (no keepalives, per §3.2.2), then
has the server push a message after a sleep; whether the message arrives
tells whether the NAT still holds the binding.  Because TCP timeouts reach
24 hours, the search probes several sleep values with parallel connections
per round (:class:`~repro.core.binary_search.ParallelBindingSearch`).

TCP-4 opens connections to one server port until a new one fails, passing a
message over every open connection periodically so that bindings never idle
out; the count at first failure is the device's binding capacity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from repro.core import registry
from repro.core.binary_search import ParallelBindingSearch, SearchOutcome
from repro.core.results import DeviceSeries, Summary
from repro.core.runtime import Future, SimTask, run_tasks
from repro.testbed.testbed import Testbed
from repro.testbed.testrund import ManagementChannel, Testrund

TCP1_SERVER_PORT = 34600
TCP4_SERVER_PORT = 34601
DEFAULT_TCP_CUTOFF = 24 * 3600.0  # the paper's 24-hour cutoff
ESTABLISH_TIMEOUT = 15.0
RESPONSE_GRACE = 5.0

@dataclass
class TcpTimeoutResult:
    """TCP-1 result for one device."""

    tag: str
    samples: List[float] = field(default_factory=list)
    censored: int = 0
    cutoff: float = DEFAULT_TCP_CUTOFF

    def summary(self) -> Summary:
        """Median/quartile summary of the measured timeouts."""
        return Summary.of(self.samples)


@dataclass
class TcpBindingCapacityResult:
    """TCP-4 result for one device."""

    tag: str
    max_bindings: int
    hit_probe_limit: bool = False


class _Tcp1Server:
    """Server side of TCP-1: accepts connections keyed by a nonce."""

    def __init__(self, bed: Testbed, port: int):
        self.bed = bed
        self.connections: Dict[int, object] = {}
        self.listener = bed.server.tcp.listen(port, on_accept=self._on_accept)

    def _on_accept(self, conn) -> None:
        state = {"buffer": b""}

        def on_data(data: bytes) -> None:
            state["buffer"] += data
            if len(state["buffer"]) >= 8:
                nonce = int.from_bytes(state["buffer"][:8], "big")
                self.connections[nonce] = conn
                conn.on_data = None

        conn.on_data = on_data

    def respond(self, nonce: int) -> None:
        """Push one message over the (idle) connection."""
        conn = self.connections.get(nonce)
        if conn is not None and conn.state in ("ESTABLISHED", "CLOSE_WAIT"):
            conn.send(b"wakeup!!")

    def abort(self, nonce: int) -> None:
        conn = self.connections.pop(nonce, None)
        if conn is not None and conn.state != "CLOSED":
            conn.abort()


class TcpTimeoutProbe:
    """TCP-1 across the population."""

    def __init__(
        self,
        cutoff: float = DEFAULT_TCP_CUTOFF,
        repetitions: int = 1,
        fanout: int = 8,
        precision: float = 1.0,
        server_port: int = TCP1_SERVER_PORT,
    ):
        self.cutoff = cutoff
        self.repetitions = repetitions
        self.fanout = fanout
        self.precision = precision
        self.server_port = server_port

    def run_all(self, bed: Testbed) -> Dict[str, TcpTimeoutResult]:
        """Binary-search every device's idle-TCP binding timeout."""
        tags = bed.tags()
        # Nonces restart per run, for the same reason UDP flow ids do: pcap
        # determinism requires frame bytes independent of process history.
        self._nonces = itertools.count(1)
        channel = ManagementChannel(bed.sim)
        daemon = Testrund("server", channel)
        server = _Tcp1Server(bed, self.server_port)
        daemon.register("respond", server.respond)
        daemon.register("abort", server.abort)
        results = {tag: TcpTimeoutResult(tag, cutoff=self.cutoff) for tag in tags}
        tasks = [
            SimTask(bed.sim, self._device_task(bed, tag, daemon, results[tag]), name=f"tcp1:{tag}")
            for tag in tags
        ]
        run_tasks(bed.sim, tasks)
        return results

    def series(self, results: Dict[str, TcpTimeoutResult]) -> DeviceSeries:
        """Render the timeouts as a device-ordered series (censored kept)."""
        series = DeviceSeries("tcp1", "seconds")
        for tag, result in results.items():
            if result.samples:
                series.add(tag, result.summary())
            else:
                series.add_censored(tag, result.cutoff)
        return series

    def _device_task(self, bed: Testbed, tag: str, daemon: Testrund, result: TcpTimeoutResult) -> Generator:
        port = bed.port(tag)

        def spawn(sleep: float) -> Future:
            future = Future()
            SimTask(bed.sim, self._probe(bed, tag, daemon, sleep, future), name=f"tcp1:{tag}:{sleep:.0f}")
            return future

        for _repetition in range(self.repetitions):
            search = ParallelBindingSearch(
                spawn, cutoff=self.cutoff, precision=self.precision, fanout=self.fanout
            )
            outcome: SearchOutcome = yield from search.run()
            if outcome.censored:
                result.censored += 1
            elif outcome.estimate is not None:
                result.samples.append(outcome.estimate)

    def _probe(self, bed: Testbed, tag: str, daemon: Testrund, sleep: float, verdict: Future) -> Generator:
        """One TCP-1 probe: connect, identify, idle, poke, observe."""
        port = bed.port(tag)
        nonce = next(self._nonces)
        established = Future(timeout=ESTABLISH_TIMEOUT)
        conn = bed.client.tcp.connect(port.server_ip, self.server_port, iface_index=port.client_iface_index)
        conn.on_established = established.set_result
        ok = yield established
        if not ok:
            conn.abort()
            verdict.set_result(False)
            return
        # Identify this connection to the server, then go idle.
        conn.send(nonce.to_bytes(8, "big"))
        yield 0.5  # let the nonce (and its ACK) clear the pipe
        yield sleep
        data_arrived = Future(timeout=RESPONSE_GRACE)
        conn.on_data = lambda _data: data_arrived.set_result(True)
        daemon.invoke("respond", nonce)
        got = yield data_arrived
        daemon.invoke("abort", nonce)
        conn.abort()
        verdict.set_result(bool(got))


class TcpBindingCapacityProbe:
    """TCP-4 across the population."""

    def __init__(
        self,
        probe_limit: int = 1100,
        refresh_interval: float = 60.0,
        fail_timeout: float = 10.0,
        server_port: int = TCP4_SERVER_PORT,
    ):
        self.probe_limit = probe_limit
        self.refresh_interval = refresh_interval
        self.fail_timeout = fail_timeout
        self.server_port = server_port

    def run_all(self, bed: Testbed) -> Dict[str, TcpBindingCapacityResult]:
        """Open connections on every device until its binding table refuses."""
        tags = bed.tags()
        bed.server.tcp.listen(self.server_port)  # sink: accept everything
        results: Dict[str, TcpBindingCapacityResult] = {}
        tasks = [
            SimTask(bed.sim, self._device_task(bed, tag, results), name=f"tcp4:{tag}")
            for tag in tags
        ]
        run_tasks(bed.sim, tasks)
        return results

    def series(self, results: Dict[str, TcpBindingCapacityResult]) -> DeviceSeries:
        """Render binding capacities as a device-ordered series."""
        series = DeviceSeries("tcp4", "bindings")
        for tag, result in results.items():
            series.add(tag, Summary.of([float(result.max_bindings)]))
        return series

    def _device_task(self, bed: Testbed, tag: str, results: Dict[str, TcpBindingCapacityResult]) -> Generator:
        port = bed.port(tag)
        open_conns: List[object] = []
        last_refresh = bed.sim.now
        hit_limit = False
        while True:
            established = Future(timeout=self.fail_timeout)
            conn = bed.client.tcp.connect(
                port.server_ip, self.server_port, iface_index=port.client_iface_index
            )
            conn.max_syn_retries = 2
            conn.on_established = established.set_result
            ok = yield established
            if not ok:
                conn.abort()
                break
            open_conns.append(conn)
            if len(open_conns) >= self.probe_limit:
                hit_limit = True
                break
            # Keep existing bindings warm, as §3.2.2 prescribes.
            if bed.sim.now - last_refresh >= self.refresh_interval:
                last_refresh = bed.sim.now
                for existing in open_conns:
                    if existing.state == "ESTABLISHED":
                        existing.send(b"k")
        results[tag] = TcpBindingCapacityResult(tag, len(open_conns), hit_probe_limit=hit_limit)
        for conn in open_conns:
            conn.abort()


# ---------------------------------------------------------------------------
# Registry: family descriptors, report hooks.
# ---------------------------------------------------------------------------


def _render_tcp1(results) -> Optional[str]:
    from repro import paperdata
    from repro.analysis.figures import code_block, render_series
    from repro.core.results import DeviceSeries

    data = results.family("tcp1")
    if not data:
        return None
    series = DeviceSeries("TCP-1", "s")
    for tag, result in data.items():
        if result.samples:
            series.add(tag, result.summary())
        else:
            series.add_censored(tag, result.cutoff)
    return "\n\n".join([
        f"## TCP-1: idle binding timeouts ({paperdata.FAMILY_FIGURES['tcp1']})",
        code_block(render_series(series, "TCP-1 [s]", log_scale=True, censored_label=">cutoff")),
    ])


def _render_tcp4(results) -> Optional[str]:
    from repro import paperdata
    from repro.analysis.figures import code_block, render_series

    data = results.family("tcp4")
    if not data:
        return None
    series = TcpBindingCapacityProbe().series(data)
    return "\n\n".join([
        f"## TCP-4: binding capacity ({paperdata.FAMILY_FIGURES['tcp4']})",
        code_block(render_series(series, "max TCP bindings", log_scale=True)),
    ])


@dataclass(frozen=True)
class TcpTimeoutKnobs:
    """TCP-1: the idle time [s] past which a binding counts as censored."""

    tcp1_cutoff: float = registry.knob(DEFAULT_TCP_CUTOFF, "--tcp1-cutoff", metavar="SECONDS",
                                       help="TCP-1 idle time past which a binding counts as censored "
                                       "(default: %(default)s, the paper's 24 h)")


registry.register_family(registry.ExperimentFamily(
    name="tcp1",
    order=50,
    cell_type=TcpTimeoutResult,
    knobs=TcpTimeoutKnobs,
    probe_factory=lambda knobs: TcpTimeoutProbe(cutoff=knobs.tcp1_cutoff).run_all,
    view=registry.series_view(lambda results: TcpTimeoutProbe().series(results), "TCP-1 binding timeouts [s]",
                              log_scale=True, censored_label=">24h"),
))

registry.register_family(registry.ExperimentFamily(
    name="tcp4",
    order=70,
    cell_type=TcpBindingCapacityResult,
    probe_factory=lambda knobs: TcpBindingCapacityProbe().run_all,
    view=registry.series_view(lambda results: TcpBindingCapacityProbe().series(results), "TCP-4 max bindings",
                              log_scale=True),
))

registry.register_section(registry.ReportSection(
    key="tcp1", order=40, families=("tcp1",), render=_render_tcp1,
))
registry.register_section(registry.ReportSection(
    key="tcp4", order=60, families=("tcp4",), render=_render_tcp4,
))
