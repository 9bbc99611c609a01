"""Bulk TCP throughput (TCP-2) and queuing delay (TCP-3).

The paper transfers 100 MB through each gateway — upload, download, then
both at once — and, in the same transfers, measures queuing delay from
timestamps embedded every 2 KB of payload.  Both numbers fall out of one
:class:`BulkTransfer` here.  The transfer size is configurable because the
simulated transfer converges to the steady-state rate long before 100 MB;
benches default to a few MB and report the shape-preserving rate.

Throughput tests run one device at a time (§3.1: "...except for the
throughput test, which measures each home gateway separately to avoid
overloading the test network").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional

from repro.core import registry
from repro.core.delay import CHUNK_BYTES, TimestampReader, TimestampWriter
from repro.core.results import DeviceSeries, Summary
from repro.core.runtime import Future, SimTask, run_tasks
from repro.testbed.testbed import Testbed

THROUGHPUT_PORT_UP = 34700
THROUGHPUT_PORT_DOWN = 34701
DEFAULT_TRANSFER_BYTES = 2 * 1024 * 1024
ESTABLISH_TIMEOUT = 15.0
TRANSFER_TIMEOUT = 600.0
#: Writer pacing: keep at most this much unsent backlog inside TCP, so the
#: embedded timestamps measure the network, not the sender's own buffer.
WRITER_BACKLOG_BYTES = 16 * 1024
WRITER_TICK = 0.00025


@dataclass
class TransferOutcome:
    """One direction of one run."""

    throughput_bps: float
    queuing_delay: float
    bytes_moved: int


@dataclass
class ThroughputResult:
    """TCP-2/TCP-3 results for one device."""

    tag: str
    upload: Optional[TransferOutcome] = None
    download: Optional[TransferOutcome] = None
    upload_bidir: Optional[TransferOutcome] = None
    download_bidir: Optional[TransferOutcome] = None


class _PacedSender:
    """Feeds stamped chunks into a TCP connection, keeping backlog shallow."""

    def __init__(self, sim, conn, writer: TimestampWriter, done: Future):
        self.sim = sim
        self.conn = conn
        self.writer = writer
        self.done = done
        self._timer = sim.timer(self._tick)
        self._tick()

    def _tick(self) -> None:
        conn = self.conn
        if conn.state not in ("ESTABLISHED", "CLOSE_WAIT"):
            self.done.set_result(False)
            return
        while not self.writer.finished and conn.unsent_bytes() < WRITER_BACKLOG_BYTES:
            chunk = self.writer.next_chunk(self.sim.now)
            conn.send(chunk)
        if self.writer.finished:
            conn.close()
            self.done.set_result(True)
            return
        self._timer.start(WRITER_TICK)


class ThroughputProbe:
    """TCP-2 + TCP-3 across the population (serially, per the paper)."""

    def __init__(self, transfer_bytes: int = DEFAULT_TRANSFER_BYTES):
        if transfer_bytes < 4 * CHUNK_BYTES:
            raise ValueError("transfer too small to measure anything")
        self.transfer_bytes = transfer_bytes

    def run_all(self, bed: Testbed) -> Dict[str, ThroughputResult]:
        """Run the bulk transfers, one device at a time (the paper's rule)."""
        tags = bed.tags()
        bed.server.tcp.listen(THROUGHPUT_PORT_UP, on_accept=self._accept_upload)
        bed.server.tcp.listen(THROUGHPUT_PORT_DOWN, on_accept=self._accept_download)
        # Upload readers are handed over accept-order; throughput runs are
        # serial with at most one upload in flight, so FIFO matching is exact.
        self._pending_readers: list = []
        results: Dict[str, ThroughputResult] = {}
        for tag in tags:  # deliberately serial
            task = SimTask(bed.sim, self._device_task(bed, tag, results), name=f"tcp2:{tag}")
            run_tasks(bed.sim, [task])
        return results

    # -- series helpers ------------------------------------------------------

    def throughput_series(self, results: Dict[str, ThroughputResult], field: str) -> DeviceSeries:
        """One direction's throughput as a device-ordered series."""
        series = DeviceSeries(f"tcp2:{field}", "Mb/s")
        for tag, result in results.items():
            outcome = getattr(result, field)
            if outcome is not None:
                series.add(tag, Summary.of([outcome.throughput_bps / 1e6]))
        return series

    def delay_series(self, results: Dict[str, ThroughputResult], field: str) -> DeviceSeries:
        """One direction's queuing delay as a device-ordered series."""
        series = DeviceSeries(f"tcp3:{field}", "ms")
        for tag, result in results.items():
            outcome = getattr(result, field)
            if outcome is not None:
                series.add(tag, Summary.of([outcome.queuing_delay * 1e3]))
        return series

    # -- server-side accept hooks ------------------------------------------------

    def _accept_upload(self, conn) -> None:
        reader = TimestampReader()
        sim = conn.sim
        conn.on_data = lambda data: reader.feed(data, sim.now)
        self._pending_readers.append(reader)

    def _accept_download(self, conn) -> None:
        # The server starts streaming toward the client on accept.
        writer = TimestampWriter(self.transfer_bytes)
        _PacedSender(conn.sim, conn, writer, Future())

    # -- per-device measurement ------------------------------------------------------

    def _device_task(self, bed: Testbed, tag: str, results: Dict[str, ThroughputResult]) -> Generator:
        result = ThroughputResult(tag)
        upload = yield from self._run_upload(bed, tag)
        result.upload = upload
        download = yield from self._run_download(bed, tag)
        result.download = download
        up_future, down_future = self._start_upload(bed, tag), self._start_download(bed, tag)
        result.upload_bidir = yield up_future
        result.download_bidir = yield down_future
        results[tag] = result

    def _run_upload(self, bed: Testbed, tag: str) -> Generator:
        future = self._start_upload(bed, tag)
        outcome = yield future
        return outcome

    def _run_download(self, bed: Testbed, tag: str) -> Generator:
        future = self._start_download(bed, tag)
        outcome = yield future
        return outcome

    def _start_upload(self, bed: Testbed, tag: str) -> Future:
        """Client streams to the server; the server-side reader measures."""
        port = bed.port(tag)
        sim = bed.sim
        done = Future(timeout=TRANSFER_TIMEOUT + ESTABLISH_TIMEOUT)
        conn = bed.client.tcp.connect(port.server_ip, THROUGHPUT_PORT_UP, iface_index=port.client_iface_index)

        def on_established(c) -> None:
            writer = TimestampWriter(self.transfer_bytes)
            sender_done = Future(timeout=TRANSFER_TIMEOUT)
            _PacedSender(sim, c, writer, sender_done)
            # Resolve once the server-side reader has read everything.
            expected = writer.total_bytes

            def poll() -> None:
                if done.done:
                    return
                reader = self._pending_readers[0] if self._pending_readers else None
                if reader is not None and reader.bytes_received >= expected:
                    self._pending_readers.pop(0)
                    done.set_result(
                        TransferOutcome(reader.throughput_bps(), reader.queuing_delay(), reader.bytes_received)
                    )
                    return
                sim.timer(poll).start(0.05)

            poll()

        conn.on_established = on_established
        conn.on_close = lambda reason: done.set_result(None) if reason in ("timeout", "refused", "reset") else None
        return done

    def _start_download(self, bed: Testbed, tag: str) -> Future:
        """Client connects to the download port and the server streams back."""
        port = bed.port(tag)
        sim = bed.sim
        done = Future(timeout=TRANSFER_TIMEOUT + ESTABLISH_TIMEOUT)
        reader = TimestampReader()
        expected = TimestampWriter(self.transfer_bytes).total_bytes
        conn = bed.client.tcp.connect(port.server_ip, THROUGHPUT_PORT_DOWN, iface_index=port.client_iface_index)

        def on_data(data: bytes) -> None:
            reader.feed(data, sim.now)
            if reader.bytes_received >= expected and not done.done:
                done.set_result(
                    TransferOutcome(reader.throughput_bps(), reader.queuing_delay(), reader.bytes_received)
                )

        conn.on_data = on_data
        conn.on_close = lambda reason: done.set_result(None) if reason in ("timeout", "refused", "reset") else None
        return done


# ---------------------------------------------------------------------------
# Registry: family descriptor, report hook.
# ---------------------------------------------------------------------------

def _render_tcp2(results) -> Optional[str]:
    from repro import paperdata
    from repro.analysis.figures import code_block, render_series_multi

    data = results.family("tcp2")
    if not data:
        return None
    probe = ThroughputProbe()
    throughput = {
        "down": probe.throughput_series(data, "download"),
        "up": probe.throughput_series(data, "upload"),
        "down(bi)": probe.throughput_series(data, "download_bidir"),
        "up(bi)": probe.throughput_series(data, "upload_bidir"),
    }
    delay = {
        "down": probe.delay_series(data, "download"),
        "up": probe.delay_series(data, "upload"),
        "down(bi)": probe.delay_series(data, "download_bidir"),
        "up(bi)": probe.delay_series(data, "upload_bidir"),
    }
    return "\n\n".join([
        f"## TCP-2/TCP-3: throughput and queuing delay ({paperdata.FAMILY_FIGURES['tcp2']})",
        code_block(render_series_multi(throughput, "throughput [Mb/s]", order=throughput["down"].ordered_tags())),
        code_block(render_series_multi(delay, "queuing delay [ms]", order=delay["down"].ordered_tags())),
    ])


def _view_tcp2(results):
    from repro.analysis.figures import render_series

    probe = ThroughputProbe()
    series = probe.throughput_series(results, "download")
    delay = probe.delay_series(results, "download")
    return "\n".join([
        render_series(series, "TCP-2 download throughput [Mb/s]"),
        render_series(delay, "TCP-3 download queuing delay [ms]"),
    ]), series


@dataclass(frozen=True)
class ThroughputKnobs:
    """TCP-2/TCP-3: bytes moved by each bulk transfer."""

    transfer_bytes: int = registry.knob(DEFAULT_TRANSFER_BYTES, "--transfer-bytes", metavar="BYTES",
                                        help="bytes moved by each TCP-2/TCP-3 transfer (default: %(default)s)")


registry.register_family(registry.ExperimentFamily(
    name="tcp2",
    order=60,
    cell_type=ThroughputResult,
    knobs=ThroughputKnobs,
    probe_factory=lambda knobs: ThroughputProbe(transfer_bytes=knobs.transfer_bytes).run_all,
    view=_view_tcp2,
))

registry.register_section(registry.ReportSection(
    key="tcp2", order=50, families=("tcp2",), render=_render_tcp2,
))
