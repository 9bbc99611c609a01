"""Binding-creation-rate measurement (§5 future work).

"We are planning to expand the range of tests to … measure the rate at
which NATs are capable of creating new bindings."  This probe does exactly
that: the client fires UDP datagrams from *distinct source ports* at a
configurable offered rate; every datagram that reaches the server proves a
fresh binding was set up.  Sweeping the offered rate up until deliveries
fall behind yields the device's sustainable binding-setup rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from ipaddress import IPv4Address
from typing import Dict, Generator, List, Sequence, Tuple

from repro.core import registry
from repro.core.results import DeviceSeries, Summary
from repro.core.runtime import SimTask, run_tasks
from repro.testbed.testbed import Testbed

BINDING_RATE_PORT = 34900
SETTLE_SECONDS = 1.0


@dataclass
class RateStep:
    """One offered-vs-achieved data point."""

    offered_rate: float
    achieved_rate: float

    @property
    def loss_fraction(self) -> float:
        """Fraction of offered bindings that never produced an echo."""
        if self.offered_rate <= 0:
            return 0.0
        return max(0.0, 1.0 - self.achieved_rate / self.offered_rate)


@dataclass
class BindingRateResult:
    """Sweep outcome for one device."""

    tag: str
    steps: List[RateStep] = field(default_factory=list)

    def sustainable_rate(self, loss_threshold: float = 0.05) -> float:
        """Highest offered rate whose loss stayed under the threshold."""
        passing = [s.achieved_rate for s in self.steps if s.loss_fraction <= loss_threshold]
        if not passing:
            return 0.0
        return max(passing)

    def saturation_rate(self) -> float:
        """Best achieved rate at any offered load (the capacity estimate)."""
        if not self.steps:
            return 0.0
        return max(s.achieved_rate for s in self.steps)


class BindingRateProbe:
    """Sweeps binding-setup load across the population (in parallel)."""

    def __init__(
        self,
        offered_rates: Sequence[float] = (50, 100, 200, 400, 800, 1600),
        burst_count: int = 200,
        server_port: int = BINDING_RATE_PORT,
    ):
        if burst_count < 10:
            raise ValueError("burst_count too small to estimate a rate")
        # Floats, as ``RateStep.offered_rate`` declares: a stored cell decodes to the live one.
        self.offered_rates = [float(rate) for rate in offered_rates]
        self.burst_count = burst_count
        self.server_port = server_port

    def run_all(self, bed: Testbed) -> Dict[str, BindingRateResult]:
        """Sweep every offered rate against every device."""
        tags = bed.tags()
        arrivals: Dict[Tuple[str, int], List[float]] = {}
        server = bed.server.udp.bind(self.server_port)

        def on_receive(payload: bytes, src_ip: IPv4Address, src_port: int) -> None:
            if len(payload) < 3:
                return
            tag_len = payload[0]
            if len(payload) < 2 + tag_len:
                return
            tag = payload[1 : 1 + tag_len].decode("ascii", errors="replace")
            step = payload[1 + tag_len]
            arrivals.setdefault((tag, step), []).append(bed.sim.now)

        server.on_receive = on_receive
        results = {tag: BindingRateResult(tag) for tag in tags}
        tasks = [
            SimTask(bed.sim, self._device_task(bed, tag, arrivals, results[tag]), name=f"rate:{tag}")
            for tag in tags
        ]
        run_tasks(bed.sim, tasks)
        server.close()
        return results

    def series(self, results: Dict[str, BindingRateResult]) -> DeviceSeries:
        """Render saturation rates as a device-ordered series."""
        series = DeviceSeries("binding-rate", "bindings/s")
        for tag, result in results.items():
            series.add(tag, Summary.of([result.saturation_rate()]))
        return series

    def _device_task(
        self,
        bed: Testbed,
        tag: str,
        arrivals: Dict[Tuple[str, int], List[float]],
        result: BindingRateResult,
    ) -> Generator:
        port = bed.port(tag)
        marker = tag.encode("ascii")
        for step_index, rate in enumerate(self.offered_rates):
            gap = 1.0 / rate
            first_send = bed.sim.now
            for i in range(self.burst_count):
                # A fresh socket (hence source port, hence binding) per shot.
                sock = bed.client.udp.bind(0, port.client_iface_index)
                sock.send_to(bytes([len(marker)]) + marker + bytes([step_index]), port.server_ip, self.server_port)
                sock.close()
                yield gap
            last_send = bed.sim.now
            yield SETTLE_SECONDS
            seen = arrivals.get((tag, step_index), [])
            window = max(last_send - first_send, gap)
            result.steps.append(RateStep(offered_rate=rate, achieved_rate=len(seen) / window))
            # Let the burst's bindings age out of the rate bucket's horizon.
            yield SETTLE_SECONDS


registry.register_family(registry.ExperimentFamily(
    name="binding_rate",
    order=120,
    cell_type=BindingRateResult,
    probe_factory=lambda knobs: BindingRateProbe().run_all,
    default_selected=False,
    view=registry.series_view(lambda results: BindingRateProbe().series(results), "Binding setup rate [bindings/s]"),
))

registry.register_view_section("binding_rate", 84, "Binding creation rate (§5)")
