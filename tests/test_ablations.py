"""Ablations of the design choices DESIGN.md §4 calls out.

1. Modified vs naive binary search on a device whose after-inbound timeout
   exceeds its outbound-only one.
2. Timer granularity vs measurement IQR.
3. Window scaling off (the paper's config) vs on: delay ceiling.
4. Keepalive interval vs binding survival (the §4.4 design discussion).
"""

import pytest

from repro.core import ThroughputProbe, UdpTimeoutProbe
from repro.core.runtime import SimTask, run_tasks
from repro.devices.profile import DeviceProfile, ForwardingPolicy, UdpTimeoutPolicy
from repro.testbed import Testbed


def _profile(tag, granularity=0.0, **kwargs):
    return DeviceProfile(
        tag, "Ablation", "X", "1",
        udp_timeouts=UdpTimeoutPolicy(60.0, 90.0, 90.0, timer_granularity=granularity),
        **kwargs,
    )


def test_timer_granularity_widens_iqr():
    """A coarse timer wheel should visibly widen the measured IQR."""
    bed = Testbed.build([_profile("exact"), _profile("coarse", granularity=30.0)])
    results = UdpTimeoutProbe.udp1(repetitions=7).run_all(bed)
    exact = results["exact"].summary()
    coarse = results["coarse"].summary()
    assert coarse.iqr > exact.iqr + 1.0
    assert exact.iqr < 1.5


def test_modified_search_beats_naive_search():
    """The naive stateful bisection skips the quiescence that makes each
    iteration identical to the first; on a device whose after-inbound
    timeout exceeds its outbound-only timeout it measures garbage."""
    # outbound-only 30 s, but a binding that saw a response lives 180 s.
    profile = DeviceProfile("dev", "Ablation", "X", "1", udp_timeouts=UdpTimeoutPolicy(30.0, 180.0, 180.0))
    proper = UdpTimeoutProbe.udp1(repetitions=1).run_all(Testbed.build([profile]))["dev"]
    naive = UdpTimeoutProbe.udp1(repetitions=1, quiescent=False).run_all(Testbed.build([profile]))["dev"]
    assert proper.summary().median == pytest.approx(30.0, abs=1.0)
    # Without quiescence the residual (after-inbound, 180 s) binding pollutes
    # iterations: the naive estimate drifts upward.
    assert naive.summary().median > proper.summary().median + 5.0


def test_window_scaling_raises_the_delay_ceiling():
    """With wscale off (the paper's config) queuing delay is capped by the
    64 KB window; enabling it lets the buffer fill and delay grow."""
    profile = DeviceProfile(
        "slow", "Ablation", "X", "1",
        forwarding=ForwardingPolicy(up_rate_bps=8e6, down_rate_bps=8e6, buffer_bytes=512 * 1024),
    )
    off = ThroughputProbe(transfer_bytes=1024 * 1024).run_all(Testbed.build([profile]))["slow"]

    on_bed = Testbed.build([profile])
    big_window = 512 * 1024
    original_connect = on_bed.client.tcp.connect
    original_listen = on_bed.server.tcp.listen

    def scaled_connect(*args, **kwargs):
        kwargs.setdefault("use_window_scaling", True)
        conn = original_connect(*args, **kwargs)
        conn.rcv_wnd = big_window
        return conn

    def scaled_listen(*args, **kwargs):
        listener = original_listen(*args, **kwargs)
        listener.use_window_scaling = True
        listener.rcv_wnd = big_window
        return listener

    on_bed.client.tcp.connect = scaled_connect
    on_bed.server.tcp.listen = scaled_listen
    on = ThroughputProbe(transfer_bytes=1024 * 1024).run_all(on_bed)["slow"]
    assert on.upload.queuing_delay > off.upload.queuing_delay * 1.5


def _pushes_delivered(interval: float, pushes: int) -> int:
    """Keepalives every ``interval`` s; before each is due the server pushes toward the binding."""
    bed = Testbed.build([_profile("dev")])
    port = bed.port("dev")
    endpoint = {}
    server = bed.server.udp.bind(7000)
    server.on_receive = lambda data, ip, p: endpoint.update(addr=(ip, p))
    received = []
    sock = bed.client.udp.bind(0, port.client_iface_index)
    sock.on_receive = lambda data, ip, p: received.append(bed.sim.now)

    def task():
        for _ in range(pushes):
            sock.send_to(b"keepalive", port.server_ip, 7000)
            yield interval - 5.0
            if "addr" in endpoint:  # unsolicited push toward the binding
                server.send_to(b"push", *endpoint["addr"])
            yield 5.0

    run_tasks(bed.sim, [SimTask(bed.sim, task(), name=f"ka{interval}")])
    return len(received)


def test_keepalive_interval_vs_inbound_reachability():
    """§4.4: how short must a UDP keepalive be?  The observable that matters
    is *inbound reachability*: if the binding died between keepalives, the
    push is dropped at the NAT.  Device under test: 90 s after-inbound timeout."""
    pushes = 5
    outcomes = {interval: _pushes_delivered(interval, pushes) for interval in (30.0, 60.0, 120.0)}
    assert outcomes[30.0] == pushes
    assert outcomes[60.0] == pushes
    assert outcomes[120.0] == 0  # binding always dead by push time
