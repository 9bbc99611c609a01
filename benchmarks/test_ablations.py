"""Ablations of the design choices DESIGN.md calls out.

1. Modified vs naive binary search on coarse-timer devices.
2. Timer granularity vs measurement IQR.
3. Window scaling off (the paper's config) vs on: delay ceiling.
4. Keepalive interval vs binding survival (the §4.4 design discussion).
"""

import pytest

from conftest import write_artifact

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


def test_ablation_timer_granularity_vs_iqr(benchmark):
    """A coarse timer wheel should visibly widen the measured IQR."""
    def run():
        profiles = [_profile("exact"), _profile("coarse", granularity=30.0)]
        bed = Testbed.build(profiles)
        return UdpTimeoutProbe.udp1(repetitions=7).run_all(bed)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    exact = results["exact"].summary()
    coarse = results["coarse"].summary()
    text = (
        "Ablation: timer granularity vs IQR\n"
        f"  exact wheel : median={exact.median:7.1f}s iqr={exact.iqr:5.1f}s\n"
        f"  30 s wheel  : median={coarse.median:7.1f}s iqr={coarse.iqr:5.1f}s"
    )
    write_artifact("ablation_granularity.txt", text)
    assert coarse.iqr > exact.iqr + 1.0
    assert exact.iqr < 1.5


def test_ablation_modified_vs_naive_search(benchmark):
    """The naive stateful bisection skips the quiescence that makes each
    iteration identical to the first; on a device whose after-inbound
    timeout exceeds its outbound-only timeout it measures garbage."""
    from repro.core.udp_timeouts import UdpTimeoutProbe

    def run():
        # outbound-only 30 s, but a binding that saw a response lives 180 s.
        profile = DeviceProfile(
            "dev", "Ablation", "X", "1",
            udp_timeouts=UdpTimeoutPolicy(30.0, 180.0, 180.0),
        )
        proper = UdpTimeoutProbe.udp1(repetitions=1).run_all(Testbed.build([profile]))["dev"]
        naive = UdpTimeoutProbe.udp1(repetitions=1, quiescent=False).run_all(
            Testbed.build([profile])
        )["dev"]
        return proper, naive

    proper, naive = benchmark.pedantic(run, rounds=1, iterations=1)
    text = (
        "Ablation: modified (quiescent) vs naive binary search\n"
        f"  modified search : {proper.summary().median:7.1f}s (truth: 30 s)\n"
        f"  naive search    : {naive.summary().median:7.1f}s"
    )
    write_artifact("ablation_search.txt", text)
    assert proper.summary().median == pytest.approx(30.0, abs=1.0)
    # Without quiescence the residual (after-inbound, 180 s) binding pollutes
    # iterations: the naive estimate drifts upward.
    assert naive.summary().median > proper.summary().median + 5.0


def test_ablation_window_scaling_delay_ceiling(benchmark):
    """With wscale off (the paper's config) queuing delay is capped by the
    64 KB window; enabling it lets the buffer fill and delay grow."""
    def run():
        profile = DeviceProfile(
            "slow", "Ablation", "X", "1",
            forwarding=ForwardingPolicy(up_rate_bps=8e6, down_rate_bps=8e6, buffer_bytes=512 * 1024),
        )
        off_bed = Testbed.build([profile])
        off = ThroughputProbe(transfer_bytes=1024 * 1024).run_all(off_bed)["slow"]

        on_bed = Testbed.build([profile])
        big_window = 512 * 1024

        original_connect = on_bed.client.tcp.connect

        def scaled_connect(*args, **kwargs):
            kwargs.setdefault("use_window_scaling", True)
            conn = original_connect(*args, **kwargs)
            conn.rcv_wnd = big_window
            return conn

        original_listen = on_bed.server.tcp.listen

        def scaled_listen(*args, **kwargs):
            listener = original_listen(*args, **kwargs)
            listener.use_window_scaling = True
            listener.rcv_wnd = big_window
            return listener

        on_bed.client.tcp.connect = scaled_connect
        on_bed.server.tcp.listen = scaled_listen
        on = ThroughputProbe(transfer_bytes=1024 * 1024).run_all(on_bed)["slow"]
        return off, on

    off, on = benchmark.pedantic(run, rounds=1, iterations=1)
    text = (
        "Ablation: window scaling vs queuing delay (8 Mb/s device, 512 KiB buffer)\n"
        f"  wscale off (paper): upload delay {off.upload.queuing_delay * 1e3:7.1f} ms\n"
        f"  wscale on         : upload delay {on.upload.queuing_delay * 1e3:7.1f} ms"
    )
    write_artifact("ablation_wscale.txt", text)
    assert on.upload.queuing_delay > off.upload.queuing_delay * 1.5


def test_ablation_keepalive_interval(benchmark):
    """§4.4: how short must a UDP keepalive be?  The observable that matters
    is *inbound reachability*: the server pushes an unsolicited message just
    before each keepalive is due; if the binding died in between, the push
    is dropped at the NAT.  Device under test: 90 s after-inbound timeout."""
    PUSHES = 5

    def run():
        outcomes = {}
        for interval in (30.0, 60.0, 120.0):
            profile = _profile("dev")
            bed = Testbed.build([profile])
            port = bed.port("dev")
            endpoint = {}
            server = bed.server.udp.bind(7000)
            server.on_receive = lambda data, ip, p: endpoint.update(addr=(ip, p))
            pushes_received = []
            sock = bed.client.udp.bind(0, port.client_iface_index)
            sock.on_receive = lambda data, ip, p: pushes_received.append(bed.sim.now)

            def task(interval=interval, sock=sock, port=port):
                for _ in range(PUSHES):
                    sock.send_to(b"keepalive", port.server_ip, 7000)
                    yield interval - 5.0
                    if "addr" in endpoint:  # unsolicited push toward the binding
                        server.send_to(b"push", *endpoint["addr"])
                    yield 5.0

            run_tasks(bed.sim, [SimTask(bed.sim, task(), name=f"ka{interval}")])
            outcomes[interval] = len(pushes_received)
            sock.close()
            server.close()
        return outcomes

    outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    text = ("Ablation: UDP keepalive interval vs inbound reachability "
            "(90 s binding timeout)\n")
    for interval, count in outcomes.items():
        text += f"  keepalive every {interval:5.0f} s : {count}/{PUSHES} pushes delivered\n"
    write_artifact("ablation_keepalive.txt", text.rstrip())
    assert outcomes[30.0] == PUSHES
    assert outcomes[60.0] == PUSHES
    assert outcomes[120.0] == 0  # binding always dead by push time
