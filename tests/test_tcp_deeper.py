"""Deeper TCP behaviours: wraparound, simultaneous open/close, scaling."""

from ipaddress import IPv4Address, IPv4Network

from repro.netsim import Link, Simulation
from repro.protocols import Host

SERVER_IP = IPv4Address("10.0.0.2")


def lan_pair(sim, macs, delay=1e-4, rate=100e6):
    a, b = Host(sim, "a", macs), Host(sim, "b", macs)
    ia, ib = a.new_interface(), b.new_interface()
    Link(sim, rate_bps=rate, delay=delay).attach(ia, ib)
    net = IPv4Network("10.0.0.0/24")
    ia.configure(IPv4Address("10.0.0.1"), net)
    ib.configure(SERVER_IP, net)
    return a, b


class TestSequenceWraparound:
    def test_transfer_across_the_seq_space_boundary(self, sim, macs):
        a, b = lan_pair(sim, macs)
        received = bytearray()
        b.tcp.listen(80, lambda conn: setattr(conn, "on_data", received.extend))
        # Pin the client ISS just below the 2^32 boundary by intercepting
        # the RNG draw the active open makes.
        original = sim.rng.randrange
        sim.rng.randrange = lambda *args, **kwargs: 0xFFFFFF00
        try:
            conn = a.tcp.connect(SERVER_IP, 80)
        finally:
            sim.rng.randrange = original
        assert conn.iss == 0xFFFFFF00
        payload = bytes(i % 251 for i in range(50_000))
        conn.on_established = lambda c: c.send(payload)
        sim.run()
        assert bytes(received) == payload


class TestSimultaneousOpen:
    def test_crossing_syns_establish(self, sim, macs):
        a, b = lan_pair(sim, macs, delay=5e-3)
        established = []
        ca = a.tcp.connect(SERVER_IP, 6000, src_port=6000)
        cb = b.tcp.connect(IPv4Address("10.0.0.1"), 6000, src_port=6000)
        ca.on_established = lambda c: established.append("a")
        cb.on_established = lambda c: established.append("b")
        sim.run(until=10)
        assert sorted(established) == ["a", "b"]
        assert ca.state == cb.state == "ESTABLISHED"

    def test_data_flows_both_ways_after_simultaneous_open(self, sim, macs):
        a, b = lan_pair(sim, macs, delay=5e-3)
        got_a, got_b = [], []
        ca = a.tcp.connect(SERVER_IP, 6000, src_port=6000)
        cb = b.tcp.connect(IPv4Address("10.0.0.1"), 6000, src_port=6000)
        ca.on_established = lambda c: c.send(b"from-a")
        cb.on_established = lambda c: c.send(b"from-b")
        ca.on_data = got_a.append
        cb.on_data = got_b.append
        sim.run(until=10)
        assert got_a == [b"from-b"] and got_b == [b"from-a"]


class TestSimultaneousClose:
    def test_both_sides_close_at_once(self, sim, macs):
        a, b = lan_pair(sim, macs, delay=5e-3)
        server_conns = []
        b.tcp.listen(80, server_conns.append)
        conn = a.tcp.connect(SERVER_IP, 80)
        sim.run(until=1)
        assert server_conns
        conn.close()
        server_conns[0].close()
        sim.run(until=20)
        assert conn.state == "CLOSED"
        assert server_conns[0].state == "CLOSED"
        assert not a.tcp.connections and not b.tcp.connections


class TestWindowScaling:
    def test_scaled_window_increases_flight(self, sim, macs):
        a, b = lan_pair(sim, macs, delay=20e-3, rate=100e6)  # fat long pipe
        big = 512 * 1024
        listener = b.tcp.listen(80)
        listener.use_window_scaling = True
        listener.rcv_wnd = big
        received = bytearray()
        listener.on_accept = lambda conn: setattr(conn, "on_data", received.extend)
        conn = a.tcp.connect(SERVER_IP, 80, use_window_scaling=True)
        # Big enough that the 64 KB/40 ms RTT ceiling (≈13 Mb/s) dominates
        # the unscaled run while the scaled one reaches line rate.
        payload = b"w" * 1_500_000
        conn.on_established = lambda c: c.send(payload)
        start = sim.now
        sim.run()
        scaled_duration = None
        assert bytes(received) == payload
        # Compare with an unscaled transfer on a fresh pair: the 64 KB
        # window over a 40 ms RTT caps throughput at ~13 Mb/s, so the
        # scaled transfer must be several times faster.
        sim2 = Simulation(seed=9)
        from repro.netsim import mac_allocator as pool

        macs2 = pool()
        a2, b2 = lan_pair(sim2, macs2, delay=20e-3, rate=100e6)
        received2 = bytearray()
        b2.tcp.listen(80, lambda conn: setattr(conn, "on_data", received2.extend))
        conn2 = a2.tcp.connect(SERVER_IP, 80)
        t2 = {}

        def done_check():
            pass

        conn2.on_established = lambda c: c.send(payload)
        sim2.run()
        assert bytes(received2) == payload
        # Use the receivers' data spans as completion times.
        # (first_data_rx/last_data_rx are tracked per connection.)
        span_scaled = listener_span(b)
        span_plain = listener_span(b2)
        assert span_scaled < span_plain / 2


def listener_span(host):
    conns = list(host.tcp.connections.values())
    # Connections may have been reaped; track via any remaining state —
    # fall back to scanning all historical receivers via bytes_received.
    spans = [
        conn.last_data_rx - conn.first_data_rx
        for conn in conns
        if conn.first_data_rx is not None and conn.last_data_rx is not None
    ]
    if spans:
        return min(spans)
    raise AssertionError("no receiver span available")


class TestDelayedAck:
    def test_single_segment_acked_via_delack_timer(self, sim, macs):
        a, b = lan_pair(sim, macs)
        received = bytearray()
        b.tcp.listen(80, lambda conn: setattr(conn, "on_data", received.extend))
        conn = a.tcp.connect(SERVER_IP, 80)
        conn.on_established = lambda c: c.send(b"one segment only")
        sim.run()
        # The lone segment is eventually ACKed (snd_una catches snd_nxt)
        # even though no second segment forced an immediate ACK.
        assert conn.flight_size() == 0
        assert bytes(received) == b"one segment only"


class TestRstCounting:
    def test_rsts_sent_for_unknown_flows(self, sim, macs):
        a, b = lan_pair(sim, macs)
        before = b.tcp.rsts_sent
        outcomes = []
        conn = a.tcp.connect(SERVER_IP, 4999)  # nobody listens
        conn.on_close = outcomes.append
        sim.run()
        assert outcomes == ["refused"]
        assert b.tcp.rsts_sent == before + 1
