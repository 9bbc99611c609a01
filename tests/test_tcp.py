"""The TCP implementation: handshake, transfer, recovery, teardown."""

from ipaddress import IPv4Address, IPv4Network

import pytest
from hypothesis import given, strategies as st

from repro.netsim import Link
from repro.protocols import Host
from repro.protocols.tcp import seq_add, seq_lt, seq_le, seq_sub

SERVER_IP = IPv4Address("10.0.0.2")


def _serve_echo(b, port=8080):
    received = bytearray()

    def on_accept(conn):
        conn.on_data = lambda data: received.extend(data)

    b.tcp.listen(port, on_accept)
    return received


class TestSeqArithmetic:
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=2**31 - 1))
    def test_add_then_sub(self, seq, delta):
        assert seq_sub(seq_add(seq, delta), seq) == delta

    def test_wraparound_comparisons(self):
        near_top = 0xFFFFFF00
        wrapped = seq_add(near_top, 0x200)
        assert seq_lt(near_top, wrapped)
        assert seq_le(near_top, near_top)
        assert not seq_lt(wrapped, near_top)


class TestHandshake:
    def test_connect_establishes_both_ends(self, host_pair):
        a, b = host_pair
        accepted = []
        b.tcp.listen(80, accepted.append)
        established = []
        conn = a.tcp.connect(SERVER_IP, 80)
        conn.on_established = established.append
        a.sim.run()
        assert established and accepted
        assert conn.state == "ESTABLISHED"
        assert accepted[0].state == "ESTABLISHED"
        assert accepted[0].remote_port == conn.local_port

    def test_connect_to_closed_port_refused(self, host_pair):
        a, b = host_pair
        outcomes = []
        conn = a.tcp.connect(SERVER_IP, 81)
        conn.on_close = outcomes.append
        a.sim.run()
        assert outcomes == ["refused"]
        assert conn.state == "CLOSED"

    def test_connect_timeout_when_peer_silent(self, host_pair):
        a, b = host_pair
        b.tcp.rsts_sent = 0
        # Drop everything at b so SYNs vanish.
        b.install_intercept(lambda packet, iface: True)
        outcomes = []
        conn = a.tcp.connect(SERVER_IP, 80)
        conn.max_syn_retries = 2
        conn.on_close = outcomes.append
        a.sim.run()
        assert outcomes == ["timeout"]

    def test_syn_retransmission_survives_loss(self, host_pair):
        a, b = host_pair
        b.tcp.listen(80)
        dropped = {"count": 0}

        def drop_first_syn(packet, iface):
            from repro.packets import TcpSegment

            segment = packet.payload
            if isinstance(segment, TcpSegment) and segment.syn and dropped["count"] == 0:
                dropped["count"] += 1
                return True
            return False

        b.install_intercept(drop_first_syn)
        established = []
        conn = a.tcp.connect(SERVER_IP, 80)
        conn.on_established = established.append
        a.sim.run()
        assert established and dropped["count"] == 1

    def test_mss_negotiated_from_syn(self, host_pair):
        a, b = host_pair
        b.tcp.listen(80)
        conn = a.tcp.connect(SERVER_IP, 80, mss=500)  # small MSS on the SYN
        a.sim.run()
        server_conn = next(iter(b.tcp.connections.values()))
        assert server_conn.mss == 500


class TestDataTransfer:
    def test_small_payload(self, host_pair):
        a, b = host_pair
        received = _serve_echo(b)
        conn = a.tcp.connect(SERVER_IP, 8080)
        conn.on_established = lambda c: c.send(b"hello tcp")
        a.sim.run()
        assert bytes(received) == b"hello tcp"

    def test_bulk_transfer_integrity(self, host_pair):
        a, b = host_pair
        received = _serve_echo(b)
        payload = bytes(i % 251 for i in range(300_000))
        conn = a.tcp.connect(SERVER_IP, 8080)
        conn.on_established = lambda c: c.send(payload)
        a.sim.run()
        assert bytes(received) == payload
        assert conn.retransmitted_segments == 0

    def test_bidirectional_streams(self, host_pair):
        a, b = host_pair
        to_client = bytearray()

        def on_accept(server_conn):
            server_conn.on_data = lambda data: None
            server_conn.send(b"s" * 50_000)

        b.tcp.listen(8080, on_accept)
        conn = a.tcp.connect(SERVER_IP, 8080)
        conn.on_established = lambda c: c.send(b"c" * 50_000)
        conn.on_data = lambda data: to_client.extend(data)
        a.sim.run()
        assert bytes(to_client) == b"s" * 50_000

    def test_transfer_over_lossy_path_recovers(self, sim, macs):
        a = Host(sim, "a", macs)
        b = Host(sim, "b", macs)
        ia, ib = a.new_interface(), b.new_interface()
        Link(sim, rate_bps=10e6, delay=1e-3).attach(ia, ib)
        net = IPv4Network("10.0.0.0/24")
        ia.configure(IPv4Address("10.0.0.1"), net)
        ib.configure(IPv4Address("10.0.0.2"), net)
        # Deterministically drop every 20th arriving data segment at b.
        state = {"n": 0}

        def lossy(packet, iface):
            from repro.packets import TcpSegment

            segment = packet.payload
            if isinstance(segment, TcpSegment) and segment.payload:
                state["n"] += 1
                if state["n"] % 20 == 0:
                    return True
            return False

        b.install_intercept(lossy)
        received = _serve_echo(b)
        payload = bytes(i % 256 for i in range(120_000))
        conn = a.tcp.connect(SERVER_IP, 8080)
        conn.on_established = lambda c: c.send(payload)
        sim.run()
        assert bytes(received) == payload
        assert conn.retransmitted_segments > 0

    def test_flow_respects_peer_window(self, host_pair):
        a, b = host_pair
        _serve_echo(b)
        conn = a.tcp.connect(SERVER_IP, 8080)
        conn.on_established = lambda c: c.send(b"z" * 200_000)
        a.sim.run()
        # Flight can never have exceeded the advertised 64 KB window.
        assert conn.bytes_sent == 200_000

    def test_send_before_established_is_queued(self, host_pair):
        a, b = host_pair
        received = _serve_echo(b)
        conn = a.tcp.connect(SERVER_IP, 8080)
        conn.send(b"early data")  # queued in SYN_SENT
        a.sim.run()
        assert bytes(received) == b"early data"


class TestTeardown:
    def test_graceful_close_four_way(self, host_pair):
        a, b = host_pair
        server_events = []

        def on_accept(server_conn):
            server_conn.on_close = lambda reason: (server_events.append(reason), server_conn.close())

        b.tcp.listen(8080, on_accept)
        conn = a.tcp.connect(SERVER_IP, 8080)
        conn.on_established = lambda c: c.close()
        a.sim.run()
        assert "remote_fin" in server_events
        assert conn.state == "CLOSED"
        assert not a.tcp.connections and not b.tcp.connections

    def test_close_flushes_pending_data(self, host_pair):
        a, b = host_pair
        received = _serve_echo(b)

        def on_established(c):
            c.send(b"d" * 100_000)
            c.close()  # FIN must wait for the data

        conn = a.tcp.connect(SERVER_IP, 8080)
        conn.on_established = on_established
        a.sim.run()
        assert len(received) == 100_000

    def test_abort_sends_rst(self, host_pair):
        a, b = host_pair
        server_events = []

        def on_accept(server_conn):
            server_conn.on_close = server_events.append

        b.tcp.listen(8080, on_accept)
        conn = a.tcp.connect(SERVER_IP, 8080)
        conn.on_established = lambda c: c.abort()
        a.sim.run()
        assert server_events == ["reset"]

    def test_send_after_close_rejected(self, host_pair):
        a, b = host_pair
        _serve_echo(b)
        errors = []

        def on_established(c):
            c.close()
            try:
                c.send(b"nope")
            except RuntimeError as exc:
                errors.append(exc)

        conn = a.tcp.connect(SERVER_IP, 8080)
        conn.on_established = on_established
        a.sim.run()
        assert errors


class TestKeepalive:
    def test_keepalive_probes_flow(self, host_pair):
        a, b = host_pair
        _serve_echo(b)
        conn = a.tcp.connect(SERVER_IP, 8080)
        conn.on_established = lambda c: c.enable_keepalive(5.0)
        a.sim.run(until=26.0)
        # 5 probes in 25 s, each ACKed: the connection stayed alive.
        assert conn.state == "ESTABLISHED"
        assert conn.segments_received >= 5


class TestListener:
    def test_listener_close_refuses_new(self, host_pair):
        a, b = host_pair
        listener = b.tcp.listen(8080)
        listener.close()
        outcomes = []
        conn = a.tcp.connect(SERVER_IP, 8080)
        conn.on_close = outcomes.append
        a.sim.run()
        assert outcomes == ["refused"]

    def test_accept_counter(self, host_pair):
        a, b = host_pair
        listener = b.tcp.listen(8080)
        for _ in range(3):
            a.tcp.connect(SERVER_IP, 8080)
        a.sim.run()
        assert listener.accepted == 3

    def test_duplicate_listen_rejected(self, host_pair):
        _, b = host_pair
        b.tcp.listen(8080)
        with pytest.raises(OSError):
            b.tcp.listen(8080)
