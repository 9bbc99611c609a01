"""TCP, as the paper configured it.

A byte-stream TCP with the three-way handshake, cumulative ACKs, delayed
ACKs, Reno congestion control (slow start, congestion avoidance, fast
retransmit/recovery), an RFC 6298 retransmission timer, graceful FIN
teardown, RST handling, and optional keepalive probes.

§3.2.2 of the paper pins the endpoint configuration: Linux 2.6.26, Reno,
with SACK, timestamps, window scaling, F-RTO, D-SACK and CBI all *disabled*.
Those are the defaults here: segments carry only an MSS option on SYNs and
the advertised window is a flat (unscaled) 64 KB.  Window scaling can be
re-enabled per connection for the ablation benches.

The implementation is callback-driven; applications set ``on_established``,
``on_data`` and ``on_close`` and call :meth:`TcpConnection.send` /
:meth:`TcpConnection.close`.
"""

from __future__ import annotations

from ipaddress import IPv4Address
from typing import Callable, Dict, Optional, Tuple, TYPE_CHECKING

from repro.netsim.node import Interface
from repro.packets.checksum import VALID
from repro.packets.icmp import IcmpMessage
from repro.packets.ipv4 import PROTO_TCP, IPv4Packet
from repro.packets.tcp import (
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_RST,
    TCP_SYN,
    TcpOption,
    TcpSegment,
)
from repro.protocols.ports import EphemeralPortAllocator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.protocols.stack import Host

TCP_DEFAULT_MSS = 1460
DEFAULT_WINDOW = 65535
INITIAL_CWND_SEGMENTS = 3  # Linux 2.6.26-era initial window (RFC 3390)
MIN_RTO = 0.2  # Linux's 200 ms floor
MAX_RTO = 60.0
INITIAL_RTO = 1.0
DEFAULT_SYN_RETRIES = 4
DEFAULT_DATA_RETRIES = 8
DELACK_TIMEOUT = 0.04  # Linux's 40 ms delayed-ACK timer
TIME_WAIT_SECONDS = 1.0  # shortened 2*MSL; configurable per connection

_SEQ_MASK = 0xFFFFFFFF


def seq_add(seq: int, delta: int) -> int:
    return (seq + delta) & _SEQ_MASK


def seq_sub(a: int, b: int) -> int:
    """``a - b`` in sequence space, as a small signed integer."""
    diff = (a - b) & _SEQ_MASK
    if diff > 0x7FFFFFFF:
        diff -= 0x100000000
    return diff


def seq_lt(a: int, b: int) -> bool:
    return seq_sub(a, b) < 0


def seq_le(a: int, b: int) -> bool:
    return seq_sub(a, b) <= 0


# Connection lifecycle states (RFC 793 names).
CLOSED = "CLOSED"
SYN_SENT = "SYN_SENT"
SYN_RCVD = "SYN_RCVD"
ESTABLISHED = "ESTABLISHED"
FIN_WAIT_1 = "FIN_WAIT_1"
FIN_WAIT_2 = "FIN_WAIT_2"
CLOSE_WAIT = "CLOSE_WAIT"
CLOSING = "CLOSING"
LAST_ACK = "LAST_ACK"
TIME_WAIT = "TIME_WAIT"


class TcpListener:
    """A passive socket: accepts SYNs on a port."""

    def __init__(self, manager: "TcpManager", port: int, iface_index: Optional[int]):
        self.manager = manager
        self.port = port
        self.iface_index = iface_index
        self.on_accept: Optional[Callable[["TcpConnection"], None]] = None
        self.closed = False
        self.accepted = 0
        # Options inherited by accepted connections.
        self.use_window_scaling = False
        self.rcv_wnd = DEFAULT_WINDOW

    def close(self) -> None:
        self.closed = True
        self.manager.listeners.pop(self.port, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TcpListener {self.manager.host.name}:{self.port}>"


class TcpConnection:
    """One TCP connection endpoint."""

    __slots__ = (
        "manager",
        "host",
        "sim",
        "local_ip",
        "local_port",
        "remote_ip",
        "remote_port",
        "iface_index",
        "state",
        "mss",
        "use_window_scaling",
        "rcv_wnd",
        "wscale_shift",
        "iss",
        "snd_una",
        "snd_nxt",
        "peer_window",
        "peer_wscale",
        "_send_buffer",
        "_fin_pending",
        "_fin_sent",
        "_fin_seq",
        "irs",
        "rcv_nxt",
        "_ooo",
        "_segs_since_ack",
        "cwnd",
        "ssthresh",
        "_dupacks",
        "_in_fast_recovery",
        "_recover",
        "srtt",
        "rttvar",
        "rto",
        "_rtt_seq",
        "_rtt_time",
        "_rtx_timer",
        "_delack_timer",
        "_rtx_deadline",
        "_delack_deadline",
        "_keepalive_timer",
        "_time_wait_timer",
        "keepalive_interval",
        "time_wait_seconds",
        "max_syn_retries",
        "max_data_retries",
        "_retries",
        "on_established",
        "on_data",
        "on_close",
        "on_icmp_error",
        "pmtu_reductions",
        "bytes_sent",
        "bytes_received",
        "segments_sent",
        "segments_received",
        "retransmitted_segments",
        "first_data_rx",
        "last_data_rx",
    )

    def __init__(
        self,
        manager: "TcpManager",
        local_ip: IPv4Address,
        local_port: int,
        remote_ip: IPv4Address,
        remote_port: int,
        iface_index: Optional[int] = None,
    ):
        self.manager = manager
        self.host = manager.host
        self.sim = manager.host.sim
        self.local_ip = local_ip
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.iface_index = iface_index

        self.state = CLOSED
        self.mss = TCP_DEFAULT_MSS
        self.use_window_scaling = False
        self.rcv_wnd = DEFAULT_WINDOW
        self.wscale_shift = 7  # only used when window scaling is enabled

        # Send side.
        self.iss = 0
        self.snd_una = 0
        self.snd_nxt = 0
        self.peer_window = DEFAULT_WINDOW
        self.peer_wscale = 0
        self._send_buffer = bytearray()  # bytes from snd_una onward (unacked + unsent)
        self._fin_pending = False
        self._fin_sent = False
        self._fin_seq: Optional[int] = None

        # Receive side.
        self.irs = 0
        self.rcv_nxt = 0
        self._ooo: Dict[int, bytes] = {}
        self._segs_since_ack = 0

        # Congestion control (Reno, byte-counted).
        self.cwnd = INITIAL_CWND_SEGMENTS * self.mss
        self.ssthresh = 1 << 30
        self._dupacks = 0
        self._in_fast_recovery = False
        self._recover = 0

        # RTO state (RFC 6298).
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = INITIAL_RTO
        self._rtt_seq: Optional[int] = None
        self._rtt_time = 0.0

        # Timers.  Retransmission and delayed-ACK re-arm on (nearly) every
        # segment, so both run through a lazy deadline field: the hot path
        # records the exact instant a ``restart`` would have armed and the
        # already-queued (stale) heap entry chases it when it fires.  The
        # wrapper callbacks below are the chase logic.
        self._rtx_timer = self.sim.timer(self._rtx_fire)
        self._delack_timer = self.sim.timer(self._delack_fire)
        self._rtx_deadline: Optional[float] = None
        self._delack_deadline: Optional[float] = None
        self._keepalive_timer = self.sim.timer(self._on_keepalive)
        self._time_wait_timer = self.sim.timer(self._on_time_wait_done)
        self.keepalive_interval: Optional[float] = None
        self.time_wait_seconds = TIME_WAIT_SECONDS

        # Limits.
        self.max_syn_retries = DEFAULT_SYN_RETRIES
        self.max_data_retries = DEFAULT_DATA_RETRIES
        self._retries = 0

        # Callbacks.
        self.on_established: Optional[Callable[["TcpConnection"], None]] = None
        self.on_data: Optional[Callable[[bytes], None]] = None
        self.on_close: Optional[Callable[[str], None]] = None
        self.on_icmp_error: Optional[Callable[[IcmpMessage, IPv4Packet], None]] = None

        # Counters.
        self.pmtu_reductions = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.segments_sent = 0
        self.segments_received = 0
        self.retransmitted_segments = 0
        self.first_data_rx: Optional[float] = None
        self.last_data_rx: Optional[float] = None

    # -- public API ---------------------------------------------------------

    @property
    def established(self) -> bool:
        return self.state == ESTABLISHED

    @property
    def key(self) -> Tuple[int, int, int, int]:
        """This connection's :attr:`TcpManager.connections` key."""
        return (self.local_ip._ip, self.local_port, self.remote_ip._ip, self.remote_port)

    def open_active(self) -> None:
        """Send the SYN (called by :meth:`TcpManager.connect`)."""
        self.iss = self.sim.rng.randrange(0, 1 << 32)
        self.snd_una = self.iss
        self.snd_nxt = seq_add(self.iss, 1)
        self.state = SYN_SENT
        self._retries = 0
        self._send_syn()

    def send(self, data: bytes) -> None:
        """Queue application bytes for transmission."""
        if self.state not in (ESTABLISHED, CLOSE_WAIT, SYN_SENT, SYN_RCVD):
            raise RuntimeError(f"cannot send in state {self.state}")
        if self._fin_pending or self._fin_sent:
            raise RuntimeError("cannot send after close()")
        self._send_buffer += data
        if self.state in (ESTABLISHED, CLOSE_WAIT):
            self._try_output()

    def close(self) -> None:
        """Graceful close: FIN goes out once all queued data is sent."""
        if self.state in (CLOSED, TIME_WAIT, LAST_ACK, CLOSING, FIN_WAIT_1, FIN_WAIT_2):
            return
        if self.state in (SYN_SENT,):
            self._teardown("closed")
            return
        self._fin_pending = True
        if self.state == ESTABLISHED:
            self.state = FIN_WAIT_1
        elif self.state == CLOSE_WAIT:
            self.state = LAST_ACK
        self._try_output()

    def abort(self) -> None:
        """Hard close: emit a RST and drop all state."""
        if self.state not in (CLOSED, TIME_WAIT):
            self._emit(TcpSegment(self.local_port, self.remote_port, seq=self.snd_nxt, flags=TCP_RST | TCP_ACK, ack=self.rcv_nxt))
        self._teardown("aborted")

    def enable_keepalive(self, interval: float) -> None:
        """Send keepalive probes (seq = snd_una-1, zero length) periodically."""
        if interval <= 0:
            raise ValueError(f"keepalive interval must be positive, got {interval}")
        self.keepalive_interval = interval
        self._keepalive_timer.start(interval)

    def flight_size(self) -> int:
        return seq_sub(self.snd_nxt, self.snd_una)

    def unsent_bytes(self) -> int:
        sent = seq_sub(self.snd_nxt, self.snd_una)
        if self._fin_sent:
            sent -= 1
        return len(self._send_buffer) - sent

    # -- segment construction -------------------------------------------------

    def _peer_window_bytes(self) -> int:
        return self.peer_window << self.peer_wscale

    def _advertised_window(self) -> int:
        if self.use_window_scaling:
            return min(self.rcv_wnd >> self.wscale_shift, 0xFFFF)
        return min(self.rcv_wnd, 0xFFFF)

    def _emit(self, segment: TcpSegment) -> None:
        segment.checksum = VALID  # computed only where a byte is observed
        packet = IPv4Packet(self.local_ip, self.remote_ip, PROTO_TCP, segment, header_checksum=VALID)
        self.segments_sent += 1
        self.host.send_ip_routed(packet, self.iface_index)

    def _send_syn(self) -> None:
        options = [TcpOption.mss(self.mss)]
        if self.use_window_scaling:
            options.append(TcpOption.window_scale(self.wscale_shift))
        flags = TCP_SYN if self.state == SYN_SENT else TCP_SYN | TCP_ACK
        segment = TcpSegment(
            self.local_port,
            self.remote_port,
            seq=self.iss,
            ack=self.rcv_nxt if flags & TCP_ACK else 0,
            flags=flags,
            window=self._advertised_window(),
            options=options,
        )
        self._emit(segment)
        self._rtx_restart()

    def _send_ack(self) -> None:
        self._delack_cancel()
        self._segs_since_ack = 0
        self._emit(
            TcpSegment(
                self.local_port,
                self.remote_port,
                seq=self.snd_nxt,
                ack=self.rcv_nxt,
                flags=TCP_ACK,
                window=self._advertised_window(),
            )
        )

    def _send_data_segment(self, seq: int, payload: bytes, push: bool) -> None:
        flags = TCP_ACK | (TCP_PSH if push else 0)
        self._emit(
            TcpSegment(
                self.local_port,
                self.remote_port,
                seq=seq,
                ack=self.rcv_nxt,
                flags=flags,
                window=self._advertised_window(),
                payload=payload,
            )
        )

    def _send_fin(self) -> None:
        self._emit(
            TcpSegment(
                self.local_port,
                self.remote_port,
                seq=self._fin_seq,
                ack=self.rcv_nxt,
                flags=TCP_FIN | TCP_ACK,
                window=self._advertised_window(),
            )
        )

    # -- output engine --------------------------------------------------------

    def _try_output(self) -> None:
        if self.state not in (ESTABLISHED, CLOSE_WAIT, FIN_WAIT_1, LAST_ACK, CLOSING):
            return
        window = min(self.cwnd, self._peer_window_bytes())
        sent_something = False
        while True:
            flight = self.flight_size()
            offset = seq_sub(self.snd_nxt, self.snd_una)
            if self._fin_sent:
                break
            available = len(self._send_buffer) - offset
            if available <= 0:
                break
            room = window - flight
            if room <= 0:
                break
            size = min(self.mss, available, room)
            if size <= 0:
                break
            payload = bytes(self._send_buffer[offset : offset + size])
            push = offset + size >= len(self._send_buffer)
            seq = self.snd_nxt
            self.snd_nxt = seq_add(self.snd_nxt, size)
            self.bytes_sent += size
            if self._rtt_seq is None:
                self._rtt_seq = seq_add(seq, size)
                self._rtt_time = self.sim.now
            self._send_data_segment(seq, payload, push)
            sent_something = True
        if (
            self._fin_pending
            and not self._fin_sent
            and seq_sub(self.snd_nxt, self.snd_una) == len(self._send_buffer)
        ):
            self._fin_seq = self.snd_nxt
            self.snd_nxt = seq_add(self.snd_nxt, 1)
            self._fin_sent = True
            self._send_fin()
            sent_something = True
        if sent_something or self.flight_size() > 0:
            if self._rtx_deadline is None:
                self._rtx_restart()

    # -- timers ------------------------------------------------------------------

    def _rtx_restart(self) -> None:
        """``_rtx_timer.restart(self.rto)``, with the heap push elided when
        an earlier wake-up is already queued (the common per-ACK case)."""
        sim = self.sim
        target = sim.now + self.rto
        self._rtx_deadline = target
        timer = self._rtx_timer
        if sim.fastpath and sim.bus is None and timer.armed and timer.deadline <= target:
            sim.fastpath_events_saved += 1
            return
        timer.restart(self.rto)

    def _rtx_cancel(self) -> None:
        self._rtx_deadline = None
        sim = self.sim
        if sim.fastpath and sim.bus is None:
            return  # the queued entry no-ops on the cleared deadline
        self._rtx_timer.cancel()

    def _rtx_fire(self) -> None:
        target = self._rtx_deadline
        if target is None:
            return  # lazily cancelled
        if target > self.sim.now:
            self._rtx_timer.start_at(target)  # chase the deferred deadline
            return
        self._rtx_deadline = None
        self._on_rtx_timeout()

    def _delack_arm(self) -> None:
        sim = self.sim
        target = sim.now + DELACK_TIMEOUT
        self._delack_deadline = target
        timer = self._delack_timer
        if sim.fastpath and sim.bus is None and timer.armed and timer.deadline <= target:
            sim.fastpath_events_saved += 1
            return
        timer.restart(DELACK_TIMEOUT)

    def _delack_cancel(self) -> None:
        self._delack_deadline = None
        sim = self.sim
        if sim.fastpath and sim.bus is None:
            return
        self._delack_timer.cancel()

    def _delack_fire(self) -> None:
        target = self._delack_deadline
        if target is None:
            return
        if target > self.sim.now:
            self._delack_timer.start_at(target)
            return
        self._delack_deadline = None
        self._send_ack()

    def _on_rtx_timeout(self) -> None:
        if self.state == CLOSED:
            return
        self._retries += 1
        if self.state == SYN_SENT:
            if self._retries > self.max_syn_retries:
                self._teardown("timeout")
                return
            self.rto = min(self.rto * 2, MAX_RTO)
            self._send_syn()
            return
        if self.state == SYN_RCVD:
            if self._retries > self.max_syn_retries:
                self._teardown("timeout")
                return
            self.rto = min(self.rto * 2, MAX_RTO)
            self._send_syn()
            return
        if self.flight_size() == 0:
            return
        if self._retries > self.max_data_retries:
            self._teardown("timeout")
            return
        # RFC 5681: timeout collapses the window.
        self.ssthresh = max(self.flight_size() // 2, 2 * self.mss)
        self.cwnd = self.mss
        self._dupacks = 0
        self._in_fast_recovery = False
        self._rtt_seq = None  # Karn: no sampling across retransmits
        self.rto = min(self.rto * 2, MAX_RTO)
        if self._fin_sent:
            self._retransmit_head()
            self._rtx_restart()
            return
        # Classic Reno RTO recovery (go-back-N): everything in flight is
        # presumed lost.  Rewind so slow start governs the resend and every
        # returning ACK pulls the recovery forward — without the rewind the
        # phantom flight blocks all new output, so no RTT samples arrive,
        # the RTO pins at its ceiling, and a lost train drains at one
        # segment per RTO.
        self.retransmitted_segments += 1
        self.snd_nxt = self.snd_una
        self._try_output()
        self._rtx_restart()

    def _retransmit_head(self) -> None:
        self.retransmitted_segments += 1
        if self._fin_sent and seq_sub(self._fin_seq, self.snd_una) == len(self._send_buffer) == 0:
            self._send_fin()
            return
        if not self._send_buffer:
            if self._fin_sent:
                self._send_fin()
            return
        size = min(self.mss, len(self._send_buffer))
        payload = bytes(self._send_buffer[:size])
        self._send_data_segment(self.snd_una, payload, push=size >= len(self._send_buffer))

    def handle_frag_needed(self, icmp: IcmpMessage) -> None:
        """Path MTU discovery (RFC 1191): shrink the MSS and resend.

        Without this — or when a NAT fails to translate the Frag Needed
        error (Table 2) — the connection black-holes, which is the §3.2.3
        failure mode the ICMP tests grade devices on.
        """
        from repro.packets.icmp import ICMP_DEST_UNREACH, UNREACH_FRAG_NEEDED

        if icmp.icmp_type != ICMP_DEST_UNREACH or icmp.code != UNREACH_FRAG_NEEDED:
            return
        # IP(20) + TCP(20) headers; RFC 1191's fallback when mtu is absent.
        new_mss = max((icmp.mtu or 576) - 40, 536 - 40)
        if new_mss >= self.mss:
            return
        self.mss = new_mss
        self.cwnd = max(self.cwnd, 2 * self.mss)
        self.pmtu_reductions += 1
        # Everything in flight above the tight link's MTU was dropped there;
        # rewind and resend it in right-sized segments (not a congestion
        # event, so the window is left alone).
        if self.flight_size() > 0 and not self._fin_sent:
            self.snd_nxt = self.snd_una
            self._dupacks = 0
            self._in_fast_recovery = False
            self._rtt_seq = None
            self._try_output()
            self._rtx_restart()

    def _on_keepalive(self) -> None:
        if self.state != ESTABLISHED or self.keepalive_interval is None:
            return
        # A keepalive probe: one garbage-free segment below snd_una.
        self._emit(
            TcpSegment(
                self.local_port,
                self.remote_port,
                seq=seq_add(self.snd_una, -1 & _SEQ_MASK),
                ack=self.rcv_nxt,
                flags=TCP_ACK,
                window=self._advertised_window(),
            )
        )
        self._keepalive_timer.start(self.keepalive_interval)

    def _on_time_wait_done(self) -> None:
        self._teardown("closed")

    # -- input ----------------------------------------------------------------------

    def segment_arrives(self, packet: IPv4Packet, segment: TcpSegment) -> None:
        self.segments_received += 1
        if self.state == SYN_SENT:
            self._handle_syn_sent(segment)
            return
        if self.state == CLOSED:
            return
        if segment.rst:
            if self._rst_acceptable(segment):
                self._teardown("reset")
            return
        if segment.syn and self.state == SYN_RCVD and not segment.ack_flag:
            # Our SYN|ACK was lost; answer the retransmitted SYN.
            self._send_syn()
            return
        if segment.ack_flag:
            self._process_ack(segment)
        if self.state == CLOSED:
            return
        if segment.payload or segment.fin:
            self._process_payload(packet, segment)
        elif seq_lt(segment.seq, self.rcv_nxt):
            # An empty out-of-window segment — a keepalive probe (RFC 1122
            # §4.2.3.6) — must be answered with an ACK.
            self._send_ack()
        if self.state in (ESTABLISHED, CLOSE_WAIT, FIN_WAIT_1, LAST_ACK, CLOSING):
            self._try_output()

    def _rst_acceptable(self, segment: TcpSegment) -> bool:
        # RFC 793 check: RST sequence must fall in the receive window.
        if self.state in (SYN_SENT, SYN_RCVD):
            return True
        return seq_le(self.rcv_nxt, segment.seq) and seq_lt(segment.seq, seq_add(self.rcv_nxt, max(self.rcv_wnd, 1)))

    def _handle_syn_sent(self, segment: TcpSegment) -> None:
        if segment.rst:
            if segment.ack_flag and segment.ack == self.snd_nxt:
                self._teardown("refused")
            return
        if segment.syn and not segment.ack_flag:
            # Simultaneous open (RFC 793 §3.4): our SYN crossed the peer's.
            # Move to SYN_RCVD and answer with SYN|ACK; the peer's SYN|ACK
            # (or ACK) completes the handshake.  This is the mechanism TCP
            # hole punching rides on.
            self.irs = segment.seq
            self.rcv_nxt = seq_add(segment.seq, 1)
            self.peer_window = segment.window
            self._apply_syn_options(segment)
            self.state = SYN_RCVD
            self._retries = 0
            self._send_syn()
            return
        if not (segment.syn and segment.ack_flag):
            return
        if segment.ack != self.snd_nxt:
            return
        self.irs = segment.seq
        self.rcv_nxt = seq_add(segment.seq, 1)
        self.snd_una = segment.ack
        self.peer_window = segment.window
        self._apply_syn_options(segment)
        self.state = ESTABLISHED
        self._retries = 0
        self._rtx_cancel()
        self._send_ack()
        if self.on_established is not None:
            self.on_established(self)
        self._try_output()

    def _apply_syn_options(self, segment: TcpSegment) -> None:
        from repro.packets.tcp import TCPOPT_MSS, TCPOPT_WSCALE

        peer_allows_wscale = False
        for option in segment.options:
            if option.kind == TCPOPT_MSS and len(option.data) == 2:
                self.mss = min(self.mss, int.from_bytes(option.data, "big"))
            elif option.kind == TCPOPT_WSCALE and len(option.data) == 1:
                peer_allows_wscale = True
                if self.use_window_scaling:
                    self.peer_wscale = option.data[0]
        if not peer_allows_wscale:
            self.peer_wscale = 0
        self.cwnd = INITIAL_CWND_SEGMENTS * self.mss

    def handle_inbound_syn(self, packet: IPv4Packet, segment: TcpSegment) -> None:
        """Initialize from a SYN received by a listener (passive open)."""
        self.irs = segment.seq
        self.rcv_nxt = seq_add(segment.seq, 1)
        self.peer_window = segment.window
        self.iss = self.sim.rng.randrange(0, 1 << 32)
        self.snd_una = self.iss
        self.snd_nxt = seq_add(self.iss, 1)
        self._apply_syn_options(segment)
        self.state = SYN_RCVD
        self._send_syn()

    def _process_ack(self, segment: TcpSegment) -> None:
        ack = segment.ack
        if self.state == SYN_RCVD:
            if ack == self.snd_nxt:
                self.state = ESTABLISHED
                self.snd_una = ack
                self._retries = 0
                self._rtx_cancel()
                self.peer_window = segment.window
                listener = self.manager.listeners.get(self.local_port)
                if listener is not None:
                    listener.accepted += 1
                    if listener.on_accept is not None:
                        listener.on_accept(self)
                if self.on_established is not None:
                    self.on_established(self)
            return
        if seq_lt(self.snd_nxt, ack):
            if seq_sub(ack, self.snd_una) <= len(self._send_buffer):
                # The data is ours — sent before an RTO rewind pulled
                # snd_nxt back (go-back-N keeps no snd_max).  Accept the
                # ACK and pull snd_nxt forward past the covered bytes.
                self.snd_nxt = ack
            else:
                # ACK for data we never sent; ignore.
                return
        self.peer_window = segment.window
        if seq_lt(self.snd_una, ack):
            acked = seq_sub(ack, self.snd_una)
            self._advance_snd_una(ack, acked)
        elif ack == self.snd_una and self.flight_size() > 0 and not segment.payload:
            self._on_dupack()

    def _advance_snd_una(self, ack: int, acked: int) -> None:
        # RTT sample (Karn's algorithm: only for never-retransmitted data).
        if self._rtt_seq is not None and seq_le(self._rtt_seq, ack):
            self._update_rto(self.sim.now - self._rtt_time)
            self._rtt_seq = None
        fin_acked = self._fin_sent and seq_sub(ack, self._fin_seq) >= 1
        data_acked = acked - (1 if fin_acked else 0)
        if data_acked > 0:
            del self._send_buffer[:data_acked]
        self.snd_una = ack
        self._retries = 0
        # Congestion control.
        if self._in_fast_recovery:
            if seq_lt(ack, self._recover):
                # Partial ACK (NewReno): retransmit the next hole.
                self._retransmit_head()
                self.cwnd = max(self.cwnd - data_acked + self.mss, self.mss)
            else:
                self.cwnd = self.ssthresh
                self._in_fast_recovery = False
                self._dupacks = 0
        else:
            self._dupacks = 0
            if self.cwnd < self.ssthresh:
                self.cwnd += min(data_acked, self.mss)
            else:
                self.cwnd += max(self.mss * self.mss // self.cwnd, 1)
        if self.flight_size() == 0:
            self._rtx_cancel()
        else:
            self._rtx_restart()
        # FIN progress.
        if fin_acked:
            if self.state == FIN_WAIT_1:
                self.state = FIN_WAIT_2
            elif self.state == CLOSING:
                self._enter_time_wait()
            elif self.state == LAST_ACK:
                self._teardown("closed")

    def _on_dupack(self) -> None:
        self._dupacks += 1
        if self._in_fast_recovery:
            self.cwnd += self.mss
            self._try_output()
            return
        if self._dupacks == 3:
            self.ssthresh = max(self.flight_size() // 2, 2 * self.mss)
            self.cwnd = self.ssthresh + 3 * self.mss
            self._in_fast_recovery = True
            self._recover = self.snd_nxt
            self._rtt_seq = None
            self._retransmit_head()

    def _update_rto(self, sample: float) -> None:
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = min(max(self.srtt + 4 * self.rttvar, MIN_RTO), MAX_RTO)

    def _process_payload(self, packet: IPv4Packet, segment: TcpSegment) -> None:
        seq = segment.seq
        payload = segment.payload
        if payload:
            if seq == self.rcv_nxt:
                self._deliver(payload)
                self._drain_ooo()
                self._segs_since_ack += 1
                if self._ooo or self._segs_since_ack >= 2 or segment.flags & TCP_PSH:
                    self._send_ack()
                elif self._delack_deadline is None:
                    self._delack_arm()
            elif seq_lt(self.rcv_nxt, seq):
                if len(self._ooo) < 256:
                    self._ooo.setdefault(seq, payload)
                self._send_ack()  # dup ACK
            else:
                overlap = seq_sub(self.rcv_nxt, seq)
                if overlap < len(payload):
                    self._deliver(payload[overlap:])
                    self._drain_ooo()
                self._send_ack()
        fin_seq = seq_add(seq, len(payload))
        if segment.fin and fin_seq == self.rcv_nxt:
            self.rcv_nxt = seq_add(self.rcv_nxt, 1)
            self._send_ack()
            self._handle_remote_fin()
        elif segment.fin and seq_lt(fin_seq, self.rcv_nxt):
            self._send_ack()

    def _deliver(self, data: bytes) -> None:
        self.rcv_nxt = seq_add(self.rcv_nxt, len(data))
        self.bytes_received += len(data)
        if self.first_data_rx is None:
            self.first_data_rx = self.sim.now
        self.last_data_rx = self.sim.now
        if self.on_data is not None:
            self.on_data(data)

    def _drain_ooo(self) -> None:
        while self.rcv_nxt in self._ooo:
            self._deliver(self._ooo.pop(self.rcv_nxt))

    def _handle_remote_fin(self) -> None:
        if self.state == ESTABLISHED:
            self.state = CLOSE_WAIT
            if self.on_close is not None:
                self.on_close("remote_fin")
        elif self.state == FIN_WAIT_1:
            self.state = CLOSING
        elif self.state == FIN_WAIT_2:
            self._enter_time_wait()

    def _enter_time_wait(self) -> None:
        self.state = TIME_WAIT
        self._rtx_deadline = None
        self._rtx_timer.cancel()
        self._time_wait_timer.start(self.time_wait_seconds)

    def _teardown(self, reason: str) -> None:
        previous = self.state
        self.state = CLOSED
        self._rtx_deadline = None
        self._delack_deadline = None
        self._rtx_timer.cancel()
        self._delack_timer.cancel()
        self._keepalive_timer.cancel()
        self._time_wait_timer.cancel()
        self.manager.forget(self)
        if previous != CLOSED and self.on_close is not None and reason != "remote_fin":
            self.on_close(reason)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TcpConnection {self.local_ip}:{self.local_port} -> "
            f"{self.remote_ip}:{self.remote_port} {self.state}>"
        )


class TcpManager:
    """Per-host TCP: connection table, listeners and demux."""

    def __init__(self, host: "Host"):
        self.host = host
        #: (local ip, local port, remote ip, remote port) -> connection, with
        #: int(ip)s: the stdlib IPv4Address hash builds a hex string per
        #: call, and this table is probed once per segment.
        self.connections: Dict[Tuple[int, int, int, int], TcpConnection] = {}
        self.listeners: Dict[int, TcpListener] = {}
        self._ports = EphemeralPortAllocator()
        self.rsts_sent = 0

    # -- sockets --------------------------------------------------------------

    def listen(self, port: int, on_accept: Optional[Callable[[TcpConnection], None]] = None, iface_index: Optional[int] = None) -> TcpListener:
        if port in self.listeners:
            raise OSError(f"TCP port {port} already listening on {self.host.name}")
        listener = TcpListener(self, port, iface_index)
        listener.on_accept = on_accept
        self.listeners[port] = listener
        return listener

    def connect(
        self,
        dst_ip: IPv4Address,
        dst_port: int,
        src_port: int = 0,
        iface_index: Optional[int] = None,
        src_ip: Optional[IPv4Address] = None,
        mss: Optional[int] = None,
        use_window_scaling: bool = False,
    ) -> TcpConnection:
        if src_ip is None:
            if iface_index is not None:
                src_ip = self.host.interfaces[iface_index].ip
            else:
                src_ip = self.host.source_ip_for(dst_ip)
        if src_ip is None:
            raise OSError(f"no route to {dst_ip} from {self.host.name}")
        if src_port == 0:
            src_port = self._ports.allocate(
                lambda p: (src_ip._ip, p, dst_ip._ip, dst_port) not in self.connections
            )
        key = (src_ip._ip, src_port, dst_ip._ip, dst_port)
        if key in self.connections:
            raise OSError(f"connection {(src_ip, src_port, dst_ip, dst_port)} already exists")
        conn = TcpConnection(self, src_ip, src_port, dst_ip, dst_port, iface_index)
        if mss is not None:
            conn.mss = mss
            conn.cwnd = INITIAL_CWND_SEGMENTS * mss
        conn.use_window_scaling = use_window_scaling
        self.connections[key] = conn
        conn.open_active()
        return conn

    def forget(self, conn: TcpConnection) -> None:
        self.connections.pop(conn.key, None)

    def owns_flow(self, local_ip: IPv4Address, local_port: int, remote_ip: IPv4Address, remote_port: int) -> bool:
        """Does a connection or listener claim this inbound segment?"""
        if (local_ip._ip, local_port, remote_ip._ip, remote_port) in self.connections:
            return True
        return local_port in self.listeners

    # -- demux ---------------------------------------------------------------

    def handle_packet(self, packet: IPv4Packet, iface: Interface) -> None:
        segment = packet.payload
        if not isinstance(segment, TcpSegment):
            return
        checksum = segment.checksum
        if checksum is not VALID and checksum is not None and self.host.validate_checksums:
            if not segment.checksum_ok(packet.src, packet.dst):
                self.host.checksum_drops += 1
                return
        key = (packet.dst._ip, segment.dst_port, packet.src._ip, segment.src_port)
        conn = self.connections.get(key)
        if conn is not None:
            conn.segment_arrives(packet, segment)
            return
        if segment.syn and not segment.ack_flag:
            listener = self.listeners.get(segment.dst_port)
            if listener is not None and not listener.closed:
                if listener.iface_index is None or listener.iface_index == iface.index:
                    conn = TcpConnection(
                        self, packet.dst, segment.dst_port, packet.src, segment.src_port,
                        iface_index=listener.iface_index,
                    )
                    conn.use_window_scaling = listener.use_window_scaling
                    conn.rcv_wnd = listener.rcv_wnd
                    self.connections[key] = conn
                    conn.handle_inbound_syn(packet, segment)
                    return
        if not segment.rst:
            self._send_rst_for(packet, segment)

    def _send_rst_for(self, packet: IPv4Packet, segment: TcpSegment) -> None:
        self.rsts_sent += 1
        if segment.ack_flag:
            rst = TcpSegment(segment.dst_port, segment.src_port, seq=segment.ack, flags=TCP_RST)
        else:
            rst = TcpSegment(
                segment.dst_port,
                segment.src_port,
                seq=0,
                ack=seq_add(segment.seq, segment.seq_space()),
                flags=TCP_RST | TCP_ACK,
            )
        self.host.send_ip(IPv4Packet(packet.dst, packet.src, PROTO_TCP, rst))

    def handle_icmp_error(self, icmp: IcmpMessage, embedded: IPv4Packet, iface: Interface) -> None:
        segment = embedded.payload
        if not isinstance(segment, TcpSegment):
            return
        key = (embedded.src._ip, segment.src_port, embedded.dst._ip, segment.dst_port)
        conn = self.connections.get(key)
        if conn is None:
            return
        conn.handle_frag_needed(icmp)
        if conn.on_icmp_error is not None:
            conn.on_icmp_error(icmp, embedded)
