"""ICE-lite: try direct UDP hole punching, fall back to a TURN-style relay.

The last of §5's traversal trio.  Candidate priority follows ICE's spirit
(RFC 5245): server-reflexive (direct punch) beats relayed; the relayed
candidate always works, so connectivity is guaranteed and the interesting
output is *which path won* per device pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from ipaddress import IPv4Address
from typing import Dict, Generator, Optional, Tuple

from repro.core.runtime import Future, SimTask, run_tasks
from repro.obs.bus import RELAY_FALLBACK
from repro.testbed.testbed import Testbed
from repro.traversal.holepunch import HolePunchExperiment, HolePunchOutcome
from repro.traversal.relay import RELAY_CONTROL_PORT, RelayServer, decode, encode_allocate

RELAY_TIMEOUT = 5.0


@dataclass
class IceOutcome:
    """How (and whether) two peers got connected."""

    tag_a: str
    tag_b: str
    connected: bool
    path: Optional[str]  # "direct" | "relayed" | None
    direct: Optional[HolePunchOutcome] = None

    def __str__(self) -> str:
        if not self.connected:
            return f"ice {self.tag_a} <-> {self.tag_b}: FAILED"
        return f"ice {self.tag_a} <-> {self.tag_b}: connected via {self.path}"


class IceLiteSession:
    """Connect the clients behind two gateways, direct-first."""

    def __init__(self, bed: Testbed):
        self.bed = bed
        bed.server.ip_forwarding = True
        self.punch = HolePunchExperiment(bed)
        self.relay = RelayServer(bed.server)

    def connect(self, tag_a: str, tag_b: str) -> IceOutcome:
        direct = self.punch.attempt(tag_a, tag_b)
        if direct.success:
            return IceOutcome(tag_a, tag_b, True, "direct", direct)
        bus = self.bed.sim.bus
        if bus is not None:
            bus.emit(RELAY_FALLBACK, pair=f"{tag_a}+{tag_b}")
        relayed = self._relay_pair(tag_a, tag_b)
        if relayed:
            return IceOutcome(tag_a, tag_b, True, "relayed", direct)
        return IceOutcome(tag_a, tag_b, False, None, direct)

    # -- relayed candidate ---------------------------------------------------

    def _relay_pair(self, tag_a: str, tag_b: str) -> bool:
        bed = self.bed
        session_id = self.relay.new_session_id()
        port_a, port_b = bed.port(tag_a), bed.port(tag_b)
        sock_a = bed.client.udp.bind(0, port_a.client_iface_index)
        sock_b = bed.client.udp.bind(0, port_b.client_iface_index)
        delivered = Future(timeout=RELAY_TIMEOUT * 3)

        def procedure() -> Generator:
            relay_port_a = yield self._allocate(sock_a, port_a.server_ip, session_id, 0)
            relay_port_b = yield self._allocate(sock_b, port_b.server_ip, session_id, 1)
            if relay_port_a is None or relay_port_b is None:
                delivered.set_result(False)
                return
            got_b = Future(timeout=RELAY_TIMEOUT)
            got_a = Future(timeout=RELAY_TIMEOUT)
            # Match on content: permissive NATs also deliver the peer's
            # warm-up datagram, which must not satisfy the data exchange.
            sock_b.on_receive = lambda data, ip, p: got_b.set_result(data) if data == b"a-to-b" else None
            sock_a.on_receive = lambda data, ip, p: got_a.set_result(data) if data == b"b-to-a" else None
            # Keep both relay mappings warm, then exchange in both directions.
            sock_b.send_to(b"warmup", port_b.server_ip, relay_port_b)
            yield 0.1
            sock_a.send_to(b"a-to-b", port_a.server_ip, relay_port_a)
            data_b = yield got_b
            sock_b.send_to(b"b-to-a", port_b.server_ip, relay_port_b)
            data_a = yield got_a
            delivered.set_result(data_b == b"a-to-b" and data_a == b"b-to-a")

        task = SimTask(bed.sim, procedure(), name=f"relay:{tag_a}-{tag_b}")
        run_tasks(bed.sim, [task])
        sock_a.close()
        sock_b.close()
        return bool(delivered.value)

    @staticmethod
    def _allocate(sock, relay_ip: IPv4Address, session_id: int, peer_index: int) -> Future:
        """Allocate a relay port; the Future resolves to the port (or None)."""
        future = Future(timeout=RELAY_TIMEOUT)
        original = sock.on_receive

        def on_receive(payload: bytes, src_ip: IPv4Address, src_port: int) -> None:
            decoded = decode(payload)
            if decoded is None:
                if original is not None:
                    original(payload, src_ip, src_port)
                return
            msg_type, _peer, sid, relay_port = decoded
            if msg_type == 2 and sid == session_id:
                future.set_result(relay_port)

        sock.on_receive = on_receive
        sock.send_to(encode_allocate(session_id, peer_index), relay_ip, RELAY_CONTROL_PORT)
        return future

    def matrix(self, tags) -> Dict[Tuple[str, str], IceOutcome]:
        outcomes = {}
        tags = list(tags)
        for i, tag_a in enumerate(tags):
            for tag_b in tags[i + 1 :]:
                outcomes[(tag_a, tag_b)] = self.connect(tag_a, tag_b)
        return outcomes

    def close(self) -> None:
        self.punch.close()
        self.relay.close()
