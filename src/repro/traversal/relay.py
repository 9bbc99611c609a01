"""A TURN-style UDP relay (§5: "success rates of STUN, TURN ...").

Minimal allocate-and-relay semantics: a client sends an ``ALLOC`` request
to the relay's control port and receives a dedicated relay port.  Anything
the client then sends to its relay port is forwarded to the *other* peer of
the session, and vice versa — the relay pairs allocations by session id.

Because each peer talks only to the relay (a host it initiated contact
with), relaying works through *any* NAT that supports plain outbound UDP —
including symmetric ones — which is exactly why TURN exists as ICE's
fallback.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from ipaddress import IPv4Address
from typing import Dict, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.protocols.stack import Host

RELAY_CONTROL_PORT = 3480
MAGIC = b"RTRN"
TYPE_ALLOCATE = 1
TYPE_ALLOCATED = 2


def encode_allocate(session_id: int, peer_index: int) -> bytes:
    return MAGIC + bytes([TYPE_ALLOCATE, peer_index]) + session_id.to_bytes(4, "big")


def encode_allocated(session_id: int, relay_port: int) -> bytes:
    return MAGIC + bytes([TYPE_ALLOCATED, 0]) + session_id.to_bytes(4, "big") + relay_port.to_bytes(2, "big")


def decode(payload: bytes) -> Optional[Tuple[int, int, int, Optional[int]]]:
    if len(payload) < 10 or payload[:4] != MAGIC:
        return None
    msg_type = payload[4]
    peer_index = payload[5]
    session_id = int.from_bytes(payload[6:10], "big")
    relay_port = None
    if msg_type == TYPE_ALLOCATED and len(payload) >= 12:
        relay_port = int.from_bytes(payload[10:12], "big")
    return msg_type, peer_index, session_id, relay_port


@dataclass
class _Allocation:
    session_id: int
    peer_index: int
    socket: object
    client: Optional[Tuple[IPv4Address, int]] = None


class RelayServer:
    """The relay: control port + per-allocation relay ports."""

    def __init__(self, host: "Host", control_port: int = RELAY_CONTROL_PORT):
        self.host = host
        self.control = host.udp.bind(control_port)
        self.control.on_receive = self._on_control
        # (session, peer_index) -> allocation
        self._allocations: Dict[Tuple[int, int], _Allocation] = {}
        self.datagrams_relayed = 0
        self._sessions = itertools.count(1)

    def new_session_id(self) -> int:
        """A session id unique on this relay (and independent of any other run)."""
        return next(self._sessions)

    def _on_control(self, payload: bytes, src_ip: IPv4Address, src_port: int) -> None:
        decoded = decode(payload)
        if decoded is None:
            return
        msg_type, peer_index, session_id, _port = decoded
        if msg_type != TYPE_ALLOCATE or peer_index not in (0, 1):
            return
        key = (session_id, peer_index)
        allocation = self._allocations.get(key)
        if allocation is None:
            socket = self.host.udp.bind(0)
            allocation = _Allocation(session_id, peer_index, socket)
            socket.on_receive = self._relay_handler(allocation)
            self._allocations[key] = allocation
        allocation.client = (src_ip, src_port)
        self.control.send_to(encode_allocated(session_id, allocation.socket.port), src_ip, src_port)

    def _relay_handler(self, allocation: _Allocation):
        def on_receive(payload: bytes, src_ip: IPv4Address, src_port: int) -> None:
            allocation.client = (src_ip, src_port)  # track the live mapping
            other = self._allocations.get((allocation.session_id, 1 - allocation.peer_index))
            if other is None or other.client is None:
                return
            self.datagrams_relayed += 1
            other.socket.send_to(payload, other.client[0], other.client[1])

        return on_receive

    def close(self) -> None:
        self.control.close()
        for allocation in self._allocations.values():
            allocation.socket.close()
        self._allocations.clear()

