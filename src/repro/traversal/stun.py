"""A compact STUN-like binding protocol and the RFC 3489 classification.

The wire format is deliberately minimal (this is a laboratory, not an
interop client): requests carry a magic and a transaction id; responses
echo the transaction id and carry the *mapped address* — the source
IP/port the server saw, i.e. the NAT's external binding.  A request can ask
the server to respond **from its alternate port**, which is what separates
address-restricted from port-restricted filtering.

Classification (RFC 3489 §10.1 terminology, RFC 4787 in parentheses):

* **symmetric** — mapped port differs per destination (address[-and-port]-
  dependent mapping);
* **full cone** — endpoint-independent mapping *and* filtering;
* **restricted cone** — endpoint-independent mapping, address-dependent
  filtering;
* **port-restricted cone** — endpoint-independent mapping, address-and-
  port-dependent filtering.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from ipaddress import IPv4Address
from typing import Dict, Generator, Optional, Tuple, TYPE_CHECKING

from repro.core import registry
from repro.core.runtime import Future, SimTask, run_tasks
from repro.obs.bus import STUN_REQUEST, STUN_RESPONSE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.protocols.stack import Host
    from repro.testbed.testbed import Testbed

STUN_PORT = 3478
STUN_ALT_PORT = 3479
MAGIC = b"RSTN"
TYPE_REQUEST = 1
TYPE_RESPONSE = 2
FLAG_REPLY_FROM_ALT_PORT = 0x01


@dataclass(frozen=True)
class MappedAddress:
    """The reflexive transport address a STUN response reports."""

    ip: IPv4Address
    port: int

    def __str__(self) -> str:
        return f"{self.ip}:{self.port}"


@dataclass(frozen=True)
class StunClassification:
    """Verdict of the classification algorithm for one device."""

    mapping: str  # "endpoint_independent" | "symmetric"
    filtering: Optional[str]  # "endpoint_independent" | "address_dependent" | "address_and_port_dependent"
    preserves_port: bool

    @property
    def rfc3489_type(self) -> str:
        if self.mapping == "symmetric":
            return "symmetric"
        return {
            "endpoint_independent": "full cone",
            "address_dependent": "restricted cone",
            "address_and_port_dependent": "port-restricted cone",
            None: "cone (filtering unknown)",
        }[self.filtering]

    @property
    def hole_punching_friendly(self) -> bool:
        """Ford et al.'s "well-behaving NAT": endpoint-independent mapping."""
        return self.mapping == "endpoint_independent"


def encode_request(txid: int, flags: int = 0) -> bytes:
    return MAGIC + bytes([TYPE_REQUEST, flags]) + txid.to_bytes(4, "big")


def encode_response(txid: int, mapped: MappedAddress) -> bytes:
    return (
        MAGIC
        + bytes([TYPE_RESPONSE, 0])
        + txid.to_bytes(4, "big")
        + mapped.ip.packed
        + mapped.port.to_bytes(2, "big")
    )


def decode(payload: bytes) -> Optional[Tuple[int, int, int, Optional[MappedAddress]]]:
    """Returns (type, flags, txid, mapped-or-None), or None if not ours."""
    if len(payload) < 10 or payload[:4] != MAGIC:
        return None
    msg_type = payload[4]
    flags = payload[5]
    txid = int.from_bytes(payload[6:10], "big")
    mapped = None
    if msg_type == TYPE_RESPONSE and len(payload) >= 16:
        mapped = MappedAddress(IPv4Address(payload[10:14]), int.from_bytes(payload[14:16], "big"))
    return msg_type, flags, txid, mapped


class StunServer:
    """Binding server on two UDP ports (primary + alternate)."""

    def __init__(self, host: "Host", port: int = STUN_PORT, alt_port: int = STUN_ALT_PORT):
        self.host = host
        self.port = port
        self.alt_port = alt_port
        self._primary = host.udp.bind(port)
        self._alternate = host.udp.bind(alt_port)
        self._primary.on_receive = self._on_request
        self._alternate.on_receive = self._on_request_alt
        self.requests_served = 0

    def _serve(self, socket, payload: bytes, src_ip: IPv4Address, src_port: int) -> None:
        decoded = decode(payload)
        if decoded is None:
            return
        msg_type, flags, txid, _mapped = decoded
        if msg_type != TYPE_REQUEST:
            return
        self.requests_served += 1
        bus = self.host.sim.bus
        if bus is not None:
            bus.emit(STUN_REQUEST, port=src_port)
        mapped = MappedAddress(src_ip, src_port)
        reply_socket = self._alternate if flags & FLAG_REPLY_FROM_ALT_PORT else socket
        reply_socket.send_to(encode_response(txid, mapped), src_ip, src_port)

    def _on_request(self, payload: bytes, src_ip: IPv4Address, src_port: int) -> None:
        self._serve(self._primary, payload, src_ip, src_port)

    def _on_request_alt(self, payload: bytes, src_ip: IPv4Address, src_port: int) -> None:
        self._serve(self._alternate, payload, src_ip, src_port)

    def close(self) -> None:
        self._primary.close()
        self._alternate.close()


class StunClient:
    """One local socket issuing binding requests (coroutine style)."""

    def __init__(self, host: "Host", iface_index: Optional[int] = None, local_port: int = 0):
        self.host = host
        self.socket = host.udp.bind(local_port, iface_index)
        self._waiters: Dict[int, Future] = {}
        # Per client, so a request's bytes never depend on what else ran in
        # the process (e.g. the pair shards before it at jobs=1).
        self._txids = itertools.count(1)
        self.socket.on_receive = self._on_datagram

    @property
    def local_port(self) -> int:
        return self.socket.port

    def _on_datagram(self, payload: bytes, src_ip: IPv4Address, src_port: int) -> None:
        decoded = decode(payload)
        if decoded is None:
            return
        msg_type, _flags, txid, mapped = decoded
        if msg_type != TYPE_RESPONSE:
            return
        waiter = self._waiters.pop(txid, None)
        if waiter is not None:
            bus = self.host.sim.bus
            if bus is not None:
                bus.emit(STUN_RESPONSE, port=mapped.port if mapped is not None else None)
            waiter.set_result(mapped)

    def request(
        self,
        server_ip: IPv4Address,
        server_port: int,
        reply_from_alt_port: bool = False,
        timeout: float = 2.0,
    ) -> Future:
        """Send one binding request; the Future resolves to a
        :class:`MappedAddress` (or None on timeout/filtering)."""
        txid = next(self._txids)
        future = Future(timeout=timeout)
        self._waiters[txid] = future
        flags = FLAG_REPLY_FROM_ALT_PORT if reply_from_alt_port else 0
        self.socket.send_to(encode_request(txid, flags), server_ip, server_port)
        return future

    def close(self) -> None:
        self.socket.close()


def classify(
    client: StunClient,
    server_ip: IPv4Address,
    port: int = STUN_PORT,
    alt_port: int = STUN_ALT_PORT,
) -> Generator:
    """Classification coroutine; returns a :class:`StunClassification`.

    Test I: request to (server, port) → mapped address A.
    Test II: request to (server, port) asking for the reply from alt_port —
        run *before* the client ever talks to alt_port, so the reply is
        genuinely unsolicited for port-restricted filters.
        reply received  ⇒ at most address-dependent filtering;
        no reply        ⇒ address-and-port-dependent filtering.
    Test III: request to (server, alt_port) → mapped address B.
        A.port != B.port  ⇒ symmetric.
    (With a single server address, endpoint-independent vs address-dependent
    filtering is indistinguishable; we report address classes relative to
    the same host, which is what hole punching between peers cares about.)
    """
    first = yield client.request(server_ip, port)
    if first is None:
        raise RuntimeError("STUN server unreachable through the device under test")
    cross = yield client.request(server_ip, port, reply_from_alt_port=True)
    filtering = "address_dependent" if cross is not None else "address_and_port_dependent"
    second = yield client.request(server_ip, alt_port)
    if second is None:
        # The alt-port request itself was a fresh remote; a reply can only
        # be missing if something upstream broke.
        raise RuntimeError("STUN alternate port unreachable")
    if first.port != second.port:
        return StunClassification("symmetric", None, preserves_port=False)
    return StunClassification(
        "endpoint_independent",
        filtering,
        preserves_port=first.port == client.local_port,
    )


def classify_all(bed: "Testbed") -> Dict[str, StunClassification]:
    """Classify every device of ``bed``, one at a time, against one STUN server."""
    server = StunServer(bed.server)
    results: Dict[str, StunClassification] = {}
    for tag in bed.tags():
        port = bed.port(tag)
        client = StunClient(bed.client, iface_index=port.client_iface_index)
        task = SimTask(bed.sim, classify(client, port.server_ip), name=f"stun:{tag}")
        run_tasks(bed.sim, [task])
        client.close()
        results[tag] = task.result
    server.close()
    return results


registry.register_family(registry.ExperimentFamily(
    name="stun_classify",
    order=140,
    cell_type=StunClassification,
    probe_factory=lambda knobs: classify_all,
    default_selected=False,
    # In campaign order: `repro classify` lists devices as they were given.
    view=registry.row_view(lambda verdict: f"{verdict.rfc3489_type:<22} port-preserved:{verdict.preserves_port}",
                           order=list),
))

registry.register_view_section("stun_classify", 88, "STUN classification (RFC 3489)")
