"""The NAT engine: binding table, port allocation, and timeout machinery.

This is where most of the behaviours the paper measures are produced:

* **UDP binding timeouts** (UDP-1/2/3): every binding runs a small traffic-
  pattern state machine (``outbound_only`` → ``after_inbound`` →
  ``bidirectional``) and its idle timer is re-armed with the state's timeout
  from the device's :class:`~repro.devices.profile.UdpTimeoutPolicy`.
* **Coarse timers**: devices with a timer wheel expire bindings on absolute
  multiples of the wheel period, which is what spreads repeated measurements
  of the same device (the wide IQRs of we/al/je/ng5).
* **Port preservation and binding reuse** (UDP-4) via the allocation rules
  in :class:`~repro.devices.profile.NatPolicy`.
* **Per-service timeouts** (UDP-5) via per-port overrides.
* **TCP binding lifetimes** (TCP-1) with transitory/established states and
  FIN/RST handling, and the **binding-table cap** (TCP-4).
"""

from __future__ import annotations

import math
from ipaddress import IPv4Address
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.devices.profile import (
    DeviceProfile,
    FilteringBehavior,
    MappingBehavior,
    PortAllocation,
)
from repro.netsim.sim import Simulation, Timer

# Binding traffic-pattern states (UDP).
STATE_OUTBOUND_ONLY = "outbound_only"
STATE_AFTER_INBOUND = "after_inbound"
STATE_BIDIRECTIONAL = "bidirectional"

# TCP binding states.
TCP_TRANSITORY = "transitory"
TCP_ESTABLISHED = "established"
TCP_CLOSING = "closing"

Endpoint = Tuple[IPv4Address, int]


class PortExhaustedError(RuntimeError):
    """No free external port satisfies this allocation.

    Raised by the allocation paths (:meth:`NatEngine._allocate_sequential`
    and any installed :attr:`NatEngine.allocator`) when the port pool is
    genuinely out of candidates.  :meth:`NatEngine.lookup_or_create` turns
    it into a deterministic refusal — the packet that would have opened the
    binding is dropped with cause ``port_exhausted`` — instead of letting it
    escape and kill the whole shard.
    """


class Binding:
    """One NAT binding (one row of the session table)."""

    __slots__ = (
        "proto",
        "int_ip",
        "int_port",
        "ext_port",
        "remote",
        "gen",
        "state",
        "tcp_state",
        "fin_seen_out",
        "fin_seen_in",
        "remotes_seen",
        "created_at",
        "last_activity",
        "timer",
        "lazy_deadline",
        "packets_out",
        "packets_in",
    )

    def __init__(self, proto: str, int_ip: IPv4Address, int_port: int, ext_port: int, remote: Endpoint):
        self.proto = proto
        self.int_ip = int_ip
        self.int_port = int_port
        self.ext_port = ext_port
        self.remote = remote
        #: Engine-wide creation ordinal.  Expiry timers carry it so a timer
        #: armed for a torn-down binding can never expire a *new* binding
        #: that re-used the same mapping key (RST teardown + instant rebind).
        self.gen = 0
        self.state = STATE_OUTBOUND_ONLY
        self.tcp_state = TCP_TRANSITORY
        self.fin_seen_out = False
        self.fin_seen_in = False
        #: Remote endpoints as ``(int(ip), port)`` — int keys hash far
        #: faster than IPv4Address and this set grows one probe per packet.
        self.remotes_seen: Set[Tuple[int, int]] = {(remote[0]._ip, remote[1])}
        self.created_at = 0.0
        self.last_activity = 0.0
        self.timer: Optional[Timer] = None
        #: Fast-path deferred expiry instant.  Per-packet re-arms record the
        #: exact deadline the staged engine's ``restart`` would have armed
        #: (same float arithmetic) without touching the heap; the already
        #: armed, now-stale timer chases it when it fires.
        self.lazy_deadline: Optional[float] = None
        self.packets_out = 0
        self.packets_in = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Binding {self.proto} {self.int_ip}:{self.int_port} <-> :{self.ext_port} "
            f"remote={self.remote} state={self.state}>"
        )


class NatEngine:
    """Session table + policy for one gateway."""

    def __init__(self, sim: Simulation, profile: DeviceProfile):
        self.sim = sim
        self.profile = profile
        # Outbound lookup: mapping key -> binding.
        self._by_mapping: Dict[tuple, Binding] = {}
        # Inbound lookup: (proto, ext_port) -> binding.
        self._by_external: Dict[Tuple[str, int], Binding] = {}
        # Live bindings per protocol, kept with ``_by_mapping`` so the
        # table-cap check before each new binding is O(1), not a scan.
        self._live: Dict[str, int] = {"udp": 0, "tcp": 0}
        # Hold-down history for expired bindings: 5-tuple (with int(ip)s, like
        # the mapping keys) -> (port, when).
        self._expired: Dict[tuple, Tuple[int, float]] = {}
        self._used_ports: Dict[str, Set[int]] = {"udp": set(), "tcp": set()}
        self._next_port: Dict[str, int] = {
            "udp": profile.nat.first_external_port,
            "tcp": profile.nat.first_external_port,
        }
        # ICMP echo bindings: ext ident -> (int_ip, int ident); and reverse.
        self._echo_out: Dict[Tuple[IPv4Address, int], int] = {}
        self._echo_in: Dict[int, Tuple[IPv4Address, int]] = {}
        # Generic IP-only bindings for unknown transports:
        # (proto_number, remote_ip) -> internal ip, and the reverse map.
        self._generic_out: Dict[Tuple[int, IPv4Address, IPv4Address], bool] = {}
        self._generic_in: Dict[Tuple[int, IPv4Address], IPv4Address] = {}
        self.bindings_created = 0
        self.bindings_expired = 0
        self.bindings_refused = 0
        self.bindings_flushed = 0
        self.inbound_filtered = 0
        #: Creation ordinal stamped onto every binding (see
        #: :attr:`Binding.gen`); monotonically increasing, never reset.
        self._binding_gen = 0
        #: Port-pool refusals, per protocol.  Kept separately so a TCP SYN
        #: flood draining the TCP pool cannot mask (or inflate) the UDP
        #: exhaustion signal — the two pools are independent resources.
        self._port_exhausted: Dict[str, int] = {"udp": 0, "tcp": 0}
        #: Cause of the most recent :meth:`lookup_or_create` refusal, per
        #: protocol (``"table_full"``, ``"rate_limited"``,
        #: ``"port_exhausted"``), or ``None`` when that protocol's last call
        #: succeeded.  The gateway's drop paths read this through
        #: :meth:`refusal_cause` to attribute each packet loss precisely.
        self._last_refusal: Dict[str, Optional[str]] = {"udp": None, "tcp": None}
        #: Back-compat view: the most recent refusal cause across protocols.
        self.last_refusal: Optional[str] = None
        #: Optional hook: ports the gateway's own services own and the NAT
        #: must never hand out (e.g. the DNS proxy's upstream sockets).
        self.port_reserved: Optional[Callable[[str, int], bool]] = None
        #: Optional pluggable port allocator (duck-typed: ``allocate(proto,
        #: int_ip, int_port, remote) -> port``, ``release(proto, ext_port)``,
        #: ``reset()``).  When set it owns port selection entirely — the CGN
        #: tier installs a per-subscriber block allocator here.
        self.allocator: Optional[Any] = None
        # Session-table setup-rate limiter (§5 future work: binding rate).
        self._rate_bucket = None
        if profile.nat.max_binding_rate is not None:
            from repro.netsim.queues import TokenBucket

            # One token per binding; rate_bps = 8 * rate makes units line up.
            self._rate_bucket = TokenBucket(profile.nat.max_binding_rate * 8.0, 4)
        self.bindings_rate_refused = 0

    # -- introspection ------------------------------------------------------

    def binding_count(self, proto: Optional[str] = None) -> int:
        if proto is None:
            return len(self._by_mapping)
        return self._live.get(proto, 0)

    @property
    def bindings_port_exhausted(self) -> int:
        """Port-pool refusals across both protocols (sum of the per-proto
        counters; see :meth:`port_exhausted_for`)."""
        return self._port_exhausted["udp"] + self._port_exhausted["tcp"]

    def port_exhausted_for(self, proto: str) -> int:
        """Port-pool refusals of ``proto`` bindings alone."""
        return self._port_exhausted[proto]

    def refusal_cause(self, proto: str) -> Optional[str]:
        """Cause of the most recent refusal *for this protocol* (or None)."""
        return self._last_refusal[proto]

    def find_by_external(self, proto: str, ext_port: int) -> Optional[Binding]:
        return self._by_external.get((proto, ext_port))

    # -- mapping keys ---------------------------------------------------------

    def _mapping_key(self, proto: str, int_ip: IPv4Address, int_port: int, remote: Endpoint) -> tuple:
        # Keys carry int(ip): the stdlib IPv4Address hash builds a hex string
        # per call, too slow for a dict probed on every forwarded packet.
        mapping = self.profile.nat.mapping
        if mapping is MappingBehavior.ENDPOINT_INDEPENDENT:
            return (proto, int_ip._ip, int_port)
        if mapping is MappingBehavior.ADDRESS_DEPENDENT:
            return (proto, int_ip._ip, int_port, remote[0]._ip)
        return (proto, int_ip._ip, int_port, remote[0]._ip, remote[1])

    # -- port allocation ---------------------------------------------------------

    def _port_free(self, proto: str, port: int) -> bool:
        if port <= 0 or port in self._used_ports[proto]:
            return False
        if self.port_reserved is not None and self.port_reserved(proto, port):
            return False
        return True

    def _allocate_sequential(self, proto: str) -> int:
        # Scan exactly one full wrap of the pool [first_external_port, 65535]:
        # after that every candidate has been visited once, so the pool is
        # provably exhausted and the allocation fails deterministically
        # (instead of re-scanning ports it already rejected).
        pool_size = 65536 - self.profile.nat.first_external_port
        for _ in range(pool_size):
            port = self._next_port[proto]
            self._next_port[proto] += 1
            if self._next_port[proto] > 65535:
                self._next_port[proto] = self.profile.nat.first_external_port
            if self._port_free(proto, port):
                return port
        raise PortExhaustedError(
            f"{self.profile.tag}: no free external {proto} port in "
            f"[{self.profile.nat.first_external_port}, 65535]"
        )

    def _allocate_random(self, proto: str) -> int:
        low = self.profile.nat.first_external_port
        for _ in range(4096):
            port = self.sim.rng.randrange(low, 65536)
            if self._port_free(proto, port):
                return port
        return self._allocate_sequential(proto)

    def _choose_external_port(self, proto: str, int_ip: IPv4Address, int_port: int, remote: Endpoint) -> int:
        if self.allocator is not None:
            # A pooled allocator owns the whole decision: preservation and
            # hold-down reuse are per-subscriber policies it implements (or
            # deliberately doesn't — a CGN never preserves client ports).
            return self.allocator.allocate(proto, int_ip, int_port, remote)
        nat = self.profile.nat
        history = self._expired.get((proto, int_ip._ip, int_port, remote[0]._ip, remote[1]))
        in_holddown = history is not None and (self.sim.now - history[1]) <= nat.reuse_holddown
        if in_holddown:
            old_port, _when = history
            if nat.reuse_expired_binding:
                if self._port_free(proto, old_port):
                    return old_port
            else:
                # The device refuses to re-use the just-expired binding: it
                # allocates a fresh port even though it normally preserves.
                if nat.port_allocation is PortAllocation.RANDOM:
                    return self._allocate_random(proto)
                return self._allocate_sequential(proto)
        if nat.port_preservation and self._port_free(proto, int_port):
            return int_port
        if nat.port_allocation is PortAllocation.RANDOM:
            return self._allocate_random(proto)
        return self._allocate_sequential(proto)

    # -- binding lifecycle -----------------------------------------------------------

    def _max_bindings(self, proto: str) -> int:
        if proto == "tcp":
            return self.profile.nat.max_tcp_bindings
        return self.profile.nat.max_udp_bindings

    def lookup_or_create(
        self,
        proto: str,
        int_ip: IPv4Address,
        int_port: int,
        remote: Endpoint,
    ) -> Optional[Binding]:
        """Outbound packet path: find the flow's binding or create one."""
        self.last_refusal = None
        self._last_refusal[proto] = None
        key = self._mapping_key(proto, int_ip, int_port, remote)
        binding = self._by_mapping.get(key)
        if binding is not None:
            binding.remotes_seen.add((remote[0]._ip, remote[1]))
            return binding
        bus = self.sim.bus
        if self._live[proto] >= self._max_bindings(proto):
            self.bindings_refused += 1
            self._refuse(proto, "table_full", bus)
            return None
        if self._rate_bucket is not None and not self._rate_bucket.try_consume(self.sim.now, 1):
            # Session-table CPU saturated: the packet that would have opened
            # the binding is dropped (clients retry and usually succeed).
            self.bindings_rate_refused += 1
            self._refuse(proto, "rate_limited", bus)
            return None
        try:
            ext_port = self._choose_external_port(proto, int_ip, int_port, remote)
        except PortExhaustedError:
            # Deterministic drop-with-cause: an exhausted pool refuses the
            # binding the same way a full session table does, rather than
            # blowing up the shard that happened to send one packet too many.
            self._port_exhausted[proto] += 1
            self._refuse(proto, "port_exhausted", bus)
            return None
        binding = Binding(proto, int_ip, int_port, ext_port, remote)
        binding.created_at = self.sim.now
        binding.last_activity = self.sim.now
        self._binding_gen += 1
        binding.gen = self._binding_gen
        self._by_mapping[key] = binding
        self._live[proto] += 1
        self._by_external[(proto, ext_port)] = binding
        self._used_ports[proto].add(ext_port)
        binding.timer = self.sim.timer(self._expire, key, binding.gen)
        self.bindings_created += 1
        if bus is not None:
            # Port allocation is part of the bind event: ext_port vs int_port
            # shows preservation/reuse decisions (UDP-4) on the wire record.
            bus.emit(
                "nat.bind",
                dev=self.profile.tag,
                proto=proto,
                int_ip=str(int_ip),
                int_port=int_port,
                ext_port=ext_port,
                remote_ip=str(remote[0]),
                remote_port=remote[1],
                preserved=ext_port == int_port,
            )
        return binding

    def _refuse(self, proto: str, cause: str, bus) -> None:
        """Record a :meth:`lookup_or_create` refusal and publish it."""
        self.last_refusal = cause
        self._last_refusal[proto] = cause
        if bus is not None:
            bus.emit("nat.refused", dev=self.profile.tag, proto=proto, cause=cause)

    def _expire(self, key: tuple, gen: int) -> None:
        binding = self._by_mapping.get(key)
        if binding is None or binding.gen != gen:
            # Stale wake-up: the binding this timer was armed for was torn
            # down (RST teardown, crash flush, explicit remove) and the key
            # re-bound since.  The new binding owns its own timer; letting
            # the old one proceed would hand its deadline — or worse, its
            # lazy-deadline chase — to a binding it never belonged to.
            return
        target = binding.lazy_deadline
        if target is not None:
            if target > self.sim.now:
                # Activity since the timer was armed pushed the real
                # deadline out; chase it (one wake-up per idle-timeout span
                # instead of one heap churn per packet).
                binding.timer.start_at(target)
                return
            binding.lazy_deadline = None
        self.remove(key)
        self.bindings_expired += 1
        bus = self.sim.bus
        if bus is not None:
            bus.emit(
                "nat.expire",
                dev=self.profile.tag,
                proto=binding.proto,
                ext_port=binding.ext_port,
                state=binding.state if binding.proto == "udp" else binding.tcp_state,
                lifetime=self.sim.now - binding.created_at,
            )

    def remove(self, key: tuple) -> None:
        binding = self._by_mapping.pop(key, None)
        if binding is None:
            return
        self._live[binding.proto] -= 1
        self._by_external.pop((binding.proto, binding.ext_port), None)
        self._used_ports[binding.proto].discard(binding.ext_port)
        if self.allocator is not None:
            self.allocator.release(binding.proto, binding.ext_port)
        if binding.timer is not None:
            binding.timer.cancel()
        flow = (binding.proto, binding.int_ip._ip, binding.int_port, binding.remote[0]._ip, binding.remote[1])
        self._expired[flow] = (binding.ext_port, self.sim.now)

    def flush(self) -> None:
        """Crash semantics: the entire session table vanishes at once.

        Unlike :meth:`remove`, nothing goes into the hold-down history — a
        rebooted device has no memory of the bindings it lost, so the same
        flow rebinding after the crash is allocated like a brand-new one.
        """
        for binding in self._by_mapping.values():
            if binding.timer is not None:
                binding.timer.cancel()
        self.bindings_flushed += len(self._by_mapping)
        bus = self.sim.bus
        if bus is not None and self._by_mapping:
            bus.emit("nat.flush", dev=self.profile.tag, count=len(self._by_mapping))
        self._by_mapping.clear()
        self._live["udp"] = self._live["tcp"] = 0
        self._by_external.clear()
        self._used_ports["udp"].clear()
        self._used_ports["tcp"].clear()
        if self.allocator is not None:
            self.allocator.reset()
        self._expired.clear()
        self._echo_out.clear()
        self._echo_in.clear()
        self._generic_out.clear()
        self._generic_in.clear()

    def remove_binding(self, binding: Binding) -> None:
        key = self._find_key(binding)
        if key is not None:
            self.remove(key)

    def _find_key(self, binding: Binding) -> Optional[tuple]:
        key = self._mapping_key(binding.proto, binding.int_ip, binding.int_port, binding.remote)
        if self._by_mapping.get(key) is binding:
            return key
        for candidate, value in self._by_mapping.items():  # pragma: no cover - fallback
            if value is binding:
                return candidate
        return None

    # -- timers -------------------------------------------------------------------------

    def _quantize(self, deadline: float, granularity: float) -> float:
        """Round a deadline up to the device's next timer-wheel tick."""
        if granularity <= 0:
            return deadline
        return math.ceil(deadline / granularity) * granularity

    def _rearm_lazy(self, binding: Binding, deadline: float) -> None:
        """Record the exact staged-engine deadline without re-arming.

        ``restart(max(deadline - now, 0.0))`` arms at the float
        ``now + max(deadline - now, 0.0)`` — not necessarily ``deadline``
        under IEEE-754 — so that exact expression is what we store and what
        the chasing timer eventually lands on.
        """
        sim = self.sim
        now = sim.now
        delta = deadline - now
        target = now + (delta if delta > 0.0 else 0.0)
        binding.lazy_deadline = target
        timer = binding.timer
        if timer.armed and timer.deadline <= target:
            sim.fastpath_events_saved += 1  # heap push elided
            return
        timer.start_at(target)

    def _rearm_udp(self, binding: Binding) -> None:
        policy = self.profile.udp_timeouts
        timeout = policy.timeout_for(binding.state, binding.remote[1])
        deadline = self._quantize(binding.last_activity + timeout, policy.timer_granularity)
        bus = self.sim.bus
        if bus is None and self.sim.fastpath:
            self._rearm_lazy(binding, deadline)
            return
        binding.lazy_deadline = None
        binding.timer.restart(max(deadline - self.sim.now, 0.0))
        if bus is not None:
            bus.emit(
                "nat.refresh",
                dev=self.profile.tag,
                proto="udp",
                ext_port=binding.ext_port,
                state=binding.state,
                deadline=deadline,
            )

    def _rearm_tcp(self, binding: Binding) -> None:
        policy = self.profile.tcp_timeouts
        if binding.tcp_state == TCP_ESTABLISHED:
            timeout = policy.established
            if timeout is None:
                binding.lazy_deadline = None
                binding.timer.cancel()
                return
        else:
            timeout = policy.transitory
        deadline = self._quantize(binding.last_activity + timeout, policy.timer_granularity)
        bus = self.sim.bus
        if bus is None and self.sim.fastpath:
            self._rearm_lazy(binding, deadline)
            return
        binding.lazy_deadline = None
        binding.timer.restart(max(deadline - self.sim.now, 0.0))
        if bus is not None:
            bus.emit(
                "nat.refresh",
                dev=self.profile.tag,
                proto="tcp",
                ext_port=binding.ext_port,
                state=binding.tcp_state,
                deadline=deadline,
            )

    # -- traffic notifications ---------------------------------------------------------------

    def note_outbound(self, binding: Binding) -> None:
        binding.packets_out += 1
        if binding.state == STATE_AFTER_INBOUND:
            binding.state = STATE_BIDIRECTIONAL
        now_refreshes = self.profile.udp_timeouts.outbound_refreshes
        if binding.proto == "udp":
            if now_refreshes:
                binding.last_activity = self.sim.now
            self._rearm_udp(binding)
        elif binding.proto == "tcp":
            binding.last_activity = self.sim.now
            self._rearm_tcp(binding)

    def note_inbound(self, binding: Binding) -> None:
        binding.packets_in += 1
        if binding.state == STATE_OUTBOUND_ONLY:
            binding.state = STATE_AFTER_INBOUND
        if binding.proto == "udp":
            if self.profile.udp_timeouts.inbound_refreshes:
                binding.last_activity = self.sim.now
            self._rearm_udp(binding)
        elif binding.proto == "tcp":
            binding.last_activity = self.sim.now
            if binding.tcp_state == TCP_TRANSITORY:
                # The reply to our SYN: promote on the next outbound ACK.
                binding.tcp_state = TCP_ESTABLISHED
            self._rearm_tcp(binding)

    def note_tcp_flags(self, binding: Binding, fin: bool, rst: bool, outbound: bool) -> None:
        policy = self.profile.tcp_timeouts
        if rst and policy.rst_clears:
            self.remove_binding(binding)
            return
        if fin:
            if outbound:
                binding.fin_seen_out = True
            else:
                binding.fin_seen_in = True
            if policy.fin_clears:
                binding.tcp_state = TCP_CLOSING
                self._rearm_tcp(binding)

    # -- inbound filtering ---------------------------------------------------------------------

    def inbound_allowed(self, binding: Binding, remote: Endpoint) -> bool:
        filtering = self.profile.nat.filtering
        if filtering is FilteringBehavior.ENDPOINT_INDEPENDENT:
            return True
        if filtering is FilteringBehavior.ADDRESS_DEPENDENT:
            remote_ip = remote[0]._ip
            allowed = any(seen[0] == remote_ip for seen in binding.remotes_seen)
        else:
            allowed = (remote[0]._ip, remote[1]) in binding.remotes_seen
        if not allowed:
            self.inbound_filtered += 1
            bus = self.sim.bus
            if bus is not None:
                bus.emit("pkt.drop", dev=self.profile.tag, cause="filtered", proto=binding.proto)
        return allowed

    # -- ICMP echo bindings -------------------------------------------------------------------------

    def echo_outbound(self, int_ip: IPv4Address, ident: int) -> int:
        """Map an outbound echo ident; preserves the ident when free."""
        key = (int_ip, ident)
        ext = self._echo_out.get(key)
        if ext is not None:
            return ext
        ext = ident
        while ext in self._echo_in:
            ext = (ext + 1) & 0xFFFF
        self._echo_out[key] = ext
        self._echo_in[ext] = key
        return ext

    def echo_inbound(self, ext_ident: int) -> Optional[Tuple[IPv4Address, int]]:
        return self._echo_in.get(ext_ident)

    # -- generic (IP-only fallback) bindings -----------------------------------------------------------

    def generic_outbound(self, proto_number: int, int_ip: IPv4Address, remote_ip: IPv4Address) -> None:
        self._generic_out[(proto_number, int_ip, remote_ip)] = True
        self._generic_in[(proto_number, remote_ip)] = int_ip

    def generic_inbound(self, proto_number: int, remote_ip: IPv4Address) -> Optional[IPv4Address]:
        return self._generic_in.get((proto_number, remote_ip))
