"""Deterministic link impairments: loss, duplication, reordering, corruption, flaps.

Real home-gateway testbeds fight flaky cabling and misbehaving devices; this
module brings that hostility into the simulator *reproducibly*.  An
:class:`Impairment` is a pure-value description of what a link should suffer.
Installing it on a :class:`~repro.netsim.link.Link` (see ``Link.impair``)
creates a :class:`LinkImpairer`: the per-link stage on the delivery path that
draws every stochastic decision from its own seeded RNG.

Determinism contract:

* every link gets a *dedicated* ``random.Random`` seeded from the owning
  simulation's seed and the link's construction ordinal
  (:func:`impair_seed`), never from the shared ``sim.rng`` — so impairments
  cannot perturb other stochastic consumers (e.g. RANDOM port allocation),
  and the draw sequence depends only on the frames the link itself carries;
* in the sharded survey, the simulation seed is the tag-derived shard seed,
  so an impaired device measures identically under ``jobs=1``, ``jobs=N``,
  and in any device subset.

Effect semantics:

* ``loss`` — the frame vanishes in flight (per-frame probability);
* ``corrupt`` — bits flip in flight and the receiver's FCS check discards
  the frame, so corruption is a *counted-separately* drop (the stack never
  sees a mangled frame, exactly like real Ethernet);
* ``dup`` — the frame is delivered twice;
* ``reorder`` — every frame draws an extra uniform propagation jitter in
  ``[0, reorder)`` seconds, so a later frame can overtake an earlier one;
* ``flap`` — a scheduled outage window: the link severs at ``flap_at``
  (flushing both transmit queues) and mends ``flap_for`` seconds later.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["Impairment", "LinkImpairer", "impair_seed"]


def impair_seed(sim_seed: int, link_ordinal: int) -> int:
    """Per-link RNG seed, stable across processes and device subsets."""
    salt = zlib.crc32(f"impair:{link_ordinal}".encode("utf-8"))
    return (sim_seed * 0x9E3779B1 + salt) & 0xFFFFFFFF


def _parse_probability(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"impairment {key}={text!r} is not a number") from None
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"impairment {key}={value} must be a probability in [0, 1]")
    return value


def _parse_seconds(key: str, text: str) -> float:
    """Parse a duration with an optional ``ms``/``s`` suffix (default seconds)."""
    raw = text.strip()
    scale = 1.0
    if raw.endswith("ms"):
        raw, scale = raw[:-2], 1e-3
    elif raw.endswith("s"):
        raw = raw[:-1]
    try:
        value = float(raw) * scale
    except ValueError:
        raise ValueError(f"impairment {key}={text!r} is not a duration") from None
    if value < 0:
        raise ValueError(f"impairment {key}={text!r} must be non-negative")
    return value


@dataclass(frozen=True)
class Impairment:
    """A composable, picklable description of one link's misbehaviour.

    Parse one from the CLI syntax with :meth:`parse`
    (``loss=0.01,reorder=5ms,dup=0.001,flap=30:2``) or construct directly;
    install it with :meth:`~repro.netsim.link.Link.impair` (a dedicated
    per-link RNG) or campaign-wide with
    :meth:`~repro.testbed.testbed.Testbed.apply_impairment`.  Under a
    trace (see :mod:`repro.obs`) each decision surfaces as a ``link.drop``
    (cause ``loss``/``corrupt``) or ``link.dup`` event, emitted strictly
    after the RNG draw so observation never perturbs the outcome.
    """

    #: Per-frame probability the frame is lost in flight.
    loss: float = 0.0
    #: Per-frame probability the frame is delivered twice.
    dup: float = 0.0
    #: Per-frame probability of bit corruption (dropped by the receiver FCS).
    corrupt: float = 0.0
    #: Extra uniform propagation jitter in seconds; > serialization gaps
    #: produces actual reordering.
    reorder: float = 0.0
    #: Scheduled outage: sever at this many seconds after installation...
    flap_at: Optional[float] = None
    #: ...and mend this many seconds after the sever.
    flap_for: float = 0.0

    def __post_init__(self) -> None:
        for key in ("loss", "dup", "corrupt"):
            value = getattr(self, key)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"impairment {key}={value} must be a probability in [0, 1]")
        if self.reorder < 0:
            raise ValueError(f"impairment reorder={self.reorder} must be non-negative")
        if self.flap_at is not None and self.flap_at < 0:
            raise ValueError(f"impairment flap_at={self.flap_at} must be non-negative")
        if self.flap_for < 0:
            raise ValueError(f"impairment flap_for={self.flap_for} must be non-negative")

    @property
    def is_null(self) -> bool:
        """True when installing this impairment would change nothing."""
        return (
            self.loss == 0.0
            and self.dup == 0.0
            and self.corrupt == 0.0
            and self.reorder == 0.0
            and self.flap_at is None
        )

    @classmethod
    def parse(cls, text: str) -> "Impairment":
        """Parse the CLI syntax: ``loss=0.01,reorder=5ms,dup=0.001,flap=30:2``.

        ``flap=START:DURATION`` takes two durations (same ms/s suffixes).
        """
        fields: Dict[str, object] = {}
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(f"impairment item {item!r} is not key=value")
            key, _, value = item.partition("=")
            key = key.strip()
            if key in ("loss", "dup", "corrupt"):
                fields[key] = _parse_probability(key, value)
            elif key == "reorder":
                fields[key] = _parse_seconds(key, value)
            elif key == "flap":
                start, sep, duration = value.partition(":")
                if not sep:
                    raise ValueError(f"impairment flap={value!r} must be START:DURATION")
                fields["flap_at"] = _parse_seconds("flap", start)
                fields["flap_for"] = _parse_seconds("flap", duration)
            else:
                raise ValueError(f"unknown impairment key {key!r}")
        return cls(**fields)  # type: ignore[arg-type]

    def describe(self) -> Dict[str, object]:
        """Machine-readable form for the store manifest and the campaign fingerprint."""
        return {
            "loss": self.loss,
            "dup": self.dup,
            "corrupt": self.corrupt,
            "reorder_seconds": self.reorder,
            "flap_at_seconds": self.flap_at,
            "flap_for_seconds": self.flap_for,
        }


class LinkImpairer:
    """The per-link delivery stage: one seeded RNG plus effect counters."""

    __slots__ = (
        "config",
        "rng",
        "link",
        "frames_lost",
        "frames_corrupted",
        "frames_duplicated",
        "frames_jittered",
    )

    def __init__(self, config: Impairment, rng: random.Random):
        self.config = config
        self.rng = rng
        #: Owning link, set by :meth:`Link.impair`; lets impairment decisions
        #: surface as ``link.drop``/``link.dup`` trace events.  ``None`` for
        #: an impairer constructed standalone (e.g. in unit tests).
        self.link = None
        self.frames_lost = 0
        self.frames_corrupted = 0
        self.frames_duplicated = 0
        self.frames_jittered = 0

    def _jitter(self) -> float:
        if self.config.reorder <= 0:
            return 0.0
        jitter = self.rng.uniform(0.0, self.config.reorder)
        if jitter > 0:
            self.frames_jittered += 1
        return jitter

    def plan_delivery(self) -> List[float]:
        """Extra propagation delays for one frame; empty list means dropped.

        Trace emission here is strictly after the RNG draws, so observing an
        impaired link never perturbs its stochastic decisions.
        """
        config = self.config
        rng = self.rng
        bus = self.link.sim.bus if self.link is not None else None
        if config.loss and rng.random() < config.loss:
            self.frames_lost += 1
            if bus is not None:
                bus.emit("link.drop", link=self.link.label, cause="loss")
            return []
        if config.corrupt and rng.random() < config.corrupt:
            self.frames_corrupted += 1
            if bus is not None:
                bus.emit("link.drop", link=self.link.label, cause="corrupt")
            return []
        delays = [self._jitter()]
        if config.dup and rng.random() < config.dup:
            self.frames_duplicated += 1
            if bus is not None:
                bus.emit("link.dup", link=self.link.label)
            delays.append(self._jitter())
        return delays
