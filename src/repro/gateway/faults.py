"""Scheduled gateway faults for campaign-level chaos testing.

A :class:`FaultSpec` is a pure-value, picklable description of one injected
fault — currently the ``crash`` kind, which power-cycles a gateway via
:meth:`~repro.gateway.device.HomeGateway.crash` (binding table flushed,
queues dropped, device dark until its boot delay elapses).

Fault times are virtual seconds *after the family's testbed finished
bring-up*, so ``crash@t=30`` hits every measurement family of the campaign
30 simulated seconds into that family's run — deterministically, regardless
of ``jobs`` or which other devices are surveyed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["FaultSpec"]

_KINDS = ("crash",)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault, optionally scoped to a single device.

    Parse one from the CLI syntax with :meth:`parse`
    (``crash@t=30,boot=never,device=dl8``), or construct directly::

        FaultSpec(at=30.0, boot=10.0, device="dl8")

    Scheduling is handled by
    :meth:`~repro.testbed.testbed.Testbed.schedule_faults`; the survey
    runner applies the campaign's faults to every family's fresh testbed.
    Under a trace (see :mod:`repro.obs`) each firing appears as a
    ``fault.crash`` event (with its boot delay) followed by the flush
    cascade it causes, and the recovery as ``fault.boot``.
    """

    kind: str = "crash"
    #: Virtual seconds after family bring-up at which the fault fires.
    at: float = 0.0
    #: Boot delay override; ``None`` uses the profile's ``boot_seconds``,
    #: ``inf`` models a device that never comes back.
    boot: Optional[float] = None
    #: Device tag this fault targets; ``None`` hits every device.
    device: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; known: {_KINDS}")
        if self.at < 0:
            raise ValueError(f"fault time t={self.at} must be non-negative")
        if self.boot is not None and self.boot < 0:
            raise ValueError(f"fault boot={self.boot} must be non-negative")

    def applies_to(self, tag: str) -> bool:
        return self.device is None or self.device == tag

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse the CLI syntax: ``crash@t=30[,boot=5|never][,device=dl8]``."""
        items = [item.strip() for item in text.split(",") if item.strip()]
        if not items:
            raise ValueError("empty fault spec")
        head = items[0]
        kind, sep, when = head.partition("@")
        if not sep or not when.startswith("t="):
            raise ValueError(f"fault spec {head!r} must look like KIND@t=SECONDS")
        try:
            at = float(when[2:])
        except ValueError:
            raise ValueError(f"fault time {when[2:]!r} is not a number") from None
        boot: Optional[float] = None
        device: Optional[str] = None
        for item in items[1:]:
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"fault item {item!r} is not key=value")
            if key == "boot":
                if value == "never":
                    boot = float("inf")
                else:
                    try:
                        boot = float(value)
                    except ValueError:
                        raise ValueError(f"fault boot={value!r} is not a number") from None
            elif key == "device":
                device = value
            else:
                raise ValueError(f"unknown fault key {key!r}")
        return cls(kind=kind, at=at, boot=boot, device=device)

    def describe(self) -> Dict[str, object]:
        """Machine-readable form for the store manifest and the campaign fingerprint."""
        boot = self.boot
        return {
            "kind": self.kind,
            "at_seconds": self.at,
            "boot_seconds": "never" if boot == float("inf") else boot,
            "device": self.device,
        }
