"""RFC 4787 / 5382 / 5508 compliance grading over measured results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.core.icmp_tests import IcmpTestResult
from repro.core.tcp_binding import TcpTimeoutResult
from repro.core.udp_timeouts import UdpTimeoutResult

RFC4787_REQUIRED_S = 120.0
RFC4787_RECOMMENDED_S = 600.0
RFC5382_MINIMUM_S = 124 * 60.0

#: The campaign families a grade reads, one per BCP.
FAMILIES = ("udp1", "tcp1", "icmp")

#: The ICMP kinds RFC 5508 REQ-3/REQ-4 most cares about for active flows.
RFC5508_KEY_KINDS = ("port_unreach", "host_unreach", "net_unreach", "ttl_exceeded", "frag_needed")


@dataclass
class ComplianceReport:
    """One device's standing against the three BCPs."""

    tag: str
    udp_timeout_s: Optional[float] = None
    udp_meets_required: Optional[bool] = None
    udp_meets_recommended: Optional[bool] = None
    tcp_timeout_s: Optional[float] = None  # None = exceeded the cutoff (compliant)
    tcp_meets_minimum: Optional[bool] = None
    icmp_missing_kinds: List[str] = field(default_factory=list)
    icmp_compliant: Optional[bool] = None

    def failures(self) -> List[str]:
        out = []
        if self.udp_meets_required is False:
            out.append(f"RFC4787: UDP timeout {self.udp_timeout_s:.0f}s < {RFC4787_REQUIRED_S:.0f}s required")
        if self.tcp_meets_minimum is False:
            out.append(f"RFC5382: TCP timeout {self.tcp_timeout_s:.0f}s < {RFC5382_MINIMUM_S:.0f}s required")
        if self.icmp_compliant is False:
            out.append(f"RFC5508: missing translation for {', '.join(self.icmp_missing_kinds)}")
        return out

    @property
    def fully_compliant(self) -> bool:
        return not self.failures()


def check_device(
    tag: str,
    udp1: Optional[UdpTimeoutResult] = None,
    tcp1: Optional[TcpTimeoutResult] = None,
    icmp: Optional[IcmpTestResult] = None,
) -> ComplianceReport:
    """Grade one device from whichever measurements are available.

    The UDP yardstick uses the UDP-1 (outbound-only) timeout — the paper's
    §4.1 reading of RFC 4787's REQ-5 ("Most devices retain UDP bindings for
    the 120 sec required ... UDP-1 presents a more unusual case").
    """
    report = ComplianceReport(tag)
    if udp1 is not None and udp1.samples:
        timeout = udp1.summary().median
        report.udp_timeout_s = timeout
        report.udp_meets_required = timeout >= RFC4787_REQUIRED_S
        report.udp_meets_recommended = timeout >= RFC4787_RECOMMENDED_S
    if tcp1 is not None:
        if tcp1.samples:
            timeout = tcp1.summary().median
            report.tcp_timeout_s = timeout
            report.tcp_meets_minimum = timeout >= RFC5382_MINIMUM_S
        elif tcp1.censored:
            report.tcp_timeout_s = None
            report.tcp_meets_minimum = True  # outlived the 24 h cutoff
    if icmp is not None:
        missing = []
        for kind in RFC5508_KEY_KINDS:
            for transport in ("udp", "tcp"):
                table = icmp.udp if transport == "udp" else icmp.tcp
                observation = table.get(kind)
                if observation is None or not observation.forwarded:
                    missing.append(f"{transport}:{kind}")
        report.icmp_missing_kinds = missing
        report.icmp_compliant = not missing
    return report


def population_summary(reports: Mapping[str, ComplianceReport]) -> Dict[str, float]:
    """The §4 population claims, as fractions of the graded population."""
    def fraction(attribute: str, expect: bool) -> float:
        graded = [r for r in reports.values() if getattr(r, attribute) is not None]
        if not graded:
            return float("nan")
        return sum(1 for r in graded if getattr(r, attribute) is expect) / len(graded)

    return {
        "udp_below_required": fraction("udp_meets_required", False),
        "udp_meets_recommended": fraction("udp_meets_recommended", True),
        "tcp_below_minimum": fraction("tcp_meets_minimum", False),
        "icmp_compliant": fraction("icmp_compliant", True),
    }


def grade(results) -> Dict[str, ComplianceReport]:
    """One report per device a campaign over :data:`FAMILIES` measured."""
    udp1, tcp1, icmp = (results.family(name) for name in FAMILIES)
    tags = dict.fromkeys([*udp1, *tcp1, *icmp])
    return {tag: check_device(tag, udp1=udp1.get(tag), tcp1=tcp1.get(tag), icmp=icmp.get(tag)) for tag in tags}


def render_compliance(results) -> str:
    """Grade every device a campaign over :data:`FAMILIES` measured: one verdict each, then the §4 shares."""
    reports = grade(results)
    lines = []
    for tag, report in reports.items():
        failures = report.failures()
        status = "PASS" if not failures else f"FAIL ({len(failures)})"
        lines.append(f"{tag:>5}  {status}")
        lines.extend(f"        {failure}" for failure in failures)
    summary = population_summary(reports)
    lines.append("")
    lines.append(
        f"below RFC4787 120s: {summary['udp_below_required']:.0%}   "
        f"below RFC5382 124min: {summary['tcp_below_minimum']:.0%}   "
        f"RFC5508 compliant: {summary['icmp_compliant']:.0%}"
    )
    return "\n".join(lines)
