"""IETF behavioural-requirements compliance (the yardsticks of §4).

The paper repeatedly grades devices against three BCPs:

* **RFC 4787** (NAT behavioural requirements for UDP): binding timeout MUST
  be ≥ 2 min and SHOULD be ≥ 5 min (the text uses the 600 s figure).
* **RFC 5382** (for TCP): established-binding timeout MUST be ≥ 124 min.
* **RFC 5508** (for ICMP): Destination Unreachable / Time Exceeded errors
  for an active binding SHOULD be translated and forwarded.

:func:`check_device` turns one device's *measured* results into a
:class:`ComplianceReport` (:func:`grade`: one per device of a campaign);
:func:`population_summary` reproduces the §4
population claims ("more than half of the tested devices do not conform…");
:func:`render_compliance` grades a campaign: ``repro compliance`` prints it.
"""

from repro.compliance.checker import (
    FAMILIES,
    ComplianceReport,
    RFC4787_REQUIRED_S,
    RFC4787_RECOMMENDED_S,
    RFC5382_MINIMUM_S,
    check_device,
    grade,
    population_summary,
    render_compliance,
)

__all__ = [
    "FAMILIES",
    "ComplianceReport",
    "RFC4787_REQUIRED_S",
    "RFC4787_RECOMMENDED_S",
    "RFC5382_MINIMUM_S",
    "check_device",
    "grade",
    "population_summary",
    "render_compliance",
]
