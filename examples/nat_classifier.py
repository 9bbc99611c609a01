#!/usr/bin/env python3
"""Classify NATs with STUN-style probes (RFC 3489 terminology).

The paper's related work leans on the STUN classification — full cone,
(address-)restricted cone, port-restricted cone, symmetric — and on RFC 4787
behavioural terms.  This example runs the ``stun_classify`` family as one
``SurveyRunner`` campaign, as ``repro classify`` does: each device gets its
own testbed, and a client behind its gateway runs the RFC 3489 tests
(``repro.traversal.stun.classify``) against a two-port STUN server.  The
filtering test asks for a reply from the alternate port before the client
has ever sent there, so that reply is unsolicited and a port-restricted
filter drops it.

Run:  python examples/nat_classifier.py
"""

from repro.core import SurveyRunner
from repro.devices import catalog_profiles

TAGS = ["al", "bu1", "ng1", "smc", "ls2", "zy1", "be1", "dl1"]


def main() -> None:
    results = SurveyRunner(catalog_profiles(TAGS)).run(["stun_classify"])
    print(f"{'device':>6}  {'mapping':<22} {'port kept':<10} classification")
    for tag, verdict in results.family("stun_classify").items():
        mapping = verdict.mapping.replace("_", "-")
        print(f"{tag:>6}  {mapping:<22} {str(verdict.preserves_port):<10} {verdict.rfc3489_type}")
    print("\nRFC 4787 note: 'symmetric' here = address-and-port-dependent "
          "mapping; hole-punching (Ford et al.) generally fails through those.")


if __name__ == "__main__":
    main()
