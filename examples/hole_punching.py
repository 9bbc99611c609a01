#!/usr/bin/env python3
"""UDP hole punching across the device population (§5's STUN/ICE plans).

One ``SurveyRunner`` campaign over two families: ``stun_classify``
classifies each gateway STUN-style, and ``traversal_matrix`` runs every
ordered pair of gateways on its own two-gateway testbed — rendezvous,
Ford-et-al. simultaneous UDP punch, TURN-style relay when the punch fails.
It prints the classification, the punch grid and how many pairs punched
or needed the relay: the experiment the paper's §2 cites (Ford 2005;
Guha 2005) and §5 plans to run.

Run:  python examples/hole_punching.py [tag ...]
"""

import sys

from repro.core import SurveyRunner
from repro.devices import CATALOG, catalog_profiles


def main() -> None:
    tags = sys.argv[1:] or ["al", "bu1", "dl1", "ng1", "smc", "zy1"]
    unknown = [t for t in tags if t not in CATALOG]
    if unknown:
        raise SystemExit(f"unknown device tags: {unknown}")
    results = SurveyRunner(catalog_profiles(tags)).run(["stun_classify", "traversal_matrix"])
    verdicts = results.family("stun_classify")
    cells = results.family("traversal_matrix")

    print("STUN classification (RFC 3489 terminology):")
    for tag, verdict in verdicts.items():
        print(f"  {tag:>5}: {verdict.rfc3489_type:<22} (port preserved: {verdict.preserves_port})")

    print("\nHole punching matrix (row a punches column b; OK = both directions flowed):")
    print("      " + "".join(f"{t:>7}" for t in tags))
    for tag_a in tags:
        row = ["-" if tag_a == tag_b else "OK" if cells[f"{tag_a}+{tag_b}"].punched else "fail" for tag_b in tags]
        print(f"{tag_a:>5} " + "".join(f"{symbol:>7}" for symbol in row))

    punched = sum(cell.punched for cell in cells.values())
    relayed = sum(cell.relayed for cell in cells.values())
    friendly = sum(verdict.hole_punching_friendly for verdict in verdicts.values())
    print(f"\n{punched}/{len(cells)} ordered pairs punched, {relayed} connected through the relay; "
          f"{friendly}/{len(tags)} devices have endpoint-independent mappings "
          f"(Ford et al.'s 'well-behaving NAT').")


if __name__ == "__main__":
    main()
