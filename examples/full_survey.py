#!/usr/bin/env python3
"""Reproduce the paper's entire measurement campaign and check its claims.

This is the headline artifact: all 34 devices of Table 1 through every
test of §3.2 and the §5 diagnostics, as the one ``SurveyRunner`` campaign
the paper's claims are stated at (``repro.analysis.claims``).  It prints
the survey report — every figure and table — and then the claims table:
each paper statement with its measured value, the paper's value and the
verdict.

Run:  python examples/full_survey.py       # ~20 s on 2 cores
"""

import os
import time

from repro.analysis import claims, render_report


def main() -> None:
    started = time.time()
    results = claims.run_campaign(jobs=min(4, os.cpu_count() or 1))
    print(render_report(results, title="Home gateway survey (34 devices)"))
    print("## Paper claims\n")
    print(claims.render_claims(results))
    held = sum(claim.check(results).passed for claim in claims.CLAIMS)
    print(f"\n{held} of {len(claims.CLAIMS)} claims hold; full survey wall time: {time.time() - started:.0f} s")


if __name__ == "__main__":
    main()
