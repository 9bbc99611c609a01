"""Work-counter gate: a fixed small campaign models a fixed amount of work.

``family_events`` (heap events processed) and ``family_segments`` (events
plus the events the fast path proved it did not need) are deterministic
functions of the profiles, seed and knobs.  A change to the simulator that
claims to be engine-neutral, such as a hot-path speedup, must leave both
exactly where they are; one that makes a campaign faster by modelling less
work moves them and fails here.  A change that alters the modelled work on
purpose regenerates the constants and says why in CHANGES.md.
"""

from __future__ import annotations

from repro.core.survey import SurveyRunner
from repro.devices import catalog_profiles

FAMILIES = ["udp1", "tcp2", "tcp4", "cgn_exhaustion", "attack_portflood", "workload_mix", "fwcost_scaling"]

EXPECTED_EVENTS = {
    "udp1": 390,
    "tcp2": 4517,
    "tcp4": 28139,
    "cgn_exhaustion": 5770,
    "attack_portflood": 16512,
    "workload_mix": 51971,
    "fwcost_scaling": 62986,
}

EXPECTED_SEGMENTS = {
    "udp1": 578,
    "tcp2": 8435,
    "tcp4": 48238,
    "cgn_exhaustion": 9954,
    "attack_portflood": 26628,
    "workload_mix": 101638,
    "fwcost_scaling": 121118,
}


def test_family_work_counters_are_pinned():
    profiles = [profile for profile in catalog_profiles() if profile.tag in ("al", "we")]
    runner = SurveyRunner(
        profiles=profiles,
        seed=42,
        transfer_bytes=64 * 1024,
        udp_repetitions=1,
        udp5_repetitions=1,
        tcp1_cutoff=600,
    )
    stats = runner.run(FAMILIES).stats
    assert stats.family_events == EXPECTED_EVENTS
    assert stats.family_segments == EXPECTED_SEGMENTS
