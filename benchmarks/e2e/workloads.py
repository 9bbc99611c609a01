"""The campaign benchmark's workloads.

A workload is one campaign: a gateway population, a family selection and
the knobs the families read.  Every workload runs the public campaign API
at ``jobs=1`` with ``udp_repetitions=1``, ``udp5_repetitions=1`` and
``tcp1_cutoff=600``; the campaign seed is the benchmark's ``--seed``.  The
``why`` strings are the ones ``BENCHMARK.json`` records.

Each workload also fixes how many whole passes one run makes.  The count
is a constant, never derived from elapsed time, so that two commits are
measured over the same passes.  A workload whose pass is short gets more passes, so that every
run measures 20-35 s on the host described in the README.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core.survey import SurveyRunner
from repro.devices import catalog_profiles
from repro.netsim.impair import Impairment

PAPER_FAMILIES = ("udp1", "udp2", "udp3", "udp5", "tcp1", "tcp2", "tcp4", "icmp", "transports", "dns")

#: Knobs shared by every workload.
COMMON_KNOBS: Dict[str, Any] = {
    "jobs": 1,
    "udp_repetitions": 1,
    "udp5_repetitions": 1,
    "tcp1_cutoff": 600.0,
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Device tags of the population; ``None`` is the whole Table-1 catalog.
    tags: Optional[Tuple[str, ...]]
    families: Tuple[str, ...]
    #: Whole passes per run.
    passes: int
    #: Extra ``SurveyRunner`` keywords; ``impairment`` is the CLI syntax.
    knobs: Dict[str, Any] = field(default_factory=dict)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper_survey",
            "the paper's own campaign: 34 devices x 10 families on the eager fast path; "
            "simulation, TCP and packet codecs dominate",
            None,
            PAPER_FAMILIES,
            3,
            {"transfer_bytes": 256 * 1024},
        ),
        Workload(
            "chaos_staged",
            "the same families under reordering and duplication, which turn the fast path off; "
            "control for fast-path changes, shows scheduler cost",
            ("ap", "be2", "dl10", "dl4", "dl7", "ed", "ls2", "ng1", "ng4", "owrt", "to"),
            PAPER_FAMILIES,
            4,
            # No loss: each loss costs a TCP timeout and a go-back-N resend,
            # so with loss=0.01 the work of a pass varied by 7% between seeds
            # (interquartile range of events over seeds 1-10); without it, 0.9%.
            {"transfer_bytes": 256 * 1024, "impairment": "reorder=5ms,dup=0.001"},
        ),
        Workload(
            "nat444_load",
            "CGN, attack and subscriber-mix families: NAT and CGN binding tables, port blocks, "
            "small-packet floods and firewall cost, almost no TCP",
            ("al", "be2", "dl2", "dl6", "ed", "ls3", "ng3", "owrt", "we"),
            (
                "cgn_timeouts",
                "cgn_exhaustion",
                "attack_portflood",
                "attack_keepalive",
                "attack_rst",
                "workload_mix",
                "fwcost_scaling",
            ),
            3,
        ),
        Workload(
            "pair_matrix",
            "1088 short pair subjects: per-subject bed build, DHCP bring-up and store writes dominate, "
            "and the report reads every cell back",
            (
                "al", "as1", "be2", "dl1", "dl2", "dl4", "dl6", "dl8", "ed",
                "ls1", "ls3", "ng1", "ng3", "ng5", "owrt", "te", "we",
            ),
            ("traversal_matrix",),
            # Its 1088 shards average out pass noise: two passes spread as
            # little as three did.
            2,
            {"matrix_cgn": True},
        ),
        # Not part of BENCHMARK.json: the harness self-tests run it.
        Workload(
            "smoke",
            "two devices, two cheap families: exercises every harness path in seconds",
            ("je", "ls1"),
            ("udp1", "icmp"),
            2,
        ),
    )
}


def build_runner(workload: Workload, seed: int, store_dir: Optional[str]) -> SurveyRunner:
    """The workload's ``SurveyRunner``, built the way ``repro survey --out`` builds one."""
    knobs = dict(COMMON_KNOBS, **workload.knobs)
    if "impairment" in knobs:
        knobs["impairment"] = Impairment.parse(knobs["impairment"])
    return SurveyRunner(
        profiles=catalog_profiles(workload.tags),
        seed=seed,
        store_dir=store_dir,
        **knobs,
    )
