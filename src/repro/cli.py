"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list-devices`` — the Table 1 inventory.
* ``probe`` — run one measurement family against selected devices.
* ``survey`` — run several families into an optional store, print their
  work counters, optionally export CSV series; ``--jobs N`` shards devices
  across processes.
* ``classify`` — STUN-style classification of selected devices.
* ``compliance`` — grade devices against RFC 4787 / 5382 / 5508.
* ``trace`` — summarize JSONL trace files produced by ``--trace``.

Every command that measures runs one ``SurveyRunner`` campaign and renders
its results; ``probe`` and ``classify`` print a family's ``view``.

``probe``, ``survey`` and ``report`` all accept the flight-recorder flags
``--trace DIR`` (per-device JSONL event traces), ``--pcap DIR`` (per-link
pcap captures) and ``--metrics`` (campaign counters/histograms); see
:mod:`repro.obs`.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro import compliance
from repro.analysis import render_table1, series_to_csv
from repro.core import registry
from repro.devices import CATALOG, catalog_profiles
from repro.obs import render_summary, summarize_paths

#: Campaign families, straight from the experiment registry — a family
#: registered by a core module is a valid ``--tests``/``--families`` value
#: everywhere without touching this file.
FAMILY_CHOICES = registry.runnable_names()

#: The single-probe menu: every registry family that declares a terminal view.
PROBE_CHOICES = tuple(family.name for family in registry.families() if family.view is not None)

#: The families ``--cgn`` adds to (or selects for) a campaign.
CGN_FAMILIES = ("cgn_timeouts", "cgn_exhaustion")

#: The families ``--attack`` adds to (or selects for) a campaign.
ATTACK_FAMILIES = ("attack_portflood", "attack_keepalive", "attack_rst")

#: The families ``--metro`` adds to (or selects for) a campaign — the
#: metro-scale NAT444 tier.
METRO_FAMILIES = ("metro_load",)

#: The families ``--matrix`` adds to (or selects for) a campaign — the
#: pairwise NAT-traversal tier (subject kind ``pair``).
MATRIX_FAMILIES = ("traversal_matrix",)

#: The families ``--workload`` adds to (or selects for) a campaign — the
#: subscriber application-mix tier (offered-load ramp + firewall cost).
WORKLOAD_FAMILIES = ("workload_mix", "fwcost_scaling")

#: Per-command fallbacks when neither ``--tests`` nor ``--families`` nor
#: ``--cgn`` picked anything.  Kept out of argparse defaults so the commands
#: can tell "user chose these" from "nothing chosen".
DEFAULT_SURVEY_TESTS = ["udp1", "tcp1", "tcp4"]
DEFAULT_REPORT_TESTS = ["udp1", "udp2", "udp3", "tcp1", "tcp4"]


def _resolve_tags(tags: Optional[Sequence[str]]) -> List[str]:
    if not tags:
        return sorted(CATALOG)
    unknown = [tag for tag in tags if tag not in CATALOG]
    if unknown:
        raise SystemExit(f"unknown device tags: {unknown}; see `repro list-devices`")
    return list(tags)


def _parse_chaos(args):
    """Parse ``--impair``/``--fault`` flags into campaign chaos config."""
    from repro.gateway.faults import FaultSpec
    from repro.netsim.impair import Impairment

    impair = getattr(args, "impair", None)
    try:
        impairment = Impairment.parse(impair) if impair else None
        faults = [FaultSpec.parse(text) for text in (getattr(args, "fault", None) or [])]
    except ValueError as exc:
        raise SystemExit(f"bad chaos spec: {exc}") from None
    return impairment, faults


def _family_name(text: str) -> str:
    """A ``--test``/``--tests`` value as its family name (``binding-rate`` is ``binding_rate``)."""
    return text.replace("-", "_")


def _emit_metrics(results, out) -> None:
    """Print the campaign's merged metrics registry as JSON (probe/survey ``--metrics``)."""
    if results.metrics is not None:
        out(json.dumps(results.metrics.as_dict(), indent=2, sort_keys=True))


def _report_errors(results, out) -> None:
    if results.errors:
        out(f"\n{len(results.errors)} shard(s) failed:")
        for error in results.errors:
            out(f"  {error}")


def _knob_values(args) -> Dict[str, Any]:
    """The parsed knob flags as runner keywords (each flag's dest is its knob's name)."""
    return {name: value for name, value in vars(args).items() if name in registry.knobs()}


def _family_selection(args) -> Optional[List[str]]:
    """Resolve ``--families udp1,tcp2`` (preferred) or legacy ``--tests``."""
    families = getattr(args, "families", None)
    if families:
        return [name.strip() for name in families.split(",") if name.strip()]
    tests = getattr(args, "tests", None)
    return list(tests) if tests else None


def _cgn_selection(args, base: Optional[List[str]], default: List[str]) -> List[str]:
    """Fold ``--cgn``/``--attack``/``--metro`` into a family selection.

    With an explicit ``--tests``/``--families`` selection the opt-in
    families are appended; with none, ``--cgn``/``--attack``/``--metro``
    alone means "that campaign" (just those families, not them plus the
    command's default menu).  With no flag at all the command's own
    ``default`` fills in.
    """
    extra: List[str] = []
    if getattr(args, "cgn", False):
        extra.extend(CGN_FAMILIES)
    if getattr(args, "attack", False):
        extra.extend(ATTACK_FAMILIES)
    if getattr(args, "metro", False):
        extra.extend(METRO_FAMILIES)
    if getattr(args, "matrix", False):
        extra.extend(MATRIX_FAMILIES)
    if getattr(args, "workload", False):
        extra.extend(WORKLOAD_FAMILIES)
    if not extra:
        return base if base is not None else list(default)
    if base is None:
        return extra
    return base + [name for name in extra if name not in base]


def cmd_list_devices(args, out) -> int:
    out(render_table1(catalog_profiles()))
    return 0


def cmd_probe(args, out) -> int:
    """Run one family as a campaign and print its terminal view (``classify`` is ``--test stun_classify``)."""
    _runner, results = _run_campaign(args, _resolve_tags(args.tags), [args.test])
    text, _series = registry.family(args.test).view(results.family(args.test))
    out(text)
    _emit_metrics(results, out)
    _report_errors(results, out)
    return 0 if results.complete else 1


def cmd_survey(args, out) -> int:
    """Run the selected families as a durable campaign: store, resume, work counters, CSV export."""
    if args.resume and not args.out:
        raise SystemExit("--resume needs --out DIR (the store to resume from)")
    tags = _resolve_tags(args.tags)
    selected = _cgn_selection(args, _family_selection(args), DEFAULT_SURVEY_TESTS)
    runner, results = _run_campaign(args, tags, selected)
    stats = results.stats
    # Families with cells, then any that ran but kept none (every shard failed).
    for name in dict.fromkeys([*results.families, *stats.family_events]):
        descriptor = registry.family(name)
        line = f"{name:>10}: {len(results.family(name))} {descriptor.subject_kind}(s)"
        if name in stats.family_events:
            line = (f"{line:<30}{stats.family_wall[name]:8.2f}s  {stats.family_events[name]:>9} events  "
                    f"{stats.family_segments[name]:>9} segments  {stats.family_setup[name]:6.2f}s setup")
        out(line)
    setup = stats.setup_seconds
    out(f"elapsed: {runner.last_elapsed:.2f}s wall   {setup + stats.wall_seconds:.2f}s cpu "
        f"(shard sum: {setup:.2f}s setup + {stats.wall_seconds:.2f}s probe)")
    out(f"events: {stats.events_processed}   events/sec (cpu): {stats.events_per_sec:.0f}")
    out(f"segments modeled: {stats.segments_modeled}   "
        f"fastpath saved: {stats.fastpath_events_saved} events in {stats.fastpath_windows} windows")
    out(f"stale-entry purges: {stats.stale_purges} ({stats.stale_entries_purged} entries)")
    if args.out:
        skipped = f" ({runner.last_skipped_cells} cell(s) reused)" if args.resume else ""
        out(f"store: {args.out}{skipped}")
    if args.csv_dir:
        csv_dir = pathlib.Path(args.csv_dir)
        csv_dir.mkdir(parents=True, exist_ok=True)
        for name in selected:
            view = registry.family(name).view
            series = view(results.family(name))[1] if view is not None else None
            if series is not None:
                (csv_dir / f"{name}.csv").write_text(series_to_csv(series) + "\n")
                out(f"[wrote {csv_dir / f'{name}.csv'}]")
    _emit_metrics(results, out)
    _report_errors(results, out)
    return 0 if results.complete else 1


def _run_campaign(args, tags: Sequence[str], selected: Sequence[str]):
    """Build the command's ``SurveyRunner`` from its flags and run ``selected``.

    Every measuring command shares it; a flag a command lacks (``--out``
    outside ``survey``, ``--impair`` outside ``survey``/``report``, ``--jobs``
    on ``probe`` …) leaves the runner's default in place.
    """
    from repro.core import SurveyRunner
    from repro.core.store import StoreError

    impairment, faults = _parse_chaos(args)
    flags = vars(args)
    try:
        runner = SurveyRunner(
            profiles=catalog_profiles(tags),
            seed=args.seed,
            jobs=flags.get("jobs", 1),
            fastpath=not flags.get("no_fastpath", False),
            impairment=impairment,
            faults=faults,
            trace_dir=flags.get("trace"),
            pcap_dir=flags.get("pcap"),
            metrics=flags.get("metrics", False),
            store_dir=flags.get("out"),
            resume=flags.get("resume", False),
            **_knob_values(args),
        )
        results = runner.run(tests=list(selected))
    except (ValueError, StoreError) as exc:
        raise SystemExit(str(exc)) from None
    return runner, results


def cmd_report(args, out) -> int:
    from repro.analysis import render_report

    if args.from_dir:
        from repro.core.store import CampaignStore, StoreError

        try:
            store = CampaignStore.open(args.from_dir)
            results = store.load_results()
        except StoreError as exc:
            raise SystemExit(str(exc)) from None
        devices = len(store.devices())
    else:
        tags = _resolve_tags(args.tags)
        selected = _cgn_selection(args, _family_selection(args), DEFAULT_REPORT_TESTS)
        _runner, results = _run_campaign(args, tags, selected)
        devices = len(tags)
    report = render_report(results, title=f"Home gateway survey ({devices} devices)")
    if args.output:
        output = pathlib.Path(args.output)
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(report)
        out(f"wrote {args.output}")
    else:
        out(report)
    if results.metrics is not None:
        totals = results.metrics.counters
        out(f"[metrics] {sum(totals.values())} events across {len(totals)} counters")
    _report_errors(results, out)
    return 0 if results.complete else 1


def cmd_trace(args, out) -> int:
    summaries = summarize_paths([pathlib.Path(path) for path in args.paths])
    if not summaries:
        raise SystemExit(f"no trace files found under: {' '.join(args.paths)}")
    if args.json:
        out(json.dumps(summaries, indent=2, sort_keys=True))
    else:
        out(render_summary(summaries))
    return 0


def cmd_compliance(args, out) -> int:
    _runner, results = _run_campaign(args, _resolve_tags(args.tags), compliance.FAMILIES)
    out(compliance.render_compliance(results))
    _report_errors(results, out)
    return 0 if results.complete else 1


def _add_campaign_flags(parser: argparse.ArgumentParser) -> None:
    """The family-group shortcuts and knob flags shared by survey/report."""
    parser.add_argument("--cgn", action="store_true",
                        help="run the NAT444 families (cgn_timeouts, cgn_exhaustion) "
                        "behind a carrier-grade NAT; appends to --families if given")
    parser.add_argument("--attack", action="store_true",
                        help="run the adversarial NAT-abuse families (attack_portflood, "
                        "attack_keepalive, attack_rst) through the NAT444 chain; "
                        "appends to --families if given")
    parser.add_argument("--metro", action="store_true",
                        help="run the metro-scale NAT444 family (metro_load): one "
                        "CGN segment per device tag behind a metro core link; "
                        "appends to --families if given")
    parser.add_argument("--matrix", action="store_true",
                        help="run the pairwise NAT-traversal family (traversal_matrix): "
                        "STUN + hole punch + relay fallback + keepalive ladder for "
                        "every ordered device pair; appends to --families if given")
    parser.add_argument("--workload", action="store_true",
                        help="run the subscriber-workload families (workload_mix, "
                        "fwcost_scaling) through the NAT444 chain; appends to "
                        "--families if given")
    _add_knob_flags(parser)


def _add_knob_flags(parser: argparse.ArgumentParser, families: Sequence[str] = FAMILY_CHOICES) -> None:
    """The declared flag of each knob the registry ``families`` read; its dest is the knob's name."""
    for knob in registry.knobs(tuple(filter(None, map(registry.get, families)))).values():
        if knob.flag is not None:
            kind = {"action": "store_true"} if knob.type is bool else {"type": knob.type, "default": knob.default}
            parser.add_argument(knob.flag, dest=knob.name, **kind, **knob.argparse)


def _add_chaos_flags(parser: argparse.ArgumentParser) -> None:
    """The chaos flags shared by survey/report (parsed by :func:`_parse_chaos`)."""
    parser.add_argument("--impair", help="link impairment, e.g. loss=0.01,reorder=5ms,dup=0.001")
    parser.add_argument("--fault", action="append",
                        help="gateway fault, e.g. crash@t=30,boot=never,device=dl8 (repeatable)")


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """The flight-recorder flags shared by probe/survey/report."""
    parser.add_argument("--trace", metavar="DIR",
                        help="write per-device JSONL event traces into DIR")
    parser.add_argument("--pcap", metavar="DIR",
                        help="write per-link pcap captures into DIR (open in Wireshark)")
    parser.add_argument("--metrics", action="store_true",
                        help="collect campaign counters/gauges/histograms")
    parser.add_argument("--no-fastpath", action="store_true", dest="no_fastpath",
                        help="run every simulation on the staged event engine "
                        "(the fast path's property-test oracle); results are "
                        "identical, wall-clock is not")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Home-gateway characteristics laboratory (IMC 2010 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-devices", help="print the Table 1 inventory").set_defaults(func=cmd_list_devices)

    probe = sub.add_parser("probe", help="run one measurement family")
    probe.add_argument("--test", required=True, type=_family_name, choices=PROBE_CHOICES)
    probe.add_argument("--tags", nargs="*", help="device tags (default: all 34)")
    _add_knob_flags(probe, PROBE_CHOICES)
    probe.add_argument("--seed", type=int, default=0)
    _add_obs_flags(probe)
    probe.set_defaults(func=cmd_probe)

    survey = sub.add_parser("survey", help="run several families")
    survey.add_argument("--tests", nargs="+", default=None, type=_family_name, choices=FAMILY_CHOICES,
                        help="families to run (default: udp1 tcp1 tcp4)")
    survey.add_argument("--families", metavar="F1,F2",
                        help=f"comma-joined campaign families ({','.join(FAMILY_CHOICES)})")
    survey.add_argument("--tags", nargs="*")
    survey.add_argument("--seed", type=int, default=0)
    survey.add_argument("--csv-dir", help="export each selected family's series as CSV here")
    survey.add_argument("--jobs", type=int, default=1, help="shard devices across N worker processes")
    survey.add_argument("--out", metavar="DIR",
                        help="persist every (device, family) cell into a campaign store at DIR")
    survey.add_argument("--resume", action="store_true",
                        help="with --out: skip cells already in the store, run only the missing ones")
    _add_chaos_flags(survey)
    _add_campaign_flags(survey)
    _add_obs_flags(survey)
    survey.set_defaults(func=cmd_survey)

    stun = sub.add_parser("classify", help="STUN-style classification")
    stun.add_argument("--tags", nargs="*")
    stun.add_argument("--seed", type=int, default=0)
    stun.set_defaults(func=cmd_probe, test="stun_classify")

    report = sub.add_parser("report", help="full markdown survey report")
    report.add_argument("--tests", nargs="+", default=None, choices=FAMILY_CHOICES,
                        help="families to run (default: udp1 udp2 udp3 tcp1 tcp4)")
    report.add_argument("--families", metavar="F1,F2",
                        help=f"comma-joined campaign families ({','.join(FAMILY_CHOICES)})")
    report.add_argument("--from", dest="from_dir", metavar="DIR",
                        help="render from a campaign store written by `survey --out` (no simulation)")
    report.add_argument("--tags", nargs="*")
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--output", help="write the markdown here instead of stdout")
    report.add_argument("--jobs", type=int, default=1, help="shard devices across N worker processes")
    _add_chaos_flags(report)
    _add_campaign_flags(report)
    _add_obs_flags(report)
    report.set_defaults(func=cmd_report)

    trace = sub.add_parser("trace", help="summarize JSONL trace files from --trace")
    trace.add_argument("paths", nargs="+",
                       help="trace files or directories of per-device .jsonl files")
    trace.add_argument("--json", action="store_true", help="emit the summary as JSON")
    trace.set_defaults(func=cmd_trace)

    comp = sub.add_parser("compliance", help="grade against the IETF BCPs")
    comp.add_argument("--tags", nargs="*")
    _add_knob_flags(comp, compliance.FAMILIES)
    comp.add_argument("--seed", type=int, default=0)
    comp.set_defaults(func=cmd_compliance, udp_repetitions=1)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args, print)


if __name__ == "__main__":  # pragma: no cover - module execution path
    sys.exit(main())
