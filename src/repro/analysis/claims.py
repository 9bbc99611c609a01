"""The paper's claims, each declared once and checked over a campaign's results.

A :class:`Claim` is one statement of Hätönen et al. (IMC 2010) about the
34-device population — a figure's ordering, median or mean, a named anchor,
a Table 2 count, a §4.4 compliance share — or about a §5 extension run on
the same population.  It names its paper anchor and the families it reads;
its ``check`` turns a :class:`~repro.core.survey.SurveyResults` into a
:class:`Verdict`: the measured value, the paper's value, the rule that
compares them and whether the measurement holds.

The claims are stated at one campaign, declared here as well
(:data:`FAMILIES`, :data:`SEED`, :data:`KNOBS`, :func:`run_campaign`).
``benchmarks/test_paper_claims.py`` runs it into a store and checks every
claim against the cells ``repro report --from`` renders.  The paper's
numbers come from :mod:`repro.paperdata`; the tolerances sit with the claims.

Nothing on the campaign or report path imports this module.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import paperdata as paper
from repro.analysis.compare import kendall_tau
from repro.compliance import grade, population_summary
from repro.core.results import DeviceSeries, median, population_stats
from repro.core.survey import SurveyResults, SurveyRunner
from repro.core.tcp_binding import TcpBindingCapacityProbe, TcpTimeoutProbe
from repro.core.throughput import ThroughputProbe
from repro.core.udp_timeouts import by_service, timeout_series
from repro.devices import CATALOG, catalog_profiles
from repro.devices.profile import IcmpAction

#: The families the claims' campaign runs: the paper's menu plus four opt-in §5 diagnostics.
FAMILIES = ("udp1", "udp2", "udp3", "udp5", "tcp1", "tcp2", "tcp4", "icmp", "transports", "dns",
            "pmtu", "options", "binding_rate", "stun_classify")
#: The campaign seed the claims are stated at.
SEED = 0
#: The knobs the claims are stated at; the rest keep their defaults (TCP-1's 24 h cutoff).
KNOBS = {"udp_repetitions": 3, "udp5_repetitions": 1, "transfer_bytes": 1536 * 1024}


def run_campaign(**engine: Any) -> SurveyResults:
    """Run the claims' campaign over every catalog device; ``engine`` says how (``jobs``, ``store_dir``), not what."""
    return SurveyRunner(catalog_profiles(), SEED, **engine, **KNOBS).run(list(FAMILIES))


@dataclass(frozen=True)
class Verdict:
    """One claim checked: the measured value against the paper's under ``rule``.

    ``paper`` is ``None`` where the paper states no number; for the §5
    extensions, which the paper did not measure, it is the value the
    catalog implies.
    """

    measured: Any
    paper: Any
    rule: str
    passed: bool


@dataclass(frozen=True)
class Claim:
    """One paper statement: its id, paper anchor, the families it reads and its check."""

    id: str
    anchor: str
    families: Tuple[str, ...]
    check: Callable[[SurveyResults], Verdict]

    def measured_by(self, results: SurveyResults) -> bool:
        """Whether ``results`` holds every family the claim reads."""
        return all(results.family(name) for name in self.families)


# -- rules -------------------------------------------------------------------

def near(measured: float, expected: float, rel: Optional[float] = None, within: Optional[float] = None) -> Verdict:
    """``pytest.approx``'s test: within ``rel`` of ``expected`` (a fraction of it), else within ``within``."""
    if rel is not None:
        return Verdict(measured, expected, f"±{rel:.0%}", abs(measured - expected) <= rel * abs(expected))
    return Verdict(measured, expected, f"±{within:g}", abs(measured - expected) <= within)


def equal(measured: Any, expected: Any) -> Verdict:
    return Verdict(measured, expected, "==", measured == expected)


_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


def holds(measured: float, op: str, bound: float, expected: Any = None) -> Verdict:
    """``measured op bound``; ``expected`` is the paper's value where it states one."""
    return Verdict(measured, expected, f"{op} {bound:g}", _COMPARE[op](measured, bound))


def none_of(failing: Sequence[str]) -> Verdict:
    """Every device holds; the measured value lists those that do not."""
    return Verdict(sorted(failing), [], "none", not failing)


def ordered(series: DeviceSeries, paper_order: Sequence[str], bound: float) -> Verdict:
    """Kendall τ of the series' device order against a figure's x-axis (the paper's own τ is 1)."""
    return holds(kendall_tau(list(paper_order), series.ordered_tags()), ">", bound, 1.0)


# -- what the claims read ----------------------------------------------------

def udp(results: SurveyResults, name: str) -> DeviceSeries:
    return timeout_series(results.family(name), name)


def udp_gain(results: SurveyResults, longer: str, shorter: str, tags: Sequence[str]) -> Dict[str, float]:
    """Per device of ``tags``: family ``longer``'s median timeout minus ``shorter``'s."""
    a, b = udp(results, longer).medians(), udp(results, shorter).medians()
    return {tag: a[tag] - b[tag] for tag in tags}


def udp_ratio(results: SurveyResults, longer: str, shorter: str, tags: Sequence[str]) -> Dict[str, float]:
    """Per device of ``tags``: family ``longer``'s median timeout over ``shorter``'s."""
    a, b = udp(results, longer).medians(), udp(results, shorter).medians()
    return {tag: a[tag] / b[tag] for tag in tags}


def udp4(results: SurveyResults) -> Counter:
    """UDP-4's three-way classification, counted over the population."""
    return Counter(behavior.category for behavior in results.family("udp4").values())


def udp5_spread(results: SurveyResults, keep: Callable[[str], bool]) -> float:
    """The widest spread of one device's UDP-5 medians across the Figure 6 services, over devices ``keep`` picks."""
    services = by_service(results.family("udp5"))
    medians = {s: timeout_series(services[s], s).medians() for s in paper.FIG6_SERVICES}
    return max(max(m[tag] for m in medians.values()) - min(m[tag] for m in medians.values())
               for tag in medians["http"] if keep(tag))


def udp5_dns_share(results: SurveyResults, tag: str) -> float:
    cell = results.family("udp5")[tag]
    return cell["dns"].summary().median / cell["http"].summary().median


def tcp1(results: SurveyResults) -> DeviceSeries:
    return TcpTimeoutProbe().series(results.family("tcp1"))


def tcp1_minutes(results: SurveyResults) -> Dict[str, float]:
    """Figure 7's population statistics in minutes, censored devices at the 24 h cutoff."""
    series = tcp1(results)
    cutoff = paper.TCP1_CUTOFF_MINUTES * 60.0
    return population_stats([series.value_for_stats(tag, censored_as=cutoff) / 60.0
                             for tag in [*series.summaries, *series.censored]])


def tcp1_order(results: SurveyResults) -> float:
    """Kendall τ of Figure 7's order over the devices timed out before the cutoff."""
    series = tcp1(results)
    ours = [tag for tag in series.ordered_tags() if tag not in series.censored]
    return kendall_tau([tag for tag in paper.FIG7_ORDER if tag not in paper.TCP1_OVER_24H_TAGS], ours)


def throughput(results: SurveyResults, direction: str) -> DeviceSeries:
    return ThroughputProbe().throughput_series(results.family("tcp2"), direction)


def mbps(results: SurveyResults, direction: str) -> Dict[str, float]:
    return throughput(results, direction).medians()


def line_rate_devices(results: SurveyResults) -> int:
    """Devices above 85 Mb/s both ways: the simulated 100 Mb/s line less framing."""
    down, up = mbps(results, "download"), mbps(results, "upload")
    return _count(down[tag] > 85 and up[tag] > 85 for tag in down)


def delay(results: SurveyResults, direction: str) -> Dict[str, float]:
    return ThroughputProbe().delay_series(results.family("tcp2"), direction).medians()


def delay_order(results: SurveyResults) -> List[str]:
    """Figure 9's x-axis: devices by their larger one-way queuing delay."""
    down, up = delay(results, "download"), delay(results, "upload")
    return sorted(down, key=lambda tag: max(down[tag], up[tag]))


def delay_throughput_tau(results: SurveyResults) -> float:
    """§4.2: Kendall τ of the download-throughput rank (best first) against Figure 9's order."""
    data = results.family("tcp2")
    by_rate = sorted(delay(results, "download"), key=lambda tag: data[tag].download.throughput_bps, reverse=True)
    return kendall_tau(by_rate, delay_order(results))


def bindings(results: SurveyResults) -> Dict[str, float]:
    return population_stats([float(r.max_bindings) for r in results.family("tcp4").values()])


def sctp(results: SurveyResults, view: Optional[str] = None) -> List[str]:
    """Devices passing SCTP (``view=None``), or whose SCTP fallback shows the server ``view``."""
    return [tag for tag, protos in results.family("transports").items()
            if (protos["sctp"].supported if view is None else protos["sctp"].wire_view == view)]


def icmp_basics_missing(results: SurveyResults) -> List[str]:
    """Devices besides nw1 and ls2 that drop Port Unreachable or TTL Exceeded for UDP or TCP."""
    basics = {"port_unreach", "ttl_exceeded"}
    return [tag for tag, r in results.family("icmp").items()
            if tag not in (paper.ICMP_NO_TRANSLATION_TAG, paper.ICMP_TCP_AS_RST_TAG)
            and not (basics <= set(r.forwarded_kinds("udp")) and basics <= set(r.forwarded_kinds("tcp")))]


def dns(results: SurveyResults, attribute: str) -> List[str]:
    return [tag for tag, r in results.family("dns").items() if getattr(r, attribute)]


def compliance(results: SurveyResults) -> Dict[str, float]:
    return population_summary(grade(results))


def keepalive_2h_survivors(results: SurveyResults) -> int:
    """Devices on which RFC 1122's 2 h TCP keepalive keeps the binding."""
    return sum(1 for r in results.family("tcp1").values() if r.censored or (r.samples and r.summary().median > 7200))


def best_everywhere(results: SurveyResults) -> List[str]:
    """§4.4: devices in the top quartile of UDP-1, TCP-1, TCP-4 and ICMP translation alike."""
    udp1, tcp1_, tcp4, icmp = (results.family(name) for name in ("udp1", "tcp1", "tcp4", "icmp"))

    def rank(values: Dict[str, float]) -> Dict[str, int]:
        return {tag: position for position, tag in enumerate(sorted(values, key=values.get, reverse=True))}

    ranks = (
        rank({t: r.summary().median for t, r in udp1.items()}),
        rank({t: (r.summary().median if r.samples else 1e9) for t, r in tcp1_.items()}),
        rank({t: float(tcp4[t].max_bindings) for t in udp1}),
        rank({t: float(len(r.forwarded_kinds("udp")) + len(r.forwarded_kinds("tcp"))) for t, r in icmp.items()}),
    )
    top_quartile = paper.DEVICE_COUNT // 4
    return [tag for tag in udp1 if all(r[tag] < top_quartile for r in ranks)]


def pmtu_expected_holes() -> List[str]:
    """The catalog devices a constrained path must black-hole (RFC 2923).

    Frag Needed dropped entirely, or forwarded with the external port still
    in the embedded TCP header on a NAT that does not preserve ports: the
    client cannot match the error to its connection.  Port-preserving
    no-rewrite devices (ng3, ng4) get away with it by accident.
    """
    return sorted(tag for tag, p in CATALOG.items()
                  if p.icmp.tcp.get("frag_needed") is not IcmpAction.TRANSLATE
                  or (not p.icmp.rewrites_embedded_transport and not p.nat.port_preservation))


def completed_pmtu(results: SurveyResults) -> Dict[str, Any]:
    return {tag: r for tag, r in results.family("pmtu").items() if r.completed}


def binding_rate(results: SurveyResults, tag: str) -> float:
    return results.family("binding_rate")[tag].saturation_rate()


def _count(values) -> int:
    return sum(1 for value in values if value)


# -- the claims --------------------------------------------------------------

CLAIMS: Tuple[Claim, ...] = (
    # Figures 2-5: UDP binding timeouts.
    Claim("fig2.short_udp1_longer_udp2", "Figure 2", ("udp1", "udp2"), lambda r: holds(
        min(udp_ratio(r, "udp2", "udp1", paper.UDP1_SHORTEST_TAGS).values()), ">", 2.0)),
    Claim("fig3.median", "Figure 3", ("udp1",), lambda r: near(
        udp(r, "udp1").population()["median"], paper.FIG3_POP_MEDIAN, rel=0.05)),
    Claim("fig3.mean", "Figure 3", ("udp1",), lambda r: near(
        udp(r, "udp1").population()["mean"], paper.FIG3_POP_MEAN, rel=0.08)),
    Claim("fig3.ls1", "Figure 3", ("udp1",), lambda r: near(
        udp(r, "udp1").medians()["ls1"], paper.UDP1_LONGEST_SECONDS, rel=0.02)),
    Claim("fig3.order", "Figure 3", ("udp1",), lambda r: ordered(udp(r, "udp1"), paper.FIG3_ORDER, 0.95)),
    Claim("fig3.below_rfc4787_required", "§4.1", ("udp1",), lambda r: holds(
        _count(m < paper.RFC4787_REQUIRED_SECONDS for m in udp(r, "udp1").medians().values()), ">", 17)),
    Claim("fig3.over_rfc4787_recommended", "§4.1", ("udp1",), lambda r: equal(
        sorted(t for t, m in udp(r, "udp1").medians().items() if m > paper.RFC4787_RECOMMENDED_SECONDS), ["ls1"])),
    Claim("fig4.median", "Figure 4", ("udp2",), lambda r: near(
        udp(r, "udp2").population()["median"], paper.FIG4_POP_MEDIAN, rel=0.05)),
    Claim("fig4.mean", "Figure 4", ("udp2",), lambda r: near(
        udp(r, "udp2").population()["mean"], paper.FIG4_POP_MEAN, rel=0.08)),
    Claim("fig4.order", "Figure 4", ("udp2",), lambda r: ordered(udp(r, "udp2"), paper.FIG4_ORDER, 0.85)),
    Claim("fig4.ap", "Figure 4", ("udp2",), lambda r: near(
        udp(r, "udp2").medians()["ap"], paper.UDP2_MINIMUM_SECONDS, within=3.0)),
    Claim("fig4.be2", "Figure 4", ("udp2",), lambda r: near(
        udp(r, "udp2").medians()["be2"], paper.UDP2_BE2_APPROX, within=5.0)),
    Claim("fig4.coarse_timer_iqr", "Figure 4", ("udp2",), lambda r: holds(
        min(udp(r, "udp2").summaries[t].iqr for t in paper.COARSE_TIMER_TAGS), ">",
        udp(r, "udp2").summaries["dl2"].iqr)),
    Claim("fig5.median", "Figure 5", ("udp3",), lambda r: near(
        udp(r, "udp3").population()["median"], paper.FIG5_POP_MEDIAN, rel=0.05)),
    Claim("fig5.mean", "Figure 5", ("udp3",), lambda r: near(
        udp(r, "udp3").population()["mean"], paper.FIG5_POP_MEAN, rel=0.08)),
    Claim("fig5.order", "Figure 5", ("udp3",), lambda r: ordered(udp(r, "udp3"), paper.FIG5_ORDER, 0.85)),
    Claim("fig5.lengthening", "§4.1", ("udp2", "udp3"), lambda r: holds(
        min(udp_gain(r, "udp3", "udp2", paper.UDP3_LENGTHENING_TAGS).values()), ">", 10.0)),
    Claim("fig5.none_shorter", "§4.1", ("udp2", "udp3"), lambda r: holds(
        min(udp_gain(r, "udp3", "udp2", r.family("udp2")).values()), ">=", -5.0)),
    # UDP-4 and Figure 6.
    Claim("udp4.preserve_and_reuse", "§4.1", ("udp4",), lambda r: equal(
        udp4(r)["preserves_and_reuses"], paper.UDP4_PRESERVE_AND_REUSE)),
    Claim("udp4.preserve_no_reuse", "§4.1", ("udp4",), lambda r: equal(
        udp4(r)["preserves_no_reuse"], paper.UDP4_PRESERVE_NO_REUSE)),
    Claim("udp4.never_preserve", "§4.1", ("udp4",), lambda r: equal(
        udp4(r)["new_binding_no_preservation"], paper.UDP4_NEVER_PRESERVE)),
    Claim("fig6.dl8_dns_shorter", "Figure 6", ("udp5",), lambda r: holds(
        udp5_dns_share(r, paper.UDP5_DNS_EXCEPTION_TAG), "<", 1 / 3)),
    Claim("fig6.coarse_timer_spread", "Figure 6", ("udp5",), lambda r: holds(
        udp5_spread(r, lambda t: t in paper.COARSE_TIMER_TAGS and t != paper.UDP5_DNS_EXCEPTION_TAG), "<=", 35.0)),
    Claim("fig6.port_independent", "Figure 6", ("udp5",), lambda r: holds(
        udp5_spread(r, lambda t: t not in paper.COARSE_TIMER_TAGS and t != paper.UDP5_DNS_EXCEPTION_TAG), "<=", 5.0)),
    # Figure 7: TCP-1.
    Claim("fig7.over_24h", "Figure 7", ("tcp1",), lambda r: equal(
        sorted(tcp1(r).censored), sorted(paper.TCP1_OVER_24H_TAGS))),
    Claim("fig7.median", "Figure 7", ("tcp1",), lambda r: near(
        tcp1_minutes(r)["median"], paper.FIG7_POP_MEDIAN_MINUTES, rel=0.03)),
    Claim("fig7.mean", "Figure 7", ("tcp1",), lambda r: near(
        tcp1_minutes(r)["mean"], paper.FIG7_POP_MEAN_MINUTES, rel=0.05)),
    Claim("fig7.be1", "Figure 7", ("tcp1",), lambda r: near(
        tcp1(r).medians()["be1"], paper.TCP1_SHORTEST_SECONDS, within=2.0)),
    Claim("fig7.order", "Figure 7", ("tcp1",), lambda r: holds(tcp1_order(r), ">", 0.95, 1.0)),
    Claim("fig7.under_an_hour", "§4.4", ("tcp1",), lambda r: holds(
        _count(m < 3600.0 for m in tcp1(r).medians().values()), ">=", 16)),
    # Figure 8: TCP-2 throughput.
    Claim("fig8.worst_two", "Figure 8", ("tcp2",), lambda r: equal(
        sorted(throughput(r, "download").ordered_tags()[:2]), sorted(paper.TCP_WORST_TAGS))),
    Claim("fig8.dl10_down", "Figure 8", ("tcp2",), lambda r: near(
        mbps(r, "download")["dl10"], paper.TCP2_DL10_DOWN_MBPS, rel=0.25)),
    Claim("fig8.ls1_down", "Figure 8", ("tcp2",), lambda r: near(
        mbps(r, "download")["ls1"], paper.TCP2_LS1_DOWN_MBPS, rel=0.25)),
    Claim("fig8.ls1_up", "Figure 8", ("tcp2",), lambda r: near(
        mbps(r, "upload")["ls1"], paper.TCP2_LS1_UP_MBPS, rel=0.25)),
    Claim("fig8.smc_up_over_down", "Figure 8", ("tcp2",), lambda r: holds(
        mbps(r, "upload")["smc"] / mbps(r, "download")["smc"], ">", 1.3,
        paper.TCP2_SMC_UP_MBPS / paper.TCP2_SMC_DOWN_MBPS)),
    Claim("fig8.line_rate", "Figure 8", ("tcp2",), lambda r: equal(line_rate_devices(r), paper.TCP2_LINE_RATE_DEVICES)),
    Claim("fig8.unidirectional_median", "Figure 8", ("tcp2",), lambda r: near(
        median(list(mbps(r, "download").values())), paper.TCP2_UNIDIR_MEDIAN_MBPS, rel=0.15)),
    Claim("fig8.bidirectional_median", "Figure 8", ("tcp2",), lambda r: near(
        median([*mbps(r, "download_bidir").values(), *mbps(r, "upload_bidir").values()]),
        paper.TCP2_BIDIR_MEDIAN_MBPS, rel=0.25)),
    # Figure 9: TCP-3 queuing delay.
    Claim("fig9.worst_two", "Figure 9", ("tcp2",), lambda r: equal(
        sorted(delay_order(r)[-2:]), sorted(paper.TCP_WORST_TAGS))),
    Claim("fig9.dl10_down", "Figure 9", ("tcp2",), lambda r: near(
        delay(r, "download")["dl10"], paper.TCP3_DL10_DOWNLOAD_MS, rel=0.35)),
    Claim("fig9.dl10_bidirectional_growth", "Figure 9", ("tcp2",), lambda r: holds(
        delay(r, "download_bidir")["dl10"] / delay(r, "download")["dl10"], ">", 1.3,
        paper.TCP3_DL10_BIDIR_MS / paper.TCP3_DL10_DOWNLOAD_MS)),
    Claim("fig9.ls1_up", "Figure 9", ("tcp2",), lambda r: near(
        delay(r, "upload")["ls1"], paper.TCP3_LS1_UPLOAD_MS, rel=0.45)),
    Claim("fig9.ls1_bidirectional_growth", "Figure 9", ("tcp2",), lambda r: holds(
        delay(r, "upload_bidir")["ls1"] / delay(r, "upload")["ls1"], ">", 1.05,
        paper.TCP3_LS1_BIDIR_MS / paper.TCP3_LS1_UPLOAD_MS)),
    Claim("fig9.best_five_small", "Figure 9", ("tcp2",), lambda r: holds(
        max(delay(r, "download")[t] for t in delay_order(r)[:5]), "<", 15.0)),
    Claim("fig9.best_five_bidirectional_increase", "Figure 9", ("tcp2",), lambda r: holds(
        max(abs(delay(r, "download_bidir")[t] - delay(r, "download")[t]) for t in delay_order(r)[:5]), "<", 10.0,
        paper.TCP3_BEST_BIDIR_INCREASE_MS)),
    Claim("fig9.throughput_rank", "§4.2", ("tcp2",), lambda r: holds(delay_throughput_tau(r), ">", 0.5)),
    # Figure 10: TCP-4.
    Claim("fig10.dl9", "Figure 10", ("tcp4",), lambda r: equal(
        r.family("tcp4")["dl9"].max_bindings, paper.TCP4_MINIMUM_BINDINGS)),
    Claim("fig10.smc", "Figure 10", ("tcp4",), lambda r: equal(
        r.family("tcp4")["smc"].max_bindings, paper.TCP4_MINIMUM_BINDINGS)),
    Claim("fig10.ap", "Figure 10", ("tcp4",), lambda r: equal(
        r.family("tcp4")["ap"].max_bindings, paper.TCP4_MAXIMUM_BINDINGS)),
    Claim("fig10.median", "Figure 10", ("tcp4",), lambda r: near(
        bindings(r)["median"], paper.FIG10_POP_MEDIAN, rel=0.02)),
    Claim("fig10.mean", "Figure 10", ("tcp4",), lambda r: near(bindings(r)["mean"], paper.FIG10_POP_MEAN, rel=0.02)),
    Claim("fig10.order", "Figure 10", ("tcp4",), lambda r: ordered(
        TcpBindingCapacityProbe().series(r.family("tcp4")), paper.FIG10_ORDER, 0.97)),
    Claim("fig10.far_below_port_space", "§4.4", ("tcp4",), lambda r: holds(bindings(r)["max"], "<=", 1100)),
    # Table 2: ICMP, SCTP/DCCP, DNS.
    Claim("table2.sctp_passing", "Table 2", ("transports",), lambda r: equal(
        len(sctp(r)), paper.SCTP_PASSING_DEVICES)),
    Claim("table2.dccp_passing", "Table 2", ("transports",), lambda r: equal(
        _count(p["dccp"].supported for p in r.family("transports").values()), paper.DCCP_PASSING_DEVICES)),
    Claim("table2.fallback_untranslated", "Table 2", ("transports",), lambda r: equal(
        sorted(sctp(r, "untranslated")), sorted(paper.FALLBACK_UNTRANSLATED_TAGS))),
    Claim("table2.fallback_ip_only", "Table 2", ("transports",), lambda r: equal(
        len(sctp(r, "ip_only")), paper.FALLBACK_IP_ONLY_DEVICES)),
    Claim("table2.sctp_passers_ip_only", "§4.3", ("transports",), lambda r: none_of(
        set(sctp(r)) - set(sctp(r, "ip_only")))),
    Claim("table2.nw1_translates_nothing", "Table 2", ("icmp",), lambda r: equal(
        [*r.family("icmp")[paper.ICMP_NO_TRANSLATION_TAG].forwarded_kinds("udp"),
         *r.family("icmp")[paper.ICMP_NO_TRANSLATION_TAG].forwarded_kinds("tcp")], [])),
    Claim("table2.port_unreach_and_ttl", "Table 2", ("icmp",), lambda r: none_of(icmp_basics_missing(r))),
    Claim("table2.ls2_tcp_errors_as_rst", "Table 2", ("icmp",), lambda r: equal(
        r.family("icmp")[paper.ICMP_TCP_AS_RST_TAG].tcp_errors_become_rsts(), True)),
    Claim("table2.no_embedded_rewrite", "Table 2", ("icmp",), lambda r: equal(
        _count(not x.translates_embedded_transport() for x in r.family("icmp").values()),
        paper.ICMP_NO_EMBEDDED_REWRITE_DEVICES)),
    Claim("table2.bad_embedded_ip_checksum", "Table 2", ("icmp",), lambda r: equal(
        sorted(t for t, x in r.family("icmp").items()
               if x.forwarded_kinds("udp") and not x.fixes_embedded_ip_checksum()),
        sorted(paper.ICMP_BAD_EMBEDDED_IP_CHECKSUM_TAGS))),
    Claim("table2.dns_tcp_accepting", "Table 2", ("dns",), lambda r: equal(
        len(dns(r, "accepts_tcp")), paper.DNS_TCP_ACCEPTING_DEVICES)),
    Claim("table2.dns_tcp_answering", "Table 2", ("dns",), lambda r: equal(
        len(dns(r, "answers_tcp")), paper.DNS_TCP_ANSWERING_DEVICES)),
    Claim("table2.dns_tcp_via_udp", "§4.3", ("dns",), lambda r: equal(
        r.family("dns")[paper.DNS_TCP_VIA_UDP_TAG].upstream_transport_for_tcp, "udp")),
    Claim("table2.dns_tcp_via_tcp", "§4.3", ("dns",), lambda r: none_of(
        [t for t in dns(r, "answers_tcp")
         if t != paper.DNS_TCP_VIA_UDP_TAG and r.family("dns")[t].upstream_transport_for_tcp != "tcp"])),
    Claim("table2.dns_udp", "Table 2", ("dns",), lambda r: none_of(
        [t for t, x in r.family("dns").items() if not x.answers_udp])),
    # §4.4: compliance shares and observations.
    Claim("s44.udp_below_rfc4787_required", "§4.4", ("udp1", "tcp1", "icmp"), lambda r: holds(
        compliance(r)["udp_below_required"], ">", 0.5)),
    Claim("s44.udp_meets_rfc4787_recommended", "§4.4", ("udp1", "tcp1", "icmp"), lambda r: near(
        compliance(r)["udp_meets_recommended"], 1 / paper.DEVICE_COUNT, within=0.01)),
    Claim("s44.tcp_below_rfc5382_minimum", "§4.4", ("udp1", "tcp1", "icmp"), lambda r: holds(
        compliance(r)["tcp_below_minimum"], ">", 0.5)),
    Claim("s44.chatty_binding_minimum", "§4.4", ("udp3",), lambda r: holds(
        min(udp(r, "udp3").medians().values()), ">=", paper.UDP2_MINIMUM_SECONDS, paper.UDP2_MINIMUM_SECONDS)),
    Claim("s44.two_hour_keepalive", "§4.4", ("tcp1",), lambda r: holds(keepalive_2h_survivors(r), "<", 17)),
    Claim("s44.no_device_wins_everywhere", "§4.4", ("udp1", "tcp1", "tcp4", "icmp"), lambda r: equal(
        best_everywhere(r), [])),
    # §5 extensions on the same population.
    Claim("ext.pmtu_black_holes", "§3.2.3", ("pmtu",), lambda r: equal(
        sorted(t for t, x in r.family("pmtu").items() if x.black_hole), pmtu_expected_holes())),
    Claim("ext.pmtu_learned_mss", "§3.2.3", ("pmtu",), lambda r: none_of(
        [t for t, x in completed_pmtu(r).items() if x.mss_after != 960])),
    Claim("ext.pmtu_fast", "§3.2.3", ("pmtu",), lambda r: holds(
        max((x.duration for x in completed_pmtu(r).values()), default=0.0), "<", 5.0)),
    Claim("ext.binding_rate_ls1", "§5", ("binding_rate",), lambda r: holds(binding_rate(r, "ls1"), "<", 450)),
    Claim("ext.binding_rate_smc", "§5", ("binding_rate",), lambda r: holds(binding_rate(r, "smc"), "<", 600)),
    Claim("ext.binding_rate_bu1", "§5", ("binding_rate",), lambda r: holds(
        r.family("binding_rate")["bu1"].sustainable_rate(), ">=", 350)),
    Claim("ext.binding_rate_spread", "§5", ("binding_rate",), lambda r: holds(
        binding_rate(r, "ng1") / binding_rate(r, "ls1"), ">", 3.0)),
    Claim("ext.record_route", "§5", ("options",), lambda r: equal(
        _count(x.record_route_recorded for x in r.family("options").values()), 2)),
    Claim("ext.tcp_options_preserved", "§5", ("options",), lambda r: equal(
        _count(x.tcp_options_preserved for x in r.family("options").values()), paper.DEVICE_COUNT)),
    Claim("ext.stun_symmetric", "§5", ("stun_classify",), lambda r: none_of(
        [t for t in ("ng1", "smc") if r.family("stun_classify")[t].rfc3489_type != "symmetric"])),
)


def _show(value: Any) -> str:
    if value is None:
        return "—"
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, list):
        return " ".join(map(str, value)) or "none"
    return str(value)


def render_claims(results: SurveyResults) -> str:
    """Every claim as one markdown table row; a claim whose families ``results`` lacks reads "not measured"."""
    rows = ["| claim | anchor | measured | paper | rule | verdict |", "|---|---|---|---|---|---|"]
    for c in CLAIMS:
        if not c.measured_by(results):
            rows.append(f"| {c.id} | {c.anchor} | | | | not measured |")
            continue
        v = c.check(results)
        rows.append(f"| {c.id} | {c.anchor} | {_show(v.measured)} | {_show(v.paper)} | {v.rule} | "
                    f"{'pass' if v.passed else 'FAIL'} |")
    return "\n".join(rows)
