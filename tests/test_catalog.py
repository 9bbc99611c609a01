"""The calibrated catalog must embody every aggregate the paper states."""

import pytest

from repro import paperdata
from repro.devices import CATALOG, catalog_profiles, profile_for
from repro.devices.catalog import TCP_BINDING_CAPS, UDP_TIMEOUTS
from repro.devices.profile import FallbackBehavior, IcmpAction
from repro.testbed import Testbed


def test_exactly_the_34_devices_of_table1():
    assert len(CATALOG) == paperdata.DEVICE_COUNT
    assert len(catalog_profiles()) == paperdata.DEVICE_COUNT
    assert set(CATALOG) == set(paperdata.ALL_TAGS)


def test_profile_for_unknown_tag():
    with pytest.raises(KeyError, match="unknown device tag"):
        profile_for("nope")


def test_catalog_profiles_ordering():
    profiles = catalog_profiles(["ls1", "je"])
    assert [p.tag for p in profiles] == ["ls1", "je"]


def test_vendor_inventory_matches_table1():
    assert CATALOG["ap"].vendor == "Apple"
    assert CATALOG["owrt"].firmware == "OpenWRT RC5"
    assert CATALOG["dl10"].model == "DI-713P"
    dlink = [t for t, p in CATALOG.items() if p.vendor == "D-Link"]
    assert len(dlink) == 10
    assert {p.vendor for p in catalog_profiles()} == {
        "A-Link", "Apple", "Asus", "Belkin", "Buffalo", "D-Link", "Edimax", "Jensen",
        "Linksys", "Netgear", "Netwjork", "SMC", "Telewell", "Webee", "ZyXel",
    }


def test_testbed_brings_up_all_34():
    """Figure 1's bring-up across the full population: every device must DHCP both sides."""
    bed = Testbed.build(catalog_profiles(), seed=0)
    assert len(bed.tags()) == 34
    for tag in bed.tags():
        assert bed.port(tag).gateway.wan_ip is not None
        assert bed.client_ip(tag) is not None


class TestUdpCalibration:
    def test_udp1_anchors(self):
        assert UDP_TIMEOUTS["je"][0] == 30
        assert UDP_TIMEOUTS["ls1"][0] == 691
        for tag in ("owrt", "te", "to", "ed"):
            assert UDP_TIMEOUTS[tag][0] == 30

    def test_udp1_ordering_matches_fig3(self):
        values = [UDP_TIMEOUTS[tag][0] for tag in paperdata.FIG3_ORDER]
        assert values == sorted(values)

    def test_udp2_ordering_matches_fig4(self):
        values = [UDP_TIMEOUTS[tag][1] for tag in paperdata.FIG4_ORDER]
        assert values == sorted(values)

    def test_udp3_ordering_matches_fig5(self):
        values = [UDP_TIMEOUTS[tag][2] for tag in paperdata.FIG5_ORDER]
        assert values == sorted(values)

    def test_population_stats_near_paper(self):
        for index, (target_median, target_mean) in enumerate(
            [
                (paperdata.FIG3_POP_MEDIAN, paperdata.FIG3_POP_MEAN),
                (paperdata.FIG4_POP_MEDIAN, paperdata.FIG4_POP_MEAN),
                (paperdata.FIG5_POP_MEDIAN, paperdata.FIG5_POP_MEAN),
            ]
        ):
            values = sorted(v[index] for v in UDP_TIMEOUTS.values())
            median = (values[16] + values[17]) / 2
            mean = sum(values) / len(values)
            assert median == pytest.approx(target_median, abs=1.5)
            assert mean == pytest.approx(target_mean, rel=0.01)

    def test_udp3_never_shorter_than_udp2(self):
        # §4.1: "no devices shorten them".
        for tag, (u1, u2, u3, _g) in UDP_TIMEOUTS.items():
            assert u3 >= u2, tag

    def test_coarse_timer_devices(self):
        for tag in paperdata.COARSE_TIMER_TAGS:
            assert CATALOG[tag].udp_timeouts.timer_granularity > 0, tag
        assert CATALOG["ls1"].udp_timeouts.timer_granularity == 0

    def test_dl8_dns_exception(self):
        assert CATALOG["dl8"].udp_timeouts.per_port == {53: 30.0}
        assert not CATALOG["dl1"].udp_timeouts.per_port


class TestTcpCalibration:
    def test_fig7_ordering(self):
        measured = [t for t in paperdata.FIG7_ORDER if t not in paperdata.TCP1_OVER_24H_TAGS]
        values = [CATALOG[tag].tcp_timeouts.established for tag in measured]
        assert values == sorted(values)

    def test_over_24h_devices(self):
        for tag in paperdata.TCP1_OVER_24H_TAGS:
            assert CATALOG[tag].tcp_timeouts.established is None, tag
        assert sum(1 for p in CATALOG.values() if p.tcp_timeouts.established is None) == 7

    def test_be1_anchor(self):
        assert CATALOG["be1"].tcp_timeouts.established == paperdata.TCP1_SHORTEST_SECONDS

    def test_tcp1_population_stats(self):
        minutes = [
            (p.tcp_timeouts.established / 60.0) if p.tcp_timeouts.established is not None else 1440.0
            for p in CATALOG.values()
        ]
        ordered = sorted(minutes)
        median = (ordered[16] + ordered[17]) / 2
        assert median == pytest.approx(paperdata.FIG7_POP_MEDIAN_MINUTES, abs=0.25)
        assert sum(minutes) / 34 == pytest.approx(paperdata.FIG7_POP_MEAN_MINUTES, rel=0.005)

    def test_more_than_half_below_rfc5382(self):
        below = [
            p.tag
            for p in CATALOG.values()
            if p.tcp_timeouts.established is not None
            and p.tcp_timeouts.established < paperdata.RFC5382_MINIMUM_MINUTES * 60
        ]
        assert len(below) > 17


class TestBindingCapacity:
    def test_fig10_ordering(self):
        values = [TCP_BINDING_CAPS[tag] for tag in paperdata.FIG10_ORDER]
        assert values == sorted(values)

    def test_anchors(self):
        assert TCP_BINDING_CAPS["dl9"] == TCP_BINDING_CAPS["smc"] == paperdata.TCP4_MINIMUM_BINDINGS
        assert TCP_BINDING_CAPS["ap"] == paperdata.TCP4_MAXIMUM_BINDINGS

    def test_population_stats(self):
        values = sorted(TCP_BINDING_CAPS.values())
        median = (values[16] + values[17]) / 2
        assert median == pytest.approx(paperdata.FIG10_POP_MEDIAN, abs=0.5)
        assert sum(values) / 34 == pytest.approx(paperdata.FIG10_POP_MEAN, rel=0.005)


class TestTable2Aggregates:
    def test_fallback_split(self):
        groups = {
            FallbackBehavior.PASSTHROUGH: set(),
            FallbackBehavior.IP_ONLY: set(),
            FallbackBehavior.DROP: set(),
        }
        for tag, profile in CATALOG.items():
            groups[profile.fallback].add(tag)
        assert groups[FallbackBehavior.PASSTHROUGH] == set(paperdata.FALLBACK_UNTRANSLATED_TAGS)
        assert len(groups[FallbackBehavior.IP_ONLY]) == paperdata.FALLBACK_IP_ONLY_DEVICES

    def test_sctp_passing_count(self):
        passers = [
            tag
            for tag, p in CATALOG.items()
            if p.fallback is FallbackBehavior.IP_ONLY and p.fallback_allows_inbound
        ]
        assert len(passers) == paperdata.SCTP_PASSING_DEVICES

    def test_udp4_groups(self):
        preserving = [t for t, p in CATALOG.items() if p.nat.port_preservation]
        reusing = [t for t in preserving if CATALOG[t].nat.reuse_expired_binding]
        assert len(preserving) == paperdata.UDP4_PRESERVING_DEVICES
        assert len(reusing) == paperdata.UDP4_PRESERVE_AND_REUSE
        assert 34 - len(preserving) == paperdata.UDP4_NEVER_PRESERVE

    def test_nw1_translates_nothing(self):
        profile = CATALOG[paperdata.ICMP_NO_TRANSLATION_TAG]
        assert all(action is IcmpAction.DROP for action in profile.icmp.tcp.values())
        assert all(action is IcmpAction.DROP for action in profile.icmp.udp.values())

    def test_everyone_else_translates_port_unreach_and_ttl(self):
        for tag, profile in CATALOG.items():
            if tag == "nw1":
                continue
            for table in (profile.icmp.tcp, profile.icmp.udp):
                assert table["port_unreach"] is not IcmpAction.DROP, tag
                assert table["ttl_exceeded"] is not IcmpAction.DROP, tag

    def test_ls2_tcp_errors_become_rsts(self):
        profile = CATALOG[paperdata.ICMP_TCP_AS_RST_TAG]
        assert all(action is IcmpAction.TO_TCP_RST for action in profile.icmp.tcp.values())
        assert all(action is IcmpAction.TRANSLATE for action in profile.icmp.udp.values())

    def test_embedded_rewrite_count(self):
        broken = [t for t, p in CATALOG.items() if not p.icmp.rewrites_embedded_transport]
        assert len(broken) == paperdata.ICMP_NO_EMBEDDED_REWRITE_DEVICES

    def test_embedded_checksum_bugs(self):
        buggy = {t for t, p in CATALOG.items() if not p.icmp.fixes_embedded_ip_checksum}
        assert buggy == set(paperdata.ICMP_BAD_EMBEDDED_IP_CHECKSUM_TAGS)

    def test_dns_counts(self):
        accepting = [t for t, p in CATALOG.items() if p.dns_proxy.accepts_tcp]
        answering = [t for t, p in CATALOG.items() if p.dns_proxy.responds_tcp]
        via_udp = [t for t, p in CATALOG.items() if p.dns_proxy.forwards_tcp_as == "udp"]
        assert len(accepting) == paperdata.DNS_TCP_ACCEPTING_DEVICES
        assert len(answering) == paperdata.DNS_TCP_ANSWERING_DEVICES
        assert via_udp == [paperdata.DNS_TCP_VIA_UDP_TAG]


class TestForwardingCalibration:
    def test_thirteen_line_rate_devices(self):
        line_rate = [
            t for t, p in CATALOG.items()
            if p.forwarding.up_rate_bps >= 100e6 and p.forwarding.down_rate_bps >= 100e6
        ]
        assert len(line_rate) == paperdata.TCP2_LINE_RATE_DEVICES

    def test_fig8_worst_devices(self):
        # dl10 and ls1 must be the two slowest forwarders.
        rates = {t: min(p.forwarding.up_rate_bps, p.forwarding.down_rate_bps) for t, p in CATALOG.items()}
        worst_two = sorted(rates, key=rates.get)[:2]
        assert set(worst_two) == {"dl10", "ls1"}

    def test_smc_asymmetry(self):
        profile = CATALOG["smc"]
        assert profile.forwarding.up_rate_bps > profile.forwarding.down_rate_bps

    def test_weak_devices_share_a_queue(self):
        assert CATALOG["dl10"].forwarding.shared_queue
        assert CATALOG["ls1"].forwarding.shared_queue
        assert not CATALOG["bu1"].forwarding.shared_queue


class TestQuirks:
    def test_ttl_and_record_route_sets(self):
        no_ttl = {t for t, p in CATALOG.items() if not p.quirks.decrements_ttl}
        honors = {t for t, p in CATALOG.items() if p.quirks.honors_record_route}
        assert no_ttl  # "some devices do not decrement TTL"
        assert honors == {"owrt", "to"}  # "few honor Record Route"
        assert len(no_ttl) < 10

    def test_shared_mac_devices(self):
        shared = {t for t, p in CATALOG.items() if p.quirks.shared_wan_lan_mac}
        assert shared == {"al", "we", "je"}
