"""The 34 calibrated device profiles of Table 1.

Calibration sources, per knob:

* **UDP timeouts** — Figures 3/4/5 orderings plus the legend population
  stats (median 90/180/181 s, mean 160.41/174.67/225.94 s) and the text
  anchors (je = 30 s, ls1 = 691 s, UDP-2 minimum 54 s, be2 ≈ 202 s, …).
  Devices the text flags for coarse binding timers (we, al, je, ng5) get a
  timer-wheel granularity; their nominal timeout is lowered by half a wheel
  period so the *measured median* lands on the calibrated value.
* **TCP timeouts** — Figure 7 (log scale): be1 = 239 s, population median
  59.98 min, mean 386.46 min with the seven >24 h devices plotted at the
  1440-minute cutoff.
* **Binding capacity** — Figure 10: dl9 = smc = 16, ap ≈ 1024, median
  135.5, mean 259.21.
* **Forwarding plane** — Figure 8/9 orderings and anchors (13 line-rate
  devices, smc 41/27 up/down, dl10 and ls1 collapsing bidirectionally).
* **Table 2** — the ICMP/SCTP/DCCP/DNS matrix, reconstructed to satisfy
  every aggregate statement in §4.3/§4.4 (see DESIGN.md for the policy on
  OCR-ambiguous cells).

The figure-7 x-position of dl10 is not legible in our copy of the paper; it
is placed between dl9 and smc (within the D-Link cluster), which is the only
transcription judgement call in this table.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.devices.profile import (
    DeviceProfile,
    DnsProxyPolicy,
    FallbackBehavior,
    FilteringBehavior,
    ForwardingPolicy,
    IcmpAction,
    IcmpPolicy,
    ICMP_KINDS,
    MappingBehavior,
    NatPolicy,
    QuirkPolicy,
    TcpTimeoutPolicy,
    UdpTimeoutPolicy,
    icmp_actions,
)

# ---------------------------------------------------------------------------
# Table 1: vendor / model / firmware.
# ---------------------------------------------------------------------------

TABLE1 = {
    "al": ("A-Link", "WNAP", "e2.0.9A"),
    "ap": ("Apple", "Airport Express", "7.4.2"),
    "as1": ("Asus", "RT-N15", "2.0.1.1"),
    "be1": ("Belkin", "Wireless N Router", "F5D8236-4_WW_3.00.02"),
    "be2": ("Belkin", "Enhanced N150", "F6D4230-4_WW_1.00.03"),
    "bu1": ("Buffalo", "WZR-AGL300NH", "R1.06/B1.05"),
    "dl1": ("D-Link", "DIR-300", "1.03"),
    "dl2": ("D-Link", "DIR-300", "1.04"),
    "dl3": ("D-Link", "DI-524up", "v1.06"),
    "dl4": ("D-Link", "DI-524", "v2.0.4"),
    "dl5": ("D-Link", "DIR-100", "v1.12"),
    "dl6": ("D-Link", "DIR-600", "v2.01"),
    "dl7": ("D-Link", "DIR-615", "v4.00"),
    "dl8": ("D-Link", "DIR-635", "v2.33EU"),
    "dl9": ("D-Link", "DI-604", "v3.09"),
    "dl10": ("D-Link", "DI-713P", "2.60 build 6a"),
    "ed": ("Edimax", "6104WG", "2.63"),
    "je": ("Jensen", "Air:Link 59300", "1.15"),
    "ls1": ("Linksys", "BEFSR41c2", "1.45.11"),
    "ls2": ("Linksys", "WR54G", "v7.00.1"),
    "ls3": ("Linksys", "WRT54GL v1.1", "v4.30.7"),
    "ls5": ("Linksys", "WRT54GL-EU", "v4.30.7"),
    "owrt": ("Linksys", "WRT54G", "OpenWRT RC5"),
    "to": ("Linksys", "WRT54GL v1.1", "tomato 1.27"),
    "ng1": ("Netgear", "RP614 v4", "V1.0.2_06.29"),
    "ng2": ("Netgear", "WGR614 v7", "(1.0.13_1.0.13)"),
    "ng3": ("Netgear", "WGR614 v9", "V1.2.6_18.0.17"),
    "ng4": ("Netgear", "WNR2000-100PES", "v.1.0.0.34_29.0.45"),
    "ng5": ("Netgear", "WGR614 v4", "V5.0_07"),
    "nw1": ("Netwjork", "54M", "Ver 1.2.6"),
    "smc": ("SMC", "Barricade SMC7004VBR", "R1.07"),
    "te": ("Telewell", "TW-3G", "V7.04b3"),
    "we": ("Webee", "Wireless N Router", "e2.0.9D"),
    "zy1": ("ZyXel", "P-335U", "V3.60(AMB.2)C0"),
}

# ---------------------------------------------------------------------------
# UDP binding timeouts, seconds: tag -> (UDP-1, UDP-2, UDP-3, wheel granularity).
# Values are the *measured medians* the calibration targets; the profile
# builder subtracts half a wheel period for coarse-timer devices.
# ---------------------------------------------------------------------------

UDP_TIMEOUTS = {
    "al": (46, 202, 202, 30.0),
    "ap": (66, 54, 152, 0.0),
    "as1": (90, 151, 160, 0.0),
    "be1": (156, 104, 182, 0.0),
    "be2": (450, 202, 450, 0.0),
    "bu1": (90, 157, 164, 0.0),
    "dl1": (86, 163, 168, 0.0),
    "dl2": (86, 180, 180, 0.0),
    "dl3": (116, 109, 147, 0.0),
    "dl4": (186, 209, 232, 0.0),
    "dl5": (116, 109, 147, 0.0),
    "dl6": (86, 180, 180, 0.0),
    "dl7": (86, 180, 180, 0.0),
    "dl8": (206, 219, 247, 0.0),
    "dl9": (241, 234, 262, 0.0),
    "dl10": (166, 115, 212, 0.0),
    "ed": (30, 180, 180, 0.0),
    "je": (30, 74, 122, 20.0),
    "ls1": (691, 691, 691, 0.0),
    "ls2": (91, 84, 132, 0.0),
    "ls3": (71, 180, 182, 0.0),
    "ls5": (71, 180, 182, 0.0),
    "owrt": (30, 180, 180, 0.0),
    "to": (30, 180, 182, 0.0),
    "ng1": (266, 249, 282, 0.0),
    "ng2": (61, 54, 102, 0.0),
    "ng3": (296, 134, 312, 0.0),
    "ng4": (296, 134, 312, 0.0),
    "ng5": (476, 144, 472, 20.0),
    "nw1": (101, 94, 142, 0.0),
    "smc": (226, 274, 302, 0.0),
    "te": (30, 180, 180, 0.0),
    "we": (51, 59, 112, 30.0),
    "zy1": (326, 309, 352, 0.0),
}

#: UDP-5: per-destination-port timeout overrides (absolute seconds).
UDP_PER_PORT = {
    "dl8": {53: 30.0},
}

# ---------------------------------------------------------------------------
# TCP established-binding timeouts, seconds (None = never expires / >24 h).
# ---------------------------------------------------------------------------

TCP_TIMEOUTS: Dict[str, Optional[float]] = {
    "be1": 239.0, "ng5": 300.0, "be2": 450.0, "al": 600.0, "ls2": 900.0,
    "we": 1200.0, "ls1": 1800.0, "as1": 2100.0, "nw1": 2400.0, "ng2": 2700.0,
    "je": 2880.0, "ng3": 3300.0, "ng4": 3300.0, "dl3": 3420.0, "dl5": 3480.0,
    "dl9": 3540.0, "dl10": 3598.0, "smc": 3600.0, "dl4": 5400.0,
    "dl1": 7200.0, "dl2": 7200.0, "dl7": 7200.0, "dl6": 7440.0,
    "dl8": 10800.0, "zy1": 14520.0, "to": 30000.0, "owrt": 54000.0,
    "ap": None, "bu1": None, "ed": None, "ls3": None, "ls5": None,
    "ng1": None, "te": None,
}

# ---------------------------------------------------------------------------
# TCP-4 binding-table capacity.
# ---------------------------------------------------------------------------

TCP_BINDING_CAPS = {
    "dl9": 16, "smc": 16, "dl10": 24, "ls1": 32, "dl4": 48, "ng2": 64,
    "ls5": 80, "ng3": 90, "to": 96, "ls3": 100, "ng5": 110, "nw1": 120,
    "be1": 128, "ls2": 130, "be2": 132, "te": 135, "dl2": 135, "dl6": 136,
    "dl1": 144, "dl8": 160, "owrt": 176, "zy1": 192, "ng4": 256, "ed": 288,
    "je": 320, "dl3": 384, "dl7": 420, "as1": 448, "dl5": 512, "bu1": 560,
    "al": 637, "we": 700, "ng1": 1000, "ap": 1024,
}

# ---------------------------------------------------------------------------
# Forwarding plane: tag -> (up Mb/s, down Mb/s, combined Mb/s or None,
#                           buffer KiB, base delay ms, shared queue?).
# ---------------------------------------------------------------------------

FORWARDING = {
    # The two collapse-under-load devices (one FIFO through a weak CPU).
    "dl10": (6.5, 6.5, 7.5, 192, 2.0, True),
    "ls1": (5.5, 9.0, 9.0, 256, 2.0, True),
    # Slow but stable forwarders.
    "ap": (13.0, 13.0, 18.0, 256, 1.0, False),
    "te": (15.0, 15.0, 20.0, 256, 1.0, False),
    "owrt": (17.0, 17.0, 22.0, 256, 1.0, False),
    "smc": (41.0, 27.0, 45.0, 256, 1.0, False),
    "dl9": (21.0, 21.0, 28.0, 256, 1.0, False),
    "ed": (23.0, 23.0, 30.0, 256, 1.0, False),
    "zy1": (25.0, 25.0, 33.0, 256, 1.0, False),
    "ng4": (27.0, 27.0, 35.0, 256, 1.0, False),
    "ng5": (29.0, 29.0, 38.0, 256, 1.0, False),
    "ng3": (31.0, 31.0, 40.0, 256, 1.0, False),
    # Mid-range.
    "nw1": (43.0, 43.0, 54.0, 256, 1.0, False),
    "ls3": (47.0, 47.0, 60.0, 256, 1.0, False),
    "ls5": (50.0, 50.0, 64.0, 256, 1.0, False),
    "to": (55.0, 55.0, 70.0, 256, 1.0, False),
    "ls2": (59.0, 59.0, 75.0, 256, 1.0, False),
    "ng2": (64.0, 64.0, 80.0, 256, 1.0, False),
    "je": (68.0, 68.0, 85.0, 256, 0.8, False),
    "dl2": (71.0, 71.0, 89.0, 256, 0.8, False),
    "dl1": (74.0, 74.0, 93.0, 256, 0.8, False),
    # The thirteen line-rate devices (§4.2: "Thirteen devices can sustain
    # the maximum possible throughput"), with varying bidirectional ceilings.
    "we": (100.0, 100.0, 130.0, 256, 0.5, False),
    "as1": (100.0, 100.0, 135.0, 256, 0.5, False),
    "dl7": (100.0, 100.0, 140.0, 256, 0.5, False),
    "be2": (100.0, 100.0, 145.0, 256, 0.5, False),
    "be1": (100.0, 100.0, 150.0, 256, 0.5, False),
    "dl5": (100.0, 100.0, 155.0, 256, 0.5, False),
    "ng1": (100.0, 100.0, 160.0, 256, 0.5, False),
    "dl8": (100.0, 100.0, 165.0, 256, 0.5, False),
    "al": (100.0, 100.0, 170.0, 256, 0.5, False),
    "dl3": (100.0, 100.0, 180.0, 256, 0.5, False),
    "dl6": (100.0, 100.0, 190.0, 256, 0.5, False),
    "bu1": (100.0, 100.0, 200.0, 256, 0.5, False),
    "dl4": (100.0, 100.0, None, 256, 0.5, False),
}

# ---------------------------------------------------------------------------
# Binding-setup rate (new bindings/second the session-table CPU manages).
# The paper never measured this (§5 lists it as future work); these values
# are plausible-by-device-class extrapolations — weak forwarding CPUs set up
# bindings slowly too — and exist so the extension bench has a population to
# sweep.  They are deliberately far above every paper experiment's demand.
# ---------------------------------------------------------------------------

BINDING_RATES = {
    # The four weakest forwarders.
    "dl10": 200.0, "ls1": 200.0, "dl9": 300.0, "smc": 300.0,
    # Slow-but-stable class.
    "te": 500.0, "owrt": 600.0, "ed": 600.0, "zy1": 600.0,
    "ng4": 700.0, "ng5": 700.0, "ng3": 700.0,
    # Mid-range.
    "nw1": 1000.0, "ls3": 1000.0, "ls5": 1000.0, "to": 1200.0, "ls2": 1200.0,
    "ng2": 1200.0, "je": 1500.0, "dl2": 1500.0, "dl1": 1500.0,
    # Line-rate class.
    "we": 2500.0, "as1": 2500.0, "dl7": 2500.0, "be2": 2500.0, "be1": 2500.0,
    "dl5": 2500.0, "dl8": 2500.0, "al": 2500.0, "dl3": 2500.0, "dl6": 2500.0,
    "bu1": 2500.0, "dl4": 2500.0,
    # The binding-capacity champions (ap: slow forwarder, strong table).
    "ng1": 3000.0, "ap": 3000.0,
}

# ---------------------------------------------------------------------------
# NAT port behaviour (UDP-4 groups) and mapping/filtering variety.
# ---------------------------------------------------------------------------

#: Never use the internal source port; every binding gets a fresh port.
NO_PRESERVATION = ("smc", "nw1", "ng1", "zy1", "dl9", "dl10", "ls2")
#: Preserve the source port but refuse to re-use a just-expired binding.
PRESERVE_NO_REUSE = ("be1", "be2", "ng5", "ng2")

#: Symmetric NATs (mapping depends on the remote endpoint).
MAPPING_OVERRIDES = {
    "ng1": MappingBehavior.ADDRESS_AND_PORT_DEPENDENT,
    "smc": MappingBehavior.ADDRESS_AND_PORT_DEPENDENT,
    "ls2": MappingBehavior.ADDRESS_DEPENDENT,
    "zy1": MappingBehavior.ADDRESS_DEPENDENT,
}

#: Full-cone-ish devices (anyone may send in on an open binding).
ENDPOINT_INDEPENDENT_FILTERING = (
    "al", "ap", "we", "je", "ed", "owrt", "to", "bu1", "dl4", "dl9", "dl10", "ls1",
)
PORT_RESTRICTED_FILTERING = ("ng1", "smc", "zy1", "ls2", "be1", "be2", "ng5")

# ---------------------------------------------------------------------------
# Unknown-transport fallback (§4.4) and SCTP/DCCP outcomes.
# ---------------------------------------------------------------------------

FALLBACK_PASSTHROUGH = ("dl4", "dl9", "dl10", "ls1")
FALLBACK_DROP = ("nw1", "be1", "be2", "ng5", "ls2", "smc", "ng2", "ng3", "ng4", "dl8")
#: IP-only translators whose generic bindings filter inbound replies — the
#: two IP-only devices SCTP does *not* work through (18 of 20 pass).
FALLBACK_IP_ONLY_FILTERED = ("ng1", "zy1")

# ---------------------------------------------------------------------------
# ICMP translation matrix (Table 2), by behavioural group.
# ---------------------------------------------------------------------------

_MINIMUM_KINDS = {"port_unreach", "ttl_exceeded"}
_UNREACH_KINDS = _MINIMUM_KINDS | {"host_unreach", "net_unreach"}
_LS1_KINDS = _UNREACH_KINDS | {"proto_unreach", "source_quench"}
_ALL_KINDS = set(ICMP_KINDS)

#: tag -> (tcp kinds translated, udp kinds translated).  Devices not listed
#: translate everything.
ICMP_KIND_OVERRIDES = {
    "nw1": (set(), set()),
    "dl4": (_MINIMUM_KINDS, _MINIMUM_KINDS),
    "dl9": (_MINIMUM_KINDS, _MINIMUM_KINDS),
    "dl10": (_MINIMUM_KINDS, _MINIMUM_KINDS),
    "smc": (_MINIMUM_KINDS, _MINIMUM_KINDS),
    "ls1": (_LS1_KINDS, _LS1_KINDS),
    "be1": (_UNREACH_KINDS, _UNREACH_KINDS),
    "be2": (_UNREACH_KINDS, _UNREACH_KINDS),
    "ng5": (_UNREACH_KINDS, _UNREACH_KINDS),
    # Minor per-device texture among the otherwise-complete translators.
    "as1": (_ALL_KINDS - {"src_route_failed"}, _ALL_KINDS),
    "dl1": (_ALL_KINDS, _ALL_KINDS - {"source_quench"}),
    "dl3": (_ALL_KINDS - {"param_problem"}, _ALL_KINDS - {"param_problem"}),
    "dl5": (_ALL_KINDS - {"src_route_failed"}, _ALL_KINDS - {"src_route_failed"}),
    "dl8": (_ALL_KINDS - {"reass_time_exceeded"}, _ALL_KINDS),
    "ls3": (_ALL_KINDS, _ALL_KINDS - {"param_problem"}),
    "ls5": (_ALL_KINDS, _ALL_KINDS - {"src_route_failed"}),
    "te": (_ALL_KINDS - {"source_quench"}, _ALL_KINDS),
    "ng1": (_ALL_KINDS - {"source_quench"}, _ALL_KINDS - {"source_quench"}),
    "ng2": (
        _ALL_KINDS - {"src_route_failed", "param_problem"},
        _ALL_KINDS - {"src_route_failed", "param_problem"},
    ),
    "ng3": (_ALL_KINDS - {"source_quench"}, _ALL_KINDS - {"source_quench"}),
    "ng4": (_ALL_KINDS - {"source_quench"}, _ALL_KINDS - {"source_quench"}),
    "zy1": (_ALL_KINDS - {"reass_time_exceeded"}, _ALL_KINDS - {"reass_time_exceeded"}),
    # ls2's UDP table is complete; its TCP table is handled specially below.
    "ls2": (_ALL_KINDS, _ALL_KINDS),
}

#: ls2 translates every TCP-related error into an (invalid) TCP RST.
TCP_ERRORS_AS_RST = ("ls2",)

#: The 16 devices that do not rewrite transport headers inside ICMP payloads.
NO_EMBEDDED_TRANSPORT_REWRITE = (
    "dl4", "dl9", "dl10", "ls1", "be1", "be2", "ng5", "ls2", "smc", "nw1",
    "ng1", "ng2", "ng3", "ng4", "dl8", "zy1",
)

#: Devices that forget to fix the IP checksum inside ICMP payloads.
BAD_EMBEDDED_IP_CHECKSUM = ("zy1", "ls1")

#: Devices whose "ICMP: Host Unreach." (errors about echo flows) cell is empty.
NO_ICMP_FLOW_TRANSLATION = (
    "nw1", "be1", "be2", "ng5", "ls2", "smc", "dl4", "dl9", "dl10", "ls1",
)

# ---------------------------------------------------------------------------
# DNS proxy behaviour (§4.3).
# ---------------------------------------------------------------------------

DNS_TCP_ANSWERING = ("ap", "al", "bu1", "ed", "je", "owrt", "to", "we", "dl2", "dl6")
DNS_TCP_ACCEPT_ONLY = ("dl7", "ng1", "te", "zy1")
DNS_TCP_VIA_UDP = ("ap",)

# ---------------------------------------------------------------------------
# §4.4 quirks.
# ---------------------------------------------------------------------------

NO_TTL_DECREMENT = ("dl3", "dl5", "smc", "nw1", "ls2")
HONORS_RECORD_ROUTE = ("owrt", "to")
SHARED_WAN_LAN_MAC = ("al", "we", "je")


def _build_profile(tag: str) -> DeviceProfile:
    vendor, model, firmware = TABLE1[tag]
    udp1, udp2, udp3, granularity = UDP_TIMEOUTS[tag]
    # Coarse wheels overshoot the nominal timeout by U(0, g).  The modified
    # binary search (UDP-1) straddles the wheel and lands ~g/4 high, so its
    # nominal value is shifted down by that much; the growing-gap ramps
    # (UDP-2/3) catch the wheel near its minimum phase and need no shift.
    udp_policy = UdpTimeoutPolicy(
        outbound_only=max(udp1 - granularity / 4.0, 1.0),
        after_inbound=max(udp2, 1.0),
        bidirectional=max(udp3, 1.0),
        per_port=dict(UDP_PER_PORT.get(tag, {})),
        timer_granularity=granularity,
    )
    tcp_policy = TcpTimeoutPolicy(established=TCP_TIMEOUTS[tag])

    if tag in NO_PRESERVATION:
        nat = NatPolicy(port_preservation=False, reuse_expired_binding=False)
    elif tag in PRESERVE_NO_REUSE:
        # The hold-down must outlast the probe's quiescence gap, or the
        # device would look like a re-user between distant iterations.
        nat = NatPolicy(port_preservation=True, reuse_expired_binding=False, reuse_holddown=3600.0)
    else:
        nat = NatPolicy(port_preservation=True, reuse_expired_binding=True)
    nat.max_tcp_bindings = TCP_BINDING_CAPS[tag]
    nat.max_binding_rate = BINDING_RATES[tag]
    nat.mapping = MAPPING_OVERRIDES.get(tag, MappingBehavior.ENDPOINT_INDEPENDENT)
    if tag in ENDPOINT_INDEPENDENT_FILTERING:
        nat.filtering = FilteringBehavior.ENDPOINT_INDEPENDENT
    elif tag in PORT_RESTRICTED_FILTERING:
        nat.filtering = FilteringBehavior.ADDRESS_AND_PORT_DEPENDENT
    else:
        nat.filtering = FilteringBehavior.ADDRESS_DEPENDENT

    up, down, combined, buffer_kib, base_ms, shared = FORWARDING[tag]
    forwarding = ForwardingPolicy(
        up_rate_bps=up * 1e6,
        down_rate_bps=down * 1e6,
        combined_rate_bps=None if combined is None else combined * 1e6,
        buffer_bytes=buffer_kib * 1024,
        base_delay=base_ms / 1e3,
        shared_queue=shared,
    )

    tcp_kinds, udp_kinds = ICMP_KIND_OVERRIDES.get(tag, (_ALL_KINDS, _ALL_KINDS))
    tcp_actions = icmp_actions(set(tcp_kinds))
    if tag in TCP_ERRORS_AS_RST:
        tcp_actions = {kind: IcmpAction.TO_TCP_RST for kind in ICMP_KINDS}
    icmp = IcmpPolicy(
        tcp=tcp_actions,
        udp=icmp_actions(set(udp_kinds)),
        icmp_flows=tag not in NO_ICMP_FLOW_TRANSLATION,
        rewrites_embedded_transport=tag not in NO_EMBEDDED_TRANSPORT_REWRITE,
        fixes_embedded_ip_checksum=tag not in BAD_EMBEDDED_IP_CHECKSUM,
    )

    if tag in FALLBACK_PASSTHROUGH:
        fallback = FallbackBehavior.PASSTHROUGH
    elif tag in FALLBACK_DROP:
        fallback = FallbackBehavior.DROP
    else:
        fallback = FallbackBehavior.IP_ONLY

    dns = DnsProxyPolicy(
        accepts_tcp=tag in DNS_TCP_ANSWERING or tag in DNS_TCP_ACCEPT_ONLY,
        responds_tcp=tag in DNS_TCP_ANSWERING,
        forwards_tcp_as="udp" if tag in DNS_TCP_VIA_UDP else "tcp",
    )
    quirks = QuirkPolicy(
        decrements_ttl=tag not in NO_TTL_DECREMENT,
        honors_record_route=tag in HONORS_RECORD_ROUTE,
        shared_wan_lan_mac=tag in SHARED_WAN_LAN_MAC,
    )
    return DeviceProfile(
        tag=tag,
        vendor=vendor,
        model=model,
        firmware=firmware,
        udp_timeouts=udp_policy,
        tcp_timeouts=tcp_policy,
        nat=nat,
        forwarding=forwarding,
        icmp=icmp,
        fallback=fallback,
        fallback_allows_inbound=tag not in FALLBACK_IP_ONLY_FILTERED,
        dns_proxy=dns,
        quirks=quirks,
    )


CATALOG: Dict[str, DeviceProfile] = {tag: _build_profile(tag) for tag in TABLE1}


def profile_for(tag: str) -> DeviceProfile:
    """Look up one device, with a helpful error for unknown tags."""
    try:
        return CATALOG[tag]
    except KeyError:
        raise KeyError(f"unknown device tag {tag!r}; known: {sorted(CATALOG)}") from None


def catalog_profiles(tags: Optional[Sequence[str]] = None) -> List[DeviceProfile]:
    """Profiles in a stable order (the whole catalog by default)."""
    if tags is None:
        tags = sorted(CATALOG)
    return [profile_for(tag) for tag in tags]
