"""Published numbers from the paper, for paper-vs-measured comparison.

Everything here is transcribed from Hätönen et al., IMC 2010: the device
orderings of every figure's x-axis, the population medians/means printed in
the plot legends, and the named anchors called out in the running text.
The claims of :mod:`repro.analysis.claims` check the reproduction's
measurements against them.
"""

from __future__ import annotations

# -- Table 1: the studied devices -----------------------------------------

ALL_TAGS = (
    "al", "ap", "as1", "be1", "be2", "bu1",
    "dl1", "dl2", "dl3", "dl4", "dl5", "dl6", "dl7", "dl8", "dl9", "dl10",
    "ed", "je",
    "ls1", "ls2", "ls3", "ls5", "owrt", "to",
    "ng1", "ng2", "ng3", "ng4", "ng5",
    "nw1", "smc", "te", "we", "zy1",
)

DEVICE_COUNT = 34

# -- Figure 3: UDP-1 (single outbound packet) --------------------------------

FIG3_ORDER = (
    "je", "owrt", "te", "to", "ed", "al", "we", "ng2", "ap", "ls3", "ls5",
    "dl1", "dl2", "dl6", "dl7", "as1", "bu1", "ls2", "nw1", "dl3", "dl5",
    "be1", "dl10", "dl4", "dl8", "smc", "dl9", "ng1", "ng3", "ng4", "zy1",
    "be2", "ng5", "ls1",
)
FIG3_POP_MEDIAN = 90.00
FIG3_POP_MEAN = 160.41
UDP1_SHORTEST_SECONDS = 30.0     # je (shared by owrt, te, to, ed)
UDP1_LONGEST_SECONDS = 691.0     # ls1, "more than twenty times longer"
#: The 30 s devices of UDP-1 besides je, which UDP-2/3 keep around 180 s (§4.1).
UDP1_SHORTEST_TAGS = ("ed", "owrt", "to", "te")
#: RFC 4787 levels discussed in §4.1.
RFC4787_REQUIRED_SECONDS = 120.0
RFC4787_RECOMMENDED_SECONDS = 600.0

# -- Figure 4: UDP-2 (single packet out, stream in) ------------------------------

FIG4_ORDER = (
    "ap", "ng2", "we", "je", "ls2", "nw1", "be1", "dl3", "dl5", "dl10",
    "ng3", "ng4", "ng5", "as1", "bu1", "dl1", "dl2", "dl6", "dl7", "owrt",
    "te", "ed", "ls3", "ls5", "to", "be2", "al", "dl4", "dl8", "dl9",
    "ng1", "smc", "zy1", "ls1",
)
FIG4_POP_MEDIAN = 180.00
FIG4_POP_MEAN = 174.67
UDP2_MINIMUM_SECONDS = 54.0
UDP2_BE2_APPROX = 202.0
#: Devices the text calls out for a substantial inter-quartile range
#: ("very coarse-grained binding timers").
COARSE_TIMER_TAGS = ("we", "al", "je", "ng5")

# -- Figure 5: UDP-3 (bidirectional) -----------------------------------------------

FIG5_ORDER = (
    "ng2", "we", "je", "ls2", "nw1", "dl3", "dl5", "ap", "as1", "bu1",
    "dl1", "dl2", "dl6", "dl7", "owrt", "te", "ed", "ls3", "ls5", "to",
    "be1", "al", "dl10", "dl4", "dl8", "dl9", "ng1", "smc", "ng3", "ng4",
    "zy1", "be2", "ng5", "ls1",
)
FIG5_POP_MEDIAN = 181.00
FIG5_POP_MEAN = 225.94
#: Devices that lengthen timeouts in UDP-3 back toward their UDP-1 level.
UDP3_LENGTHENING_TAGS = ("be1", "dl10", "ng3", "ng4", "be2", "ng5")

# -- UDP-4 (§4.1, text only) ----------------------------------------------------------

UDP4_PRESERVING_DEVICES = 27
UDP4_PRESERVE_AND_REUSE = 23
UDP4_PRESERVE_NO_REUSE = 4
UDP4_NEVER_PRESERVE = 7

# -- Figure 6: UDP-5 per-service ---------------------------------------------------------

FIG6_SERVICES = ("dns", "http", "ntp", "snmp", "tftp")
#: The notable exception: dl8 shortens its timeout for the DNS port.
UDP5_DNS_EXCEPTION_TAG = "dl8"

# -- Figure 7: TCP-1 ------------------------------------------------------------------------

FIG7_ORDER = (
    "be1", "ng5", "be2", "al", "ls2", "we", "ls1", "as1", "nw1", "ng2",
    "je", "ng3", "ng4", "dl3", "dl5", "dl9", "dl10", "smc", "dl4", "dl1",
    "dl2", "dl7", "dl6", "dl8", "zy1", "to", "owrt",
    # the seven devices still holding bindings after the 24 h cutoff:
    "ap", "bu1", "ed", "ls3", "ls5", "ng1", "te",
)
FIG7_POP_MEDIAN_MINUTES = 59.98
FIG7_POP_MEAN_MINUTES = 386.46
TCP1_SHORTEST_SECONDS = 239.0     # be1, "less than 4 min"
TCP1_CUTOFF_MINUTES = 1440.0
TCP1_OVER_24H_TAGS = ("ap", "bu1", "ed", "ls3", "ls5", "ng1", "te")
RFC5382_MINIMUM_MINUTES = 124.0

# -- Figure 8: TCP-2 throughput ----------------------------------------------------------------

FIG8_ORDER = (
    "dl10", "ls1", "ap", "te", "owrt", "smc", "dl9", "ed", "zy1", "ng4",
    "ng5", "ng3", "nw1", "ls3", "ls5", "to", "ls2", "ng2", "je", "dl2",
    "dl1", "we", "as1", "dl7", "be2", "be1", "dl5", "ng1", "dl8", "al",
    "dl3", "dl6", "bu1", "dl4",
)
TCP2_LINE_RATE_DEVICES = 13
#: The two worst devices of both Figure 8 (throughput) and Figure 9 (delay).
TCP_WORST_TAGS = ("dl10", "ls1")
TCP2_UNIDIR_MEDIAN_MBPS = 59.0
TCP2_BIDIR_MEDIAN_MBPS = 35.0
TCP2_DL10_DOWN_MBPS = 6.0
TCP2_DL10_UP_MBPS = 6.0
TCP2_LS1_DOWN_MBPS = 8.0
TCP2_LS1_UP_MBPS = 6.0
TCP2_SMC_UP_MBPS = 41.0
TCP2_SMC_DOWN_MBPS = 27.0

# -- Figure 9: TCP-3 queuing delay ------------------------------------------------------------------

FIG9_ORDER = (
    "ng1", "dl5", "dl7", "dl3", "we", "al", "be1", "be2", "dl4", "dl6",
    "as1", "bu1", "je", "dl2", "dl1", "nw1", "to", "smc", "dl9", "ls2",
    "ng2", "ls3", "ls5", "ng3", "ng5", "zy1", "ed", "owrt", "te", "dl8",
    "ap", "ng4", "dl10", "ls1",
)
TCP3_DL10_DOWNLOAD_MS = 74.0
TCP3_DL10_BIDIR_MS = 291.0
TCP3_LS1_UPLOAD_MS = 110.0
TCP3_LS1_BIDIR_MS = 400.0
TCP3_BEST_BIDIR_INCREASE_MS = 2.0

# -- Figure 10: TCP-4 binding capacity ------------------------------------------------------------------

FIG10_ORDER = (
    "dl9", "smc", "dl10", "ls1", "dl4", "ng2", "ls5", "ng3", "to", "ls3",
    "ng5", "nw1", "be1", "ls2", "be2", "te", "dl2", "dl6", "dl1", "dl8",
    "owrt", "zy1", "ng4", "ed", "je", "dl3", "dl7", "as1", "dl5", "bu1",
    "al", "we", "ng1", "ap",
)
FIG10_POP_MEDIAN = 135.50
FIG10_POP_MEAN = 259.21
TCP4_MINIMUM_BINDINGS = 16        # dl9 and smc
TCP4_MAXIMUM_BINDINGS = 1024      # "ng1 and ap allow ca. 1024"

# -- Table 2 aggregates (§4.3) ---------------------------------------------------------------------------

SCTP_PASSING_DEVICES = 18
DCCP_PASSING_DEVICES = 0
FALLBACK_UNTRANSLATED_TAGS = ("dl4", "dl9", "dl10", "ls1")
FALLBACK_IP_ONLY_DEVICES = 20
ICMP_NO_TRANSLATION_TAG = "nw1"
ICMP_TCP_AS_RST_TAG = "ls2"
ICMP_NO_EMBEDDED_REWRITE_DEVICES = 16
ICMP_BAD_EMBEDDED_IP_CHECKSUM_TAGS = ("zy1", "ls1")
DNS_TCP_ACCEPTING_DEVICES = 14
DNS_TCP_ANSWERING_DEVICES = 10
DNS_TCP_VIA_UDP_TAG = "ap"

# -- Paper anchors per experiment family ------------------------------------------------------------------
# Which figure/table of the paper each registered experiment family maps to;
# the registry's report hooks use these for section headers, so a family
# renamed or added here shows the right anchor everywhere at once.

FAMILY_FIGURES = {
    "udp_timeouts": "Figures 2-5",
    "udp1": "Figure 3",
    "udp2": "Figure 4",
    "udp3": "Figure 5",
    "udp4": "§4.1",
    "udp5": "Figure 6",
    "tcp1": "Figure 7",
    "tcp2": "Figures 8-9",
    "tcp4": "Figure 10",
    "icmp": "Table 2",
    "transports": "Table 2",
    "dns": "Table 2",
    "other": "Table 2",
}
