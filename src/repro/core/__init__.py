"""The measurement suite — the paper's primary contribution.

One probe class per experiment family:

* :class:`UdpTimeoutProbe` / :class:`UdpServiceProbe` — UDP-1…UDP-5
* :func:`analyze_port_behavior` — UDP-4
* :class:`TcpTimeoutProbe` — TCP-1
* :class:`ThroughputProbe` — TCP-2 and TCP-3
* :class:`TcpBindingCapacityProbe` — TCP-4
* :class:`IcmpTranslationTest` — the ICMP columns of Table 2
* :class:`TransportSupportTest` — SCTP/DCCP
* :class:`DnsProxyTest` — DNS over UDP/TCP
* :class:`SurveyRunner` — everything, across the whole population
"""

from repro.core.binary_search import BindingSearch, ParallelBindingSearch, SearchOutcome
from repro.core.binding_rate import BindingRateProbe, BindingRateResult, RateStep
from repro.core.options_tests import OptionsResult, OptionsTest
from repro.core.pmtu import PmtuBlackholeTest, PmtuResult, attach_far_host
from repro.core.dns_tests import DnsProxyResult, DnsProxyTest
from repro.core.icmp_tests import IcmpObservation, IcmpTestResult, IcmpTranslationTest
from repro.core.results import DeviceSeries, Summary, median, population_stats, quantile
from repro.core.runtime import Future, SimTask, run_tasks
from repro.core.tcp_binding import (
    TcpBindingCapacityProbe,
    TcpBindingCapacityResult,
    TcpTimeoutProbe,
    TcpTimeoutResult,
)
from repro.core.throughput import ThroughputProbe, ThroughputResult, TransferOutcome
from repro.core.transport_support import TransportSupportResult, TransportSupportTest
from repro.core.udp_timeouts import (
    PortBehavior,
    UdpServiceProbe,
    UdpTimeoutProbe,
    UdpTimeoutResult,
    analyze_port_behavior,
)
from repro.core.parallel import ShardError, ShardFailure, run_shards, shard_seed
from repro.core import registry
from repro.core.registry import ExperimentFamily, ReportSection
from repro.core.stats import SimStats
from repro.core.store import (
    SCHEMA_VERSION,
    CampaignStore,
    IncompatibleStoreError,
    StoreError,
    campaign_fingerprint,
)
from repro.core.survey import SurveyResults, SurveyRunner

__all__ = [
    "BindingSearch",
    "BindingRateProbe",
    "BindingRateResult",
    "RateStep",
    "OptionsResult",
    "OptionsTest",
    "PmtuBlackholeTest",
    "PmtuResult",
    "attach_far_host",
    "ParallelBindingSearch",
    "SearchOutcome",
    "DnsProxyResult",
    "DnsProxyTest",
    "IcmpObservation",
    "IcmpTestResult",
    "IcmpTranslationTest",
    "DeviceSeries",
    "Summary",
    "median",
    "population_stats",
    "quantile",
    "Future",
    "SimTask",
    "run_tasks",
    "TcpBindingCapacityProbe",
    "TcpBindingCapacityResult",
    "TcpTimeoutProbe",
    "TcpTimeoutResult",
    "ThroughputProbe",
    "ThroughputResult",
    "TransferOutcome",
    "TransportSupportResult",
    "TransportSupportTest",
    "PortBehavior",
    "UdpServiceProbe",
    "UdpTimeoutProbe",
    "UdpTimeoutResult",
    "analyze_port_behavior",
    "SurveyResults",
    "SurveyRunner",
    "registry",
    "ExperimentFamily",
    "ReportSection",
    "SCHEMA_VERSION",
    "CampaignStore",
    "StoreError",
    "IncompatibleStoreError",
    "campaign_fingerprint",
    "ShardError",
    "ShardFailure",
    "SimStats",
    "run_shards",
    "shard_seed",
]
