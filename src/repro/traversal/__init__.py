"""NAT traversal: STUN-style probing, hole punching and relaying.

§5 of the paper lists "measuring the success rates of STUN, TURN and ICE"
as planned work; this package implements that plan on top of the library:

* :mod:`repro.traversal.stun` — a compact STUN-like binding protocol
  (request → mapped-address response, plus the change-port probe the
  RFC 3489 classification needs), the classification algorithm, and the
  opt-in ``stun_classify`` family.
* :mod:`repro.traversal.relay` — a TURN-style UDP relay, the fallback
  path when punching fails.
* :mod:`repro.traversal.matrix` — the ``traversal_matrix`` family: for
  every ordered device pair, on its own two-gateway testbed, classify both
  sides, run the rendezvous and a Ford/Srisuresh/Kegel-style simultaneous
  UDP punch, fall back to the relay (ICE-style, direct before relayed) and
  climb a keepalive ladder.  Every UDP traversal outcome comes from this
  one campaign family.
* :mod:`repro.traversal.tcp_punch` — STUNT-style TCP hole punching via
  RFC 793 simultaneous open.
"""

from repro.traversal.stun import (
    MappedAddress,
    StunClassification,
    StunClient,
    StunServer,
    classify,
)
from repro.traversal.relay import RelayServer
from repro.traversal.tcp_punch import TcpHolePunchExperiment, TcpPunchOutcome

__all__ = [
    "RelayServer",
    "TcpHolePunchExperiment",
    "TcpPunchOutcome",
    "MappedAddress",
    "StunClassification",
    "StunClient",
    "StunServer",
    "classify",
]
