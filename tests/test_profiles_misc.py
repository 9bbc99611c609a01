"""Profile schema validation, cloning, and miscellaneous coverage."""

from ipaddress import IPv4Address

import pytest

from repro.devices.profile import (
    DeviceProfile,
    DnsProxyPolicy,
    ForwardingPolicy,
    IcmpAction,
    UdpTimeoutPolicy,
    icmp_actions,
)
from tests.conftest import make_profile


class TestProfileSchema:
    def test_tag_required(self):
        with pytest.raises(ValueError, match="needs a tag"):
            DeviceProfile("", "V", "M", "1")

    def test_dns_consistency_enforced(self):
        with pytest.raises(ValueError, match="responds_tcp requires accepts_tcp"):
            make_profile(dns_proxy=DnsProxyPolicy(accepts_tcp=False, responds_tcp=True))

    def test_clone_overrides_top_level(self):
        base = make_profile("orig")
        variant = base.clone(tag="variant", fallback=base.fallback)
        assert variant.tag == "variant"
        assert variant.vendor == base.vendor
        assert base.tag == "orig"  # original untouched

    def test_icmp_actions_rejects_unknown_kinds(self):
        with pytest.raises(ValueError, match="unknown ICMP kinds"):
            icmp_actions({"port_unreach", "wat"})

    def test_icmp_actions_default_translates_everything(self):
        actions = icmp_actions()
        assert all(action is IcmpAction.TRANSLATE for action in actions.values())
        assert len(actions) == 10

    def test_timeout_for_states_and_overrides(self):
        policy = UdpTimeoutPolicy(30.0, 60.0, 90.0, per_port={53: 10.0})
        assert policy.timeout_for("outbound_only", 9999) == 30.0
        assert policy.timeout_for("after_inbound", 9999) == 60.0
        assert policy.timeout_for("bidirectional", 9999) == 90.0
        # Overrides rescale proportionally, anchored on outbound-only.
        assert policy.timeout_for("outbound_only", 53) == pytest.approx(10.0)
        assert policy.timeout_for("after_inbound", 53) == pytest.approx(20.0)

    def test_unknown_state_raises(self):
        policy = UdpTimeoutPolicy(30.0, 60.0, 90.0)
        with pytest.raises(KeyError):
            policy.timeout_for("weird", 1)


class TestHostMisc:
    def test_send_to_unroutable_returns_false(self, sim, macs):
        from repro.protocols import Host

        host = Host(sim, "h", macs)
        host.new_interface()  # unconfigured
        sock = host.udp.bind(0)
        assert sock.send_to(b"x", IPv4Address("8.8.8.8"), 53) is False

    def test_limited_broadcast_requires_iface(self, sim, macs):
        from repro.packets import IPv4Packet, PROTO_UDP, UdpDatagram
        from repro.protocols import Host

        host = Host(sim, "h", macs)
        host.new_interface()
        packet = IPv4Packet(
            IPv4Address("0.0.0.0"), IPv4Address("255.255.255.255"), PROTO_UDP, UdpDatagram(68, 67)
        )
        with pytest.raises(ValueError, match="send_ip_on_iface"):
            host.send_ip(packet)

    def test_protocol_unreachable_for_unknown_transport(self, host_pair):
        a, b = host_pair
        from repro.packets import IPv4Packet

        errors = []
        a.icmp.observers.append(lambda message, packet, iface: errors.append((message.icmp_type, message.code)))
        exotic = IPv4Packet(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"), 99, b"payload")
        exotic.fill_checksums()
        a.send_ip(exotic)
        a.sim.run()
        assert (3, 2) in errors  # protocol unreachable came back


class TestAnalysisMisc:
    def test_kendall_tau_requires_overlap(self):
        from repro.analysis import kendall_tau

        with pytest.raises(ValueError):
            kendall_tau(["a"], ["b", "c"])

    def test_summary_empty_rejected(self):
        from repro.core.results import Summary

        with pytest.raises(ValueError):
            Summary.of([])

    def test_quantile_bad_q(self):
        from repro.core.results import quantile

        with pytest.raises(ValueError):
            quantile([1, 2], 1.5)


class TestForwardingPolicyDefaults:
    def test_defaults_are_line_rate(self):
        policy = ForwardingPolicy()
        assert policy.up_rate_bps == 100e6
        assert policy.combined_rate_bps is None
        assert not policy.shared_queue
        assert policy.pps_limit is None

    def test_catalog_profiles_have_binding_rates(self):
        from repro.devices import CATALOG

        rates = {p.nat.max_binding_rate for p in CATALOG.values()}
        assert None not in rates
        assert min(rates) == 200.0 and max(rates) == 3000.0
