"""DNS and DHCP wire-format codecs."""

from ipaddress import IPv4Address

import pytest
from hypothesis import given, strategies as st

from repro.netsim.addresses import MacAddress
from repro.packets.checksum import VALID
from repro.packets.dhcp_codec import (
    BOOTREPLY,
    BOOTREQUEST,
    DHCP_ACK,
    DHCP_DISCOVER,
    DHCP_OFFER,
    DHCP_RELEASE,
    DHCP_REQUEST,
    DhcpMessage,
)
from repro.packets.dns_codec import (
    QTYPE_A,
    RCODE_NXDOMAIN,
    DnsMessage,
    DnsQuestion,
    DnsRecord,
    decode_name,
    encode_name,
    frame_tcp,
    unframe_tcp,
)
from repro.packets.ipv4 import PROTO_UDP, IPv4Packet
from repro.packets.udp import UdpDatagram

labels = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=20)
names = st.lists(labels, min_size=1, max_size=4).map(".".join)
ips = st.integers(min_value=1, max_value=0xFFFFFFFE).map(IPv4Address)
any_ips = st.integers(min_value=0, max_value=0xFFFFFFFF).map(IPv4Address)
words = st.integers(min_value=0, max_value=0xFFFFFFFF)
#: Every field drawn, each option present or absent on its own.
dhcp_messages = st.builds(
    DhcpMessage,
    op=st.sampled_from([BOOTREQUEST, BOOTREPLY]),
    xid=words,
    client_mac=st.integers(min_value=0, max_value=(1 << 48) - 1).map(MacAddress),
    ciaddr=any_ips,
    yiaddr=any_ips,
    siaddr=any_ips,
    giaddr=any_ips,
    message_type=st.none() | st.integers(min_value=DHCP_DISCOVER, max_value=DHCP_RELEASE),
    subnet_mask=st.none() | any_ips,
    router=st.none() | any_ips,
    dns_servers=st.lists(any_ips, max_size=4),
    lease_time=st.none() | words,
    server_id=st.none() | any_ips,
    requested_ip=st.none() | any_ips,
)


class TestDnsNames:
    @given(names)
    def test_name_roundtrip(self, name):
        decoded, offset = decode_name(encode_name(name), 0)
        assert decoded == name
        assert offset == len(encode_name(name))

    def test_root_name(self):
        assert encode_name(".") == b"\x00"
        assert decode_name(b"\x00", 0) == ("", 1)

    def test_compression_pointer(self):
        raw = encode_name("example.com") + b"\xc0\x00"  # pointer back to offset 0
        name, offset = decode_name(raw, len(encode_name("example.com")))
        assert name == "example.com"

    def test_pointer_loop_rejected(self):
        with pytest.raises(ValueError):
            decode_name(b"\xc0\x00", 0)

    def test_oversize_label_rejected(self):
        with pytest.raises(ValueError):
            encode_name("a" * 64 + ".com")


class TestDnsMessages:
    @given(names, ips, st.integers(min_value=0, max_value=0xFFFF))
    def test_query_response_roundtrip(self, name, address, txid):
        query = DnsMessage.query(name, txid=txid)
        response = query.response([DnsRecord.a(name, address)])
        parsed = DnsMessage.from_bytes(response.to_bytes())
        assert parsed.txid == txid
        assert parsed.is_response
        assert parsed.questions == [DnsQuestion(name, QTYPE_A)]
        assert parsed.answers[0].address == address

    def test_nxdomain(self):
        query = DnsMessage.query("nope.example")
        response = query.response([], rcode=RCODE_NXDOMAIN)
        parsed = DnsMessage.from_bytes(response.to_bytes())
        assert parsed.rcode == RCODE_NXDOMAIN and not parsed.answers

    def test_flags_roundtrip(self):
        message = DnsMessage.query("x.example")
        message.recursion_desired = False
        parsed = DnsMessage.from_bytes(message.to_bytes())
        assert parsed.recursion_desired is False
        assert parsed.is_response is False

    def test_truncated_header_rejected(self):
        with pytest.raises(ValueError):
            DnsMessage.from_bytes(b"\x00" * 5)


class TestTcpFraming:
    def test_frame_and_unframe(self):
        messages = [DnsMessage.query(f"q{i}.example", txid=i) for i in range(3)]
        stream = b"".join(frame_tcp(m) for m in messages)
        decoded, rest = unframe_tcp(stream)
        assert [m.txid for m in decoded] == [0, 1, 2]
        assert rest == b""

    def test_partial_frame_kept_as_remainder(self):
        raw = frame_tcp(DnsMessage.query("a.example"))
        decoded, rest = unframe_tcp(raw[:-3])
        assert decoded == []
        assert rest == raw[:-3]

    def test_split_across_feeds(self):
        raw = frame_tcp(DnsMessage.query("a.example", txid=9))
        first, rest = unframe_tcp(raw[:5])
        assert not first
        decoded, leftover = unframe_tcp(rest + raw[5:])
        assert decoded[0].txid == 9 and leftover == b""


class TestDhcp:
    MAC = MacAddress.parse("02:00:00:00:00:aa")

    def test_discover_roundtrip(self):
        message = DhcpMessage.discover(0xABCD1234, self.MAC)
        parsed = DhcpMessage.from_bytes(message.to_bytes())
        assert parsed.message_type == DHCP_DISCOVER
        assert parsed.xid == 0xABCD1234
        assert parsed.client_mac == self.MAC

    def test_request_carries_requested_ip_and_server_id(self):
        message = DhcpMessage.request(1, self.MAC, IPv4Address("192.168.1.100"), IPv4Address("192.168.1.1"))
        parsed = DhcpMessage.from_bytes(message.to_bytes())
        assert parsed.message_type == DHCP_REQUEST
        assert parsed.requested_ip == IPv4Address("192.168.1.100")
        assert parsed.server_id == IPv4Address("192.168.1.1")

    def test_reply_options(self):
        message = DhcpMessage.reply(
            DHCP_OFFER,
            7,
            self.MAC,
            IPv4Address("10.0.0.50"),
            IPv4Address("10.0.0.1"),
            IPv4Address("255.255.255.0"),
            IPv4Address("10.0.0.1"),
            [IPv4Address("10.0.0.1"), IPv4Address("8.8.8.8")],
            3600,
        )
        parsed = DhcpMessage.from_bytes(message.to_bytes())
        assert parsed.message_type == DHCP_OFFER
        assert parsed.yiaddr == IPv4Address("10.0.0.50")
        assert parsed.subnet_mask == IPv4Address("255.255.255.0")
        assert parsed.router == IPv4Address("10.0.0.1")
        assert parsed.dns_servers == [IPv4Address("10.0.0.1"), IPv4Address("8.8.8.8")]
        assert parsed.lease_time == 3600

    def test_ack_vs_offer_types(self):
        for message_type in (DHCP_OFFER, DHCP_ACK):
            message = DhcpMessage.reply(
                message_type, 1, self.MAC, IPv4Address("1.1.1.1"), IPv4Address("2.2.2.2"),
                IPv4Address("255.255.255.0"), None, [], 60,
            )
            assert DhcpMessage.from_bytes(message.to_bytes()).message_type == message_type

    def test_magic_cookie_enforced(self):
        raw = bytearray(DhcpMessage.discover(1, self.MAC).to_bytes())
        raw[236] ^= 0xFF
        with pytest.raises(ValueError):
            DhcpMessage.from_bytes(bytes(raw))

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_xid_roundtrip(self, xid):
        parsed = DhcpMessage.from_bytes(DhcpMessage.discover(xid, self.MAC).to_bytes())
        assert parsed.xid == xid

    @given(dhcp_messages, ips, ips)
    def test_a_typed_message_is_its_wire_encoding(self, message, src, dst):
        """The message rides in place of its bytes: same length, same decode, same datagram bytes."""
        raw = message.to_bytes()
        assert len(message) == len(raw)
        assert DhcpMessage.from_bytes(raw) == message
        carried, encoded = (
            IPv4Packet(src, dst, PROTO_UDP, UdpDatagram(68, 67, payload, checksum=VALID), header_checksum=VALID)
            for payload in (message, raw)
        )
        assert carried.wire_size() == encoded.wire_size()
        assert carried.to_bytes() == encoded.to_bytes()  # VALID: the UDP checksum is computed here
        assert carried.payload.compute_checksum(src, dst) == encoded.payload.compute_checksum(src, dst)
