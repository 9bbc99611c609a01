"""Wire-format roundtrips and checksum semantics for every packet layer."""

from ipaddress import IPv4Address

import pytest
from hypothesis import given, strategies as st

from repro.netsim.addresses import MacAddress
from repro.packets import (
    DCCP_ACK,
    DCCP_REQUEST,
    DCCP_RESPONSE,
    ICMP_DEST_UNREACH,
    ICMP_ECHO_REQUEST,
    PROTO_TCP,
    PROTO_UDP,
    SCTP_DATA,
    SCTP_INIT,
    TCP_ACK,
    TCP_SYN,
    UNREACH_FRAG_NEEDED,
    UNREACH_PORT,
    DccpPacket,
    EthernetFrame,
    IcmpMessage,
    IPv4Packet,
    RecordRouteOption,
    SctpChunk,
    SctpPacket,
    TcpSegment,
    UdpDatagram,
)
from repro.packets.tcp import TcpOption

SRC = IPv4Address("10.1.2.3")
DST = IPv4Address("192.0.2.9")

ports = st.integers(min_value=0, max_value=65535)


class TestEthernet:
    def test_roundtrip(self):
        frame = EthernetFrame(MacAddress(2), MacAddress(3), b"payload-bytes")
        parsed = EthernetFrame.from_bytes(frame.to_bytes())
        assert parsed.dst == frame.dst and parsed.src == frame.src
        assert parsed.payload.startswith(b"payload-bytes")

    def test_minimum_frame_padding(self):
        frame = EthernetFrame(MacAddress(2), MacAddress(3), b"x")
        assert frame.wire_size() == 14 + 46 + 4

    def test_wire_size_no_padding_when_large(self):
        frame = EthernetFrame(MacAddress(2), MacAddress(3), b"x" * 100)
        assert frame.wire_size() == 14 + 100 + 4


class TestUdp:
    @given(ports, ports, st.binary(max_size=256))
    def test_roundtrip(self, sport, dport, payload):
        datagram = UdpDatagram(sport, dport, payload)
        datagram.fill_checksum(SRC, DST)
        parsed = UdpDatagram.from_bytes(datagram.to_bytes())
        assert (parsed.src_port, parsed.dst_port, parsed.payload) == (sport, dport, payload)
        assert parsed.checksum_ok(SRC, DST)

    def test_checksum_covers_pseudo_header(self):
        datagram = UdpDatagram(1000, 2000, b"data")
        datagram.fill_checksum(SRC, DST)
        assert not datagram.checksum_ok(IPv4Address("10.9.9.9"), DST)

    def test_zero_checksum_transmitted_as_ffff(self):
        # Find no specific input; just assert the rule is applied.
        datagram = UdpDatagram(0, 0, b"")
        assert datagram.compute_checksum(SRC, DST) != 0

    def test_port_range_enforced(self):
        with pytest.raises(ValueError):
            UdpDatagram(70000, 1)


class TestTcp:
    @given(ports, ports, st.integers(min_value=0, max_value=2**32 - 1), st.binary(max_size=256))
    def test_roundtrip(self, sport, dport, seq, payload):
        segment = TcpSegment(sport, dport, seq=seq, ack=123, flags=TCP_ACK, payload=payload)
        segment.fill_checksum(SRC, DST)
        parsed = TcpSegment.from_bytes(segment.to_bytes())
        assert parsed.seq == seq and parsed.payload == payload
        assert parsed.checksum_ok(SRC, DST)

    def test_options_roundtrip(self):
        segment = TcpSegment(
            1, 2, flags=TCP_SYN,
            options=[TcpOption.mss(1460), TcpOption.window_scale(7), TcpOption.sack_permitted()],
        )
        parsed = TcpSegment.from_bytes(segment.to_bytes())
        kinds = [o.kind for o in parsed.options if o.kind != 1]
        assert kinds == [2, 3, 4]
        mss_opt = parsed.options[0]
        assert int.from_bytes(mss_opt.data, "big") == 1460

    def test_sack_blocks_roundtrip(self):
        segment = TcpSegment(1, 2, options=[TcpOption.sack([(100, 200), (300, 400)])])
        parsed = TcpSegment.from_bytes(segment.to_bytes())
        sack = [o for o in parsed.options if o.kind == 5][0]
        assert int.from_bytes(sack.data[0:4], "big") == 100
        assert int.from_bytes(sack.data[12:16], "big") == 400

    def test_seq_space_counts_syn_fin(self):
        from repro.packets.tcp import TCP_FIN

        assert TcpSegment(1, 2, flags=TCP_SYN).seq_space() == 1
        assert TcpSegment(1, 2, flags=TCP_FIN, payload=b"ab").seq_space() == 3

    def test_flag_string(self):
        assert TcpSegment(1, 2, flags=TCP_SYN | TCP_ACK).flag_string() == "SA"

    def test_header_size_multiple_of_four(self):
        segment = TcpSegment(1, 2, options=[TcpOption.mss(1460), TcpOption.window_scale(2)])
        assert segment.header_size() % 4 == 0


class TestIcmp:
    def _embedded(self):
        inner = UdpDatagram(5555, 53, b"query")
        inner.fill_checksum(SRC, DST)
        return IPv4Packet(SRC, DST, PROTO_UDP, inner).fill_checksums()

    def test_echo_roundtrip(self):
        message = IcmpMessage.echo_request(0x1234, 7, b"ping-data")
        message.fill_checksum()
        parsed = IcmpMessage.from_bytes(message.to_bytes())
        assert parsed.echo_ident == 0x1234 and parsed.echo_seq == 7
        assert parsed.data == b"ping-data"
        assert parsed.checksum_ok()

    def test_error_embeds_original_packet(self):
        error = IcmpMessage.error(ICMP_DEST_UNREACH, UNREACH_PORT, self._embedded())
        error.fill_checksum()
        parsed = IcmpMessage.from_bytes(error.to_bytes())
        assert parsed.is_error
        assert parsed.embedded.src == SRC
        assert parsed.embedded.payload.src_port == 5555

    def test_frag_needed_carries_mtu(self):
        error = IcmpMessage.error(ICMP_DEST_UNREACH, UNREACH_FRAG_NEEDED, self._embedded(), mtu=576)
        parsed = IcmpMessage.from_bytes(error.to_bytes())
        assert parsed.mtu == 576

    def test_embedded_truncated_to_eight_transport_bytes(self):
        embedded = self._embedded()
        error = IcmpMessage.error(ICMP_DEST_UNREACH, UNREACH_PORT, embedded)
        assert error.wire_size() == 8 + embedded.header_size() + 8

    def test_error_type_enforced(self):
        with pytest.raises(ValueError):
            IcmpMessage.error(ICMP_ECHO_REQUEST, 0, self._embedded())


class TestIPv4:
    def test_roundtrip_with_udp(self):
        datagram = UdpDatagram(1111, 2222, b"hello")
        packet = IPv4Packet(SRC, DST, PROTO_UDP, datagram, ttl=33).fill_checksums()
        parsed = IPv4Packet.from_bytes(packet.to_bytes())
        assert parsed.ttl == 33
        assert parsed.header_checksum_ok()
        assert isinstance(parsed.payload, UdpDatagram)
        assert parsed.payload.payload == b"hello"
        assert parsed.payload.checksum_ok(SRC, DST)

    def test_roundtrip_with_tcp(self):
        segment = TcpSegment(80, 443, seq=9, flags=TCP_SYN)
        packet = IPv4Packet(SRC, DST, PROTO_TCP, segment).fill_checksums()
        parsed = IPv4Packet.from_bytes(packet.to_bytes())
        assert isinstance(parsed.payload, TcpSegment) and parsed.payload.syn

    def test_stale_checksum_detected_after_rewrite(self):
        packet = IPv4Packet(SRC, DST, PROTO_UDP, UdpDatagram(1, 2, b"")).fill_checksums()
        packet.src = IPv4Address("10.0.0.99")  # naughty NAT forgets the checksum
        assert not packet.header_checksum_ok()

    def test_record_route_roundtrip(self):
        option = RecordRouteOption(slots=3)
        option.record(IPv4Address("10.0.0.1"))
        packet = IPv4Packet(SRC, DST, PROTO_UDP, UdpDatagram(1, 2, b"x"), record_route=option)
        packet.fill_checksums()
        parsed = IPv4Packet.from_bytes(packet.to_bytes())
        assert parsed.record_route is not None
        assert parsed.record_route.addresses == [IPv4Address("10.0.0.1")]
        assert parsed.header_checksum_ok()

    def test_clone_copies_the_record_route_option(self):
        """A router that records into its forwarding copy must not reach back
        into the sender's packet, whose header checksum covers the option."""
        from repro.packets.clone import clone_packet

        packet = IPv4Packet(SRC, DST, PROTO_UDP, UdpDatagram(1, 2, b"x"), record_route=RecordRouteOption(slots=3))
        packet.fill_checksums()
        clone_packet(packet).record_route.record(IPv4Address("10.0.0.1"))
        assert packet.record_route.addresses == []
        assert packet.header_checksum_ok()

    def test_record_route_slots_exhaust(self):
        option = RecordRouteOption(slots=2)
        assert option.record(IPv4Address("1.1.1.1"))
        assert option.record(IPv4Address("2.2.2.2"))
        assert not option.record(IPv4Address("3.3.3.3"))

    def test_dont_fragment_flag(self):
        packet = IPv4Packet(SRC, DST, PROTO_UDP, UdpDatagram(1, 2), dont_fragment=False)
        parsed = IPv4Packet.from_bytes(packet.fill_checksums().to_bytes())
        assert parsed.dont_fragment is False


class TestSctp:
    def test_roundtrip(self):
        packet = SctpPacket(100, 200, 0xDEADBEEF, [SctpChunk(SCTP_INIT, b"params"), SctpChunk(SCTP_DATA, b"data!", flags=3)])
        packet.fill_checksum()
        parsed = SctpPacket.from_bytes(packet.to_bytes())
        assert parsed.verification_tag == 0xDEADBEEF
        assert [c.chunk_type for c in parsed.chunks] == [SCTP_INIT, SCTP_DATA]
        assert parsed.chunks[1].value == b"data!"
        assert parsed.checksum_ok()

    def test_chunk_padding(self):
        chunk = SctpChunk(SCTP_DATA, b"abc")  # 4+3 -> padded to 8
        assert chunk.wire_size() == 8
        assert len(chunk.to_bytes()) == 8

    def test_checksum_ignores_ip_addresses(self):
        """The property §4.4 turns on: SCTP's CRC does not change when the
        IP addresses do."""
        packet = SctpPacket(1, 2, 5, [SctpChunk(SCTP_DATA, b"x")])
        assert packet.compute_checksum(SRC, DST) == packet.compute_checksum(
            IPv4Address("1.1.1.1"), IPv4Address("2.2.2.2")
        )


class TestDccp:
    def test_request_roundtrip(self):
        packet = DccpPacket(300, 400, DCCP_REQUEST, seq=77, service_code=42)
        packet.fill_checksum(SRC, DST)
        parsed = DccpPacket.from_bytes(packet.to_bytes())
        assert parsed.packet_type == DCCP_REQUEST
        assert parsed.seq == 77 and parsed.service_code == 42
        assert parsed.checksum_ok(SRC, DST)

    def test_response_requires_ack(self):
        with pytest.raises(ValueError):
            DccpPacket(1, 2, DCCP_RESPONSE, seq=1)

    def test_ack_roundtrip(self):
        packet = DccpPacket(1, 2, DCCP_ACK, seq=5, ack=99)
        packet.fill_checksum(SRC, DST)
        parsed = DccpPacket.from_bytes(packet.to_bytes())
        assert parsed.ack == 99 and parsed.seq == 5
        assert parsed.checksum_ok(SRC, DST)

    def test_checksum_covers_pseudo_header(self):
        """The anti-SCTP property: rewrite an address and the checksum dies."""
        packet = DccpPacket(1, 2, DCCP_REQUEST, seq=1)
        packet.fill_checksum(SRC, DST)
        assert packet.checksum_ok(SRC, DST)
        assert not packet.checksum_ok(IPv4Address("9.9.9.9"), DST)
