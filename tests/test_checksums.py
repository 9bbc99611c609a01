"""Checksum algorithms against references and RFC test vectors."""

from ipaddress import IPv4Address

import pytest
from hypothesis import given, strategies as st

from repro.packets.checksum import (
    crc32c,
    incremental_update,
    incremental_update_words,
    internet_checksum,
    internet_checksum_reference,
    pseudo_header,
)


@given(st.binary(max_size=4096))
def test_fast_checksum_matches_reference(data):
    assert internet_checksum(data) == internet_checksum_reference(data)


def test_known_rfc1071_example():
    # The classic example from RFC 1071 §3.
    data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
    assert internet_checksum(data) == (~0xDDF2) & 0xFFFF


def test_checksum_of_empty():
    assert internet_checksum(b"") == 0xFFFF


def test_checksum_detects_single_bit_flip():
    data = bytes(range(100))
    original = internet_checksum(data)
    corrupted = bytearray(data)
    corrupted[10] ^= 0x01
    assert internet_checksum(bytes(corrupted)) != original


@given(st.binary(min_size=2, max_size=512).filter(lambda d: len(d) % 2 == 0))
def test_message_with_inserted_checksum_sums_to_zero(data):
    """Verifier property: appending the checksum to (16-bit aligned) data
    makes the whole message sum to zero — how receivers verify."""
    checksum = internet_checksum(data)
    total = internet_checksum(data + checksum.to_bytes(2, "big"))
    assert total == 0


def test_pseudo_header_layout():
    ph = pseudo_header(IPv4Address("1.2.3.4"), IPv4Address("5.6.7.8"), 17, 20)
    assert ph == bytes([1, 2, 3, 4, 5, 6, 7, 8, 0, 17, 0, 20])


def test_pseudo_header_validates_ranges():
    src, dst = IPv4Address("1.1.1.1"), IPv4Address("2.2.2.2")
    with pytest.raises(ValueError):
        pseudo_header(src, dst, 256, 0)
    with pytest.raises(ValueError):
        pseudo_header(src, dst, 6, 70000)


# ---------------------------------------------------------------------------
# RFC 1624 incremental update — the NAT datapath's checksum fix — against the
# full-recompute oracle.
# ---------------------------------------------------------------------------

ip_addresses = st.integers(min_value=0, max_value=2**32 - 1).map(IPv4Address)
ports = st.integers(min_value=0, max_value=0xFFFF)


@given(
    payload=st.binary(max_size=512),
    src=ip_addresses, dst=ip_addresses,
    src_port=ports, dst_port=ports,
    new_src=ip_addresses, new_src_port=ports,
)
def test_incremental_update_equals_full_recompute_udp(payload, src, dst, src_port, dst_port, new_src, new_src_port):
    """SNAT address+port rewrite on UDP: incremental ≡ full recompute."""
    from repro.packets.udp import UdpDatagram

    datagram = UdpDatagram(src_port, dst_port, payload)
    datagram.fill_checksum(src, dst)
    updated = incremental_update(
        datagram.checksum,
        src.packed + src_port.to_bytes(2, "big"),
        new_src.packed + new_src_port.to_bytes(2, "big"),
    )
    datagram.src_port = new_src_port
    # RFC 768 zero-maps-to-0xFFFF on the recompute side as well.
    assert (updated or 0xFFFF) == datagram.compute_checksum(new_src, dst)


@given(
    payload=st.binary(max_size=512),
    src=ip_addresses, dst=ip_addresses,
    src_port=ports, dst_port=ports,
    new_dst=ip_addresses, new_dst_port=ports,
    seq=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_incremental_update_equals_full_recompute_tcp(payload, src, dst, src_port, dst_port, new_dst, new_dst_port, seq):
    """DNAT address+port rewrite on TCP: incremental ≡ full recompute."""
    from repro.packets.tcp import TCP_ACK, TcpSegment

    segment = TcpSegment(src_port, dst_port, seq=seq, flags=TCP_ACK, payload=payload)
    segment.fill_checksum(src, dst)
    updated = incremental_update(
        segment.checksum,
        dst.packed + dst_port.to_bytes(2, "big"),
        new_dst.packed + new_dst_port.to_bytes(2, "big"),
    )
    segment.dst_port = new_dst_port
    assert updated == segment.compute_checksum(src, new_dst)


@given(data=st.binary(min_size=2, max_size=64).filter(lambda d: len(d) % 2 == 0),
       old=st.binary(min_size=4, max_size=4), new=st.binary(min_size=4, max_size=4))
def test_incremental_update_matches_reference_oracle(data, old, new):
    """The pure-words property against the byte-at-a-time reference: for a
    message containing ``old``, updating the checksum incrementally equals
    recomputing over the message with ``old`` replaced by ``new``.

    Equality is up to one's-complement ±0: on an all-zero message the
    recompute yields 0xFFFF while the update yields 0x0000 — the two
    representations of zero (RFC 1624 §3).  Real TCP/UDP checksums cover a
    pseudo-header whose protocol and length words are nonzero, so the
    degenerate case never reaches the datapath (the packet-level tests
    below assert strict equality)."""
    checksum = internet_checksum_reference(old + data)
    updated = incremental_update(checksum, old, new)
    reference = internet_checksum_reference(new + data)
    assert (updated - reference) % 0xFFFF == 0


def test_incremental_update_rejects_misaligned_material():
    with pytest.raises(ValueError):
        incremental_update(0, b"\x01", b"\x02")
    with pytest.raises(ValueError):
        incremental_update(0, b"\x01\x02", b"\x03")


def incremental_update_words_loop(checksum: int, old: int, new: int, nwords: int) -> int:
    """RFC 1624 eqn. 3 one word at a time, then an end-around-carry fold:
    the oracle for the closed form in :func:`incremental_update_words`."""
    total = (~checksum) & 0xFFFF
    for _ in range(nwords):
        total += ((~old) & 0xFFFF) + (new & 0xFFFF)
        old >>= 16
        new >>= 16
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


# Wider than four words: bits above ``nwords`` words must be ignored.
packed_words = st.one_of(
    st.integers(min_value=0, max_value=2**80 - 1),
    st.sampled_from([0, 0xFFFF, 0xFFFF_FFFF, 2**64 - 1, 2**80 - 1, 0x1_0000, 0xFFFF_0000]),
)


@given(
    checksum=st.integers(min_value=0, max_value=0xFFFF),
    old=packed_words,
    new=packed_words,
    nwords=st.integers(min_value=1, max_value=4),
)
def test_incremental_update_words_matches_per_word_loop(checksum, old, new, nwords):
    assert incremental_update_words(checksum, old, new, nwords) == incremental_update_words_loop(
        checksum, old, new, nwords
    )


@pytest.mark.parametrize("nwords", [1, 2, 3, 4])
@pytest.mark.parametrize("excess", [0, 0xABCD])
def test_incremental_update_words_zero_sum_corner(nwords, excess):
    """Checksum 0xFFFF, every old word 0xFFFF and every new word 0: the word
    sum is exactly zero, the one case the ``(t - 1) % 0xFFFF + 1`` fold
    cannot cover, and it must still give the loop's 0xFFFF."""
    mask = (1 << 16 * nwords) - 1
    old = (excess << 16 * nwords) | mask
    new = excess << 16 * nwords
    assert incremental_update_words_loop(0xFFFF, old, new, nwords) == 0xFFFF
    assert incremental_update_words(0xFFFF, old, new, nwords) == 0xFFFF


def test_udp_zero_checksum_not_updated_by_nat():
    """RFC 3022 §4.1: a zero UDP checksum means "none" and the NAT must
    forward it untouched, not update it."""
    from ipaddress import IPv4Address as A

    from repro.gateway.translation import rewrite_source
    from repro.packets.ipv4 import PROTO_UDP, IPv4Packet
    from repro.packets.udp import UdpDatagram

    datagram = UdpDatagram(5000, 7000, b"hello", checksum=0)
    packet = IPv4Packet(A("192.168.1.2"), A("10.0.1.1"), PROTO_UDP, datagram)
    packet.header_checksum = packet.compute_header_checksum()
    rewrite_source(packet, A("10.0.1.254"), 30000)
    assert packet.payload.checksum == 0
    assert packet.src == A("10.0.1.254")
    assert packet.payload.src_port == 30000
    assert packet.header_checksum_ok()


def test_nat_rewrite_preserves_checksum_validity_end_to_end():
    """After an incremental SNAT rewrite the packet verifies like a fresh one."""
    from ipaddress import IPv4Address as A

    from repro.gateway.translation import rewrite_destination, rewrite_source
    from repro.packets.ipv4 import PROTO_TCP, IPv4Packet
    from repro.packets.tcp import TCP_ACK, TcpSegment

    segment = TcpSegment(40000, 80, seq=1234, ack=99, flags=TCP_ACK, payload=b"x" * 100)
    packet = IPv4Packet(A("192.168.1.2"), A("10.0.1.1"), PROTO_TCP, segment)
    packet.fill_checksums()
    rewrite_source(packet, A("10.0.1.254"), 61000)
    assert packet.header_checksum_ok()
    assert packet.payload.checksum_ok(packet.src, packet.dst)
    rewrite_destination(packet, A("192.168.77.3"), 8080)
    assert packet.header_checksum_ok()
    assert packet.payload.checksum_ok(packet.src, packet.dst)


def test_crc32c_known_vectors():
    # RFC 3720 / common CRC-32c test vectors.
    assert crc32c(b"") == 0x00000000
    assert crc32c(b"123456789") == 0xE3069283
    assert crc32c(bytes(32)) == 0x8A9136AA
    assert crc32c(bytes([0xFF] * 32)) == 0x62A8AB43


@given(st.binary(max_size=1024))
def test_crc32c_detects_flips(data):
    if not data:
        return
    original = crc32c(data)
    corrupted = bytearray(data)
    corrupted[0] ^= 0xFF
    assert crc32c(bytes(corrupted)) != original
