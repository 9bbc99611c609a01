"""Checksum algorithms against references and RFC test vectors, the VALID
checksum state against explicit arithmetic, and the checksums on the wire."""

from ipaddress import IPv4Address

import pytest
from hypothesis import given, strategies as st

from repro.core import SurveyRunner
from repro.devices import catalog_profiles
from repro.devices.profile import IcmpPolicy
from repro.gateway.icmp_translation import IcmpTranslationEngine
from repro.gateway.nat import NatEngine
from repro.gateway.translation import (
    clone_packet,
    refresh_ip_checksum,
    rewrite_destination,
    rewrite_ip_only,
    rewrite_source,
    strip_tcp_options,
)
from repro.netsim.pcap import read_pcap
from repro.netsim.sim import Simulation
from repro.packets.checksum import (
    VALID,
    crc32c,
    incremental_update,
    incremental_update_words,
    internet_checksum,
    internet_checksum_reference,
    pseudo_header,
)
from repro.packets.icmp import ICMP_DEST_UNREACH, UNREACH_HOST, UNREACH_PORT, IcmpMessage
from repro.packets.ipv4 import PROTO_DCCP, PROTO_ICMP, PROTO_SCTP, PROTO_TCP, PROTO_UDP, IPv4Packet
from repro.packets.tcp import TCP_ACK, TCP_PSH, TCP_SYN, TcpOption, TcpSegment
from repro.packets.udp import UdpDatagram
from tests.conftest import make_profile


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


# ---------------------------------------------------------------------------
# The VALID checksum state against explicit arithmetic.  A packet whose
# checksums are VALID must serialize byte for byte like its explicit twin
# (``fill_checksums()``, then RFC 1624 updates and full recomputes) through
# every rewrite the data path applies, and stay VALID without arithmetic.
# ---------------------------------------------------------------------------

OPTION_MAKERS = [
    lambda: TcpOption.mss(1460),
    lambda: TcpOption.window_scale(7),
    TcpOption.sack_permitted,
    lambda: TcpOption.timestamp(12345, 678),
]


@st.composite
def transport_packets(draw):
    """A TCP segment (with or without options) or a UDP datagram, in IPv4, no checksums yet."""
    payload = draw(st.binary(max_size=96))
    if draw(st.booleans()):
        options = [make() for make in draw(st.lists(st.sampled_from(OPTION_MAKERS), max_size=3))]
        transport = TcpSegment(
            draw(ports), draw(ports),
            seq=draw(st.integers(min_value=0, max_value=2**32 - 1)),
            ack=draw(st.integers(min_value=0, max_value=2**32 - 1)),
            flags=draw(st.sampled_from([TCP_SYN, TCP_SYN | TCP_ACK, TCP_ACK, TCP_ACK | TCP_PSH])),
            window=draw(ports), payload=payload, options=options,
        )
        protocol = PROTO_TCP
    else:
        transport = UdpDatagram(draw(ports), draw(ports), payload)
        protocol = PROTO_UDP
    return IPv4Packet(
        draw(ip_addresses), draw(ip_addresses), protocol, transport,
        ttl=draw(st.integers(min_value=1, max_value=255)),
        identification=draw(ports), tos=draw(st.integers(min_value=0, max_value=255)),
    )


def checksum_twins(packet):
    """``(explicit, valid)`` copies of a packet: one filled eagerly, one VALID."""
    explicit = clone_packet(packet)
    explicit.fill_checksums()
    valid = clone_packet(packet)
    if isinstance(valid.payload, (TcpSegment, UdpDatagram)):  # ICMP checksums stay explicit
        valid.payload.checksum = VALID
    valid.header_checksum = VALID
    return explicit, valid


def _ttl_decrement(packet, _ip, _port):
    if packet.ttl > 1:
        packet.ttl -= 1
    refresh_ip_checksum(packet)
    return packet


def _strip_options(packet, _ip, _port):
    if isinstance(packet.payload, TcpSegment):
        strip_tcp_options(packet)
        refresh_ip_checksum(packet)
    return packet


def _rewrite(rewrite):
    def step(packet, ip, port):
        rewrite(packet, ip, port)
        return packet
    return step


STEPS = {
    "clone": lambda packet, _ip, _port: clone_packet(packet),
    "snat": _rewrite(rewrite_source),
    "dnat": _rewrite(rewrite_destination),
    "ttl": _ttl_decrement,
    "strip": _strip_options,
}


@given(
    packet=transport_packets(),
    chain=st.lists(st.tuples(st.sampled_from(sorted(STEPS)), ip_addresses, st.none() | ports), max_size=8),
)
def test_valid_serializes_like_explicit_arithmetic_through_every_rewrite(packet, chain):
    explicit, valid = checksum_twins(packet)
    for name, ip, port in [("start", None, None)] + chain:
        if name != "start":
            explicit = STEPS[name](explicit, ip, port)
            valid = STEPS[name](valid, ip, port)
        assert explicit.to_bytes() == valid.to_bytes(), name
        # Explicit values stay numbers, and correct; VALID is kept without arithmetic.
        assert isinstance(explicit.header_checksum, int) and isinstance(explicit.payload.checksum, int)
        assert explicit.header_checksum_ok() and explicit.payload.checksum_ok(explicit.src, explicit.dst)
        assert valid.header_checksum is VALID and valid.payload.checksum is VALID


@given(packet=transport_packets())
def test_materialize_computes_the_explicit_values(packet):
    explicit, valid = checksum_twins(packet)
    valid.materialize_checksums()
    assert valid.header_checksum == explicit.header_checksum
    assert valid.payload.checksum == explicit.payload.checksum


def test_valid_raises_wherever_it_is_used_as_a_number():
    for use in (int, bool, hex, lambda v: v + 1, lambda v: v == 0, lambda v: v in (None, 0), lambda v: f"{v:04x}"):
        with pytest.raises(TypeError):
            use(VALID)
    with pytest.raises(ValueError):
        UdpDatagram(1, 2, b"x", checksum=VALID).to_bytes()  # the pseudo-header's addresses are needed


def test_valid_pickles_as_the_singleton():
    """Code tests the state with ``is VALID``, so a copy must come back as the singleton."""
    import pickle

    assert pickle.loads(pickle.dumps(VALID)) is VALID


def test_ip_only_rewrite_leaves_a_valid_transport_checksum_stale():
    """§4.4: the IP-only fallback fixes the IP header only, so a checksum over
    the pseudo-header goes stale; VALID must go stale exactly as the explicit value."""
    packet = IPv4Packet(IPv4Address("192.168.1.2"), IPv4Address("10.0.1.1"), PROTO_UDP, UdpDatagram(5000, 7000, b"hi"))
    explicit, valid = checksum_twins(packet)
    for twin in (explicit, valid):
        rewrite_ip_only(twin, src=IPv4Address("10.0.1.254"))
    assert explicit.to_bytes() == valid.to_bytes()
    assert valid.header_checksum_ok()
    assert not valid.payload.checksum_ok(valid.src, valid.dst)


CLIENT = IPv4Address("192.168.1.100")
WAN = IPv4Address("10.0.1.2")
SERVER = IPv4Address("10.0.1.1")


@pytest.mark.parametrize("fixes_ip", [True, False])
@pytest.mark.parametrize("rewrites_transport", [True, False])
@pytest.mark.parametrize("proto", [PROTO_UDP, PROTO_TCP, PROTO_ICMP])
def test_icmp_translator_embeds_the_same_bytes_from_valid_and_explicit(fixes_ip, rewrites_transport, proto):
    """Table 2's embedded rewrite: equal bytes, and stale exactly where the policy leaves it stale."""
    policy = IcmpPolicy(fixes_embedded_ip_checksum=fixes_ip, rewrites_embedded_transport=rewrites_transport)
    profile = make_profile(icmp=policy)
    nat = NatEngine(Simulation(seed=7), profile)
    engine = IcmpTranslationEngine(profile.icmp, nat)
    if proto == PROTO_ICMP:
        ident = nat.echo_outbound(CLIENT, 0x4242)
        transport = IcmpMessage.echo_request(ident, 1, b"ping")
        transport.fill_checksum()
    else:
        name = "udp" if proto == PROTO_UDP else "tcp"
        binding = nat.lookup_or_create(name, CLIENT, 5000, (SERVER, 7777))
        if proto == PROTO_UDP:
            transport = UdpDatagram(binding.ext_port, 7777, b"x")
        else:
            transport = TcpSegment(binding.ext_port, 7777, seq=1, flags=TCP_ACK, payload=b"probe")
    offending = IPv4Packet(WAN, SERVER, proto, transport, identification=77)
    translated = []
    for twin in checksum_twins(offending):
        error = IPv4Packet(SERVER, WAN, PROTO_ICMP, IcmpMessage.error(
            ICMP_DEST_UNREACH, UNREACH_HOST if proto == PROTO_ICMP else UNREACH_PORT, twin))
        error.fill_checksums()
        action, result = engine.translate_inbound_error(error)
        assert action == "forward"
        translated.append(result)
    explicit, valid = translated
    assert explicit.to_bytes() == valid.to_bytes()
    inner = valid.payload.embedded
    assert inner.src == CLIENT
    assert inner.header_checksum_ok() is fixes_ip
    if proto != PROTO_ICMP:
        assert inner.payload.checksum_ok(inner.src, inner.dst) is rewrites_transport


def test_every_captured_ipv4_header_verifies(tmp_path):
    """Every outer IPv4 header on every link verifies, including those of
    senders that fill their checksums before the stack assigns the IP
    identification (forged probes, RSTs, ICMP errors, SCTP, DCCP)."""
    runner = SurveyRunner(catalog_profiles(["al", "ls1"]), seed=42, tcp1_cutoff=600.0, pcap_dir=str(tmp_path))
    assert runner.run(["tcp1", "icmp", "transports"]).complete
    protocols = set()
    for path in sorted(tmp_path.iterdir()):
        for _ts, frame in read_pcap(str(path)):
            assert frame[12:14] == b"\x08\x00"  # every frame carries IPv4
            header = frame[14:14 + (frame[14] & 0x0F) * 4]
            assert internet_checksum(header) == 0, (path.name, header)
            protocols.add(header[9])
    assert {PROTO_TCP, PROTO_UDP, PROTO_ICMP, PROTO_SCTP, PROTO_DCCP} <= protocols
