"""Checksums used on the wire.

Two algorithms matter to the study:

* The one's-complement *Internet checksum* (RFC 1071) used by IPv4, UDP, TCP,
  ICMP and DCCP.  UDP/TCP/DCCP compute it over a pseudo-header that includes
  the IP addresses — which is exactly why rewriting an address in a NAT
  requires fixing the transport checksum.
* *CRC-32c* (Castagnoli) used by SCTP.  It does **not** cover a pseudo-header,
  which is why SCTP survives gateways that fall back to translating only the
  IP header (§4.4 of the paper).
"""

from __future__ import annotations

from ipaddress import IPv4Address


class _Valid:
    """The third checksum state, after Linux's ``CHECKSUM_UNNECESSARY``.

    An IPv4 header checksum or a TCP/UDP checksum is ``None`` (not yet
    computed), an explicit int (possibly stale, as a buggy middlebox leaves
    it), or ``VALID``: by definition equal to a full recompute over the
    packet's *current* content, so never stored as a number.  It is
    computed only where a byte is observed (``to_bytes``) or just before a
    write that must leave it stale (``materialize_checksums``).

    Using ``VALID`` as a number (``int()``, arithmetic, comparison, truth
    test) raises ``TypeError``, so a reader that forgot the state fails
    loudly; test it with ``is VALID``.  It pickles as the singleton.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "VALID"

    def __reduce__(self) -> str:
        return "VALID"

    def _no_value(self, *_args):
        raise TypeError("a VALID checksum has no stored value; compute it from the packet (is VALID tests the state)")

    __int__ = __index__ = __bool__ = __float__ = __neg__ = __invert__ = _no_value
    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _no_value
    __add__ = __radd__ = __sub__ = __rsub__ = __mod__ = __rmod__ = _no_value
    __and__ = __rand__ = __or__ = __ror__ = __xor__ = __rxor__ = __lshift__ = __rshift__ = _no_value
    __hash__ = object.__hash__


VALID = _Valid()


def internet_checksum_reference(data: bytes) -> int:
    """RFC 1071, the obvious byte-at-a-time implementation.

    Kept as the oracle for property tests of the fast version below.
    """
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    # Fold carries.
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def internet_checksum(data: bytes) -> int:
    """RFC 1071 one's-complement sum of 16-bit words.

    Fast path: read the whole buffer as one big-endian integer and reduce it
    modulo ``0xFFFF``.  Because ``2**16 ≡ 1 (mod 2**16 - 1)``, the sum of a
    number's base-2**16 digits is congruent to the number itself — the
    "casting out nines" identity, in base 65536 — so the folded
    one's-complement sum is exactly ``N mod 0xFFFF`` (with the single
    ambiguity that a non-zero multiple of 0xFFFF folds to 0xFFFF, not 0).
    Both ``int.from_bytes`` and bignum ``%`` run at C speed, which makes
    this several times faster than summing an ``array("H")`` view for the
    MSS-size TCP payloads the bulk-transfer tests push through every
    gateway.  The reference implementation above is the oracle.
    """
    total = int.from_bytes(data, "big")
    if len(data) % 2:
        total <<= 8
    total %= 0xFFFF
    if total == 0 and data and any(data):
        total = 0xFFFF
    return (~total) & 0xFFFF


def checksum_of_parts(words_sum: int, payload: bytes) -> int:
    """One's-complement checksum from pre-summed header words plus a payload.

    ``words_sum`` is the plain integer sum of the 16-bit words of the
    (even-length) pseudo-header and transport header; ``payload`` is reduced
    with the same big-int identity as :func:`internet_checksum`.  Because
    ``2**16 ≡ 1 (mod 0xFFFF)``, the concatenation's residue equals the sum of
    its parts' residues, so for any input containing a nonzero byte this is
    exactly ``internet_checksum(header_bytes + payload)`` — without ever
    materializing the header bytes.  The transports use it on their hot
    paths; the byte-building forms remain for segments with options and as
    the property-test oracle.
    """
    total = words_sum
    if payload:
        part = int.from_bytes(payload, "big")
        if len(payload) % 2:
            part <<= 8
        total += part
    total %= 0xFFFF
    if total == 0:
        total = 0xFFFF  # a nonzero multiple of 0xFFFF folds to 0xFFFF, not 0
    return (~total) & 0xFFFF


def incremental_update(checksum: int, old_bytes: bytes, new_bytes: bytes) -> int:
    """RFC 1624 incremental checksum update (eqn. 3): ``HC' = ~(~HC + ~m + m')``.

    ``old_bytes``/``new_bytes`` are the rewritten 16-bit-aligned header words
    (addresses, ports) before and after translation.  This is how real NAT
    datapaths fix checksums — O(rewritten words), not O(packet) — and it is
    exact: starting from a checksum consistent with ``old_bytes``, the result
    equals a full recomputation over the rewritten packet.

    The full recompute (:func:`internet_checksum_reference`) is kept as the
    property-test oracle for this function.
    """
    if len(old_bytes) != len(new_bytes):
        raise ValueError("old/new rewrite material must have equal length")
    if len(old_bytes) % 2:
        raise ValueError("rewrite material must be 16-bit aligned")
    return incremental_update_words(
        checksum,
        int.from_bytes(old_bytes, "big"),
        int.from_bytes(new_bytes, "big"),
        len(old_bytes) // 2,
    )


def incremental_update_words(checksum: int, old: int, new: int, nwords: int) -> int:
    """RFC 1624 update with the rewrite material as packed integers.

    ``old``/``new`` carry ``nwords`` 16-bit words each (most-significant word
    first, leading zero words included — they still contribute ``0xFFFF``
    when complemented).  Same arithmetic as :func:`incremental_update`, the
    word sum being order-independent, without materializing any bytes; the
    NAT data path calls this per rewritten packet.

    Closed form of the per-word sum: ``mask - old`` is the packed
    complement of ``old``'s words and ``2**16 ≡ 1 (mod 0xFFFF)``, so the
    one's-complement fold of ``~HC + Σ~m + Σm'`` is the fold of
    ``t = ~HC + (mask - old) + new``.  The fold of a positive ``t`` is
    ``(t - 1) % 0xFFFF + 1``, and ``t`` is zero exactly when the word sum
    is.  ``tests/test_checksums.py`` keeps the per-word loop as the oracle.
    """
    mask = (1 << (nwords << 4)) - 1
    total = ((~checksum) & 0xFFFF) + (mask - (old & mask)) + (new & mask)
    if total == 0:
        return 0xFFFF
    return ~((total - 1) % 0xFFFF + 1) & 0xFFFF


def pseudo_header(src: IPv4Address, dst: IPv4Address, protocol: int, length: int) -> bytes:
    """The IPv4 pseudo-header prepended for UDP/TCP/DCCP checksums."""
    if not 0 <= protocol <= 0xFF:
        raise ValueError(f"protocol out of range: {protocol}")
    if not 0 <= length <= 0xFFFF:
        raise ValueError(f"length out of range: {length}")
    return src.packed + dst.packed + bytes([0, protocol]) + length.to_bytes(2, "big")


def _build_crc32c_table() -> list:
    poly = 0x82F63B78  # reflected Castagnoli polynomial
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ poly if crc & 1 else crc >> 1
        table.append(crc)
    return table


_CRC32C_TABLE = _build_crc32c_table()


def crc32c(data: bytes) -> int:
    """CRC-32c (Castagnoli), as used by SCTP (RFC 4960 appendix B)."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc = _CRC32C_TABLE[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF
