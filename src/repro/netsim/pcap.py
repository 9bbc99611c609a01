"""Classic libpcap files: the wire format of every capture.

:class:`~repro.obs.sinks.PcapSink` writes one of these per link from the
trace bus's ``link.tx`` events (``--pcap``), serializing each frame to its
real wire bytes; :func:`read_pcap` parses them back.  Captures open directly
in Wireshark/tcpdump — handy for debugging gateway behaviour and for
demonstrating that the wire formats are real.
"""

from __future__ import annotations

import struct
from typing import BinaryIO

PCAP_MAGIC = 0xA1B2C3D4
PCAP_VERSION = (2, 4)
LINKTYPE_ETHERNET = 1
DEFAULT_SNAPLEN = 65535


def write_pcap_header(stream: BinaryIO, snaplen: int = DEFAULT_SNAPLEN) -> None:
    stream.write(
        struct.pack(
            "<IHHiIII",
            PCAP_MAGIC,
            PCAP_VERSION[0],
            PCAP_VERSION[1],
            0,  # thiszone
            0,  # sigfigs
            snaplen,
            LINKTYPE_ETHERNET,
        )
    )


def write_pcap_record(stream: BinaryIO, timestamp: float, frame_bytes: bytes, snaplen: int = DEFAULT_SNAPLEN) -> None:
    seconds = int(timestamp)
    micros = int(round((timestamp - seconds) * 1_000_000))
    if micros >= 1_000_000:
        seconds += 1
        micros -= 1_000_000
    captured = frame_bytes[:snaplen]
    stream.write(struct.pack("<IIII", seconds, micros, len(captured), len(frame_bytes)))
    stream.write(captured)


def read_pcap(path: str):
    """Parse a pcap back into ``[(timestamp, raw_frame_bytes), ...]``.

    Only the classic little-endian microsecond format this module writes;
    used by tests to verify round-trips and by notebooks to post-process.
    """
    records = []
    with open(path, "rb") as stream:
        header = stream.read(24)
        if len(header) < 24:
            raise ValueError("truncated pcap header")
        magic = struct.unpack("<I", header[:4])[0]
        if magic != PCAP_MAGIC:
            raise ValueError(f"unsupported pcap magic {magic:#x}")
        while True:
            record_header = stream.read(16)
            if not record_header:
                break
            if len(record_header) < 16:
                raise ValueError("truncated pcap record header")
            seconds, micros, caplen, _origlen = struct.unpack("<IIII", record_header)
            data = stream.read(caplen)
            if len(data) < caplen:
                raise ValueError("truncated pcap record body")
            records.append((seconds + micros / 1_000_000, data))
    return records
