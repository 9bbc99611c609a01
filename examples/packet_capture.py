#!/usr/bin/env python3
"""Capture a gateway's traffic to real pcap files.

Attaches a trace bus with a pcap sink to the testbed (DHCP has already
run), exercises the gateway with UDP, TCP and an SCTP attempt, and writes
one Wireshark-compatible capture per testbed link into a directory —
``bu1.wan.pcap`` holds the gateway's WAN side, where every packet appears
translated.  This is the same capture path ``repro survey --pcap`` uses,
and it demonstrates that the simulator's wire formats are the real thing.

Run:  python examples/packet_capture.py [output-directory]
"""

import pathlib
import sys
from collections import Counter

from repro.devices import profile_for
from repro.netsim.pcap import read_pcap
from repro.obs import PcapSink, TraceBus
from repro.packets import EthernetFrame, IPv4Packet
from repro.testbed import Testbed


def main() -> None:
    output = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "capture")
    bed = Testbed.build([profile_for("bu1")])
    port = bed.port("bu1")
    bus = TraceBus.attach(bed.sim)
    capture = bus.subscribe(PcapSink(output))

    # Generate a little of everything through the NAT.
    sink = bed.server.udp.bind(7000)
    sink.on_receive = lambda data, ip, p: sink.send_to(b"pong", ip, p)
    udp = bed.client.udp.bind(0, port.client_iface_index)
    udp.send_to(b"ping", port.server_ip, 7000)

    received = bytearray()
    bed.server.tcp.listen(8080, lambda conn: setattr(conn, "on_data", received.extend))
    tcp = bed.client.tcp.connect(port.server_ip, 8080, iface_index=port.client_iface_index)
    tcp.on_established = lambda c: (c.send(b"hello over tcp"), c.close())

    bed.server.sctp.listen(9000, lambda assoc: None)
    bed.client.sctp.connect(port.server_ip, 9000, iface_index=port.client_iface_index)

    bed.sim.run(until=bed.sim.now + 10)
    bus.detach()
    capture.close()

    wan = output / "bu1.wan.pcap"
    records = read_pcap(str(wan))
    protocols = Counter(
        EthernetFrame.from_bytes(raw, payload_parser=IPv4Packet.from_bytes).payload.protocol
        for _timestamp, raw in records
    )
    print(f"wrote {capture.records_written} frames to {output}/ ({len(records)} on the WAN: {wan})")
    print("WAN protocol mix:", {
        {1: "icmp", 6: "tcp", 17: "udp", 132: "sctp"}.get(proto, proto): n
        for proto, n in sorted(protocols.items())
    })
    print("open it with:  wireshark", wan)


if __name__ == "__main__":
    main()
