#!/usr/bin/env python3
"""Render the workload scaling curves as terminal bar charts.

Usage::

    python -m repro survey --tags al be1 ng1 --workload --jobs 2 --out out/wl
    python tools/plot_scaling.py out/wl                  # draw the curves
    python tools/plot_scaling.py out/wl --json           # raw curves block

Reads a campaign store written by ``repro survey --workload --out`` and
draws the two scaling families:

* ``workload_mix`` — goodput vs. active subscribers per device, with the
  flow-completion p95 and CGN occupancy alongside each bar;
* ``fwcost_scaling`` — forwarded throughput vs. firewall rule count and
  conntrack size (the netfilter performance-loss curve), one pair of
  curves per device.

``--json`` skips the drawing and emits the decoded curves block, which is
what the docs tables and external plotting are built from.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Optional

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

BAR_WIDTH = 40


def load_curves(path: pathlib.Path) -> Dict:
    """The curves block of a campaign store directory."""
    from repro.core.store import CampaignStore
    from repro.workload.families import scaling_curves

    curves = scaling_curves(CampaignStore.open(path).load_results())
    if curves is None:
        raise SystemExit(
            f"{path}: store holds no workload_mix/fwcost_scaling cells "
            f"(run `repro survey --workload --out {path}`)"
        )
    return curves


def _bar(value: float, top: float) -> str:
    filled = 0 if top <= 0 else round(BAR_WIDTH * value / top)
    return "#" * filled + "." * (BAR_WIDTH - filled)


def _ms(value: Optional[float]) -> str:
    return "-" if value is None else f"{value * 1e3:.1f}ms"


def plot_workload(curves: Dict) -> List[str]:
    lines: List[str] = []
    top = max(
        (point["goodput_bps"] for cell in curves.values() for point in cell["points"]),
        default=0.0,
    )
    for tag in sorted(curves):
        cell = curves[tag]
        lines.append(f"{tag}  ({cell['mix']} mix, {cell['window']:.0f}s windows)")
        lines.append("  subs  goodput [Mb/s]" + " " * (BAR_WIDTH - 12) + "fct p95   cgn binds")
        for point in cell["points"]:
            goodput = point["goodput_bps"]
            lines.append(
                f"  {point['subscribers']:>4}  {_bar(goodput, top)} "
                f"{goodput / 1e6:6.2f}  {_ms(point['fct_p95']):>8}  {point['cgn_bindings']:>5}"
            )
        lines.append("")
    return lines


def plot_fwcost(curves: Dict) -> List[str]:
    lines: List[str] = []
    top = max(
        (
            point["throughput_pps"]
            for cell in curves.values()
            for point in cell["rule_points"] + cell["table_points"]
        ),
        default=0.0,
    )
    for tag in sorted(curves):
        cell = curves[tag]
        lines.append(f"{tag}  ({cell['offered_pps']:.0f} pkt/s offered)")
        for label, key, points in (
            ("rules", "rules", cell["rule_points"]),
            ("entries", "entries", cell["table_points"]),
        ):
            lines.append(f"  {label:>7}  throughput [pkt/s]")
            for point in points:
                pps = point["throughput_pps"]
                lines.append(
                    f"  {point[key]:>7}  {_bar(pps, top)} {pps:7.1f}  "
                    f"rtt {_ms(point['rtt_mean'])}"
                )
        lines.append("")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "source", type=pathlib.Path,
        help="campaign store directory (repro survey --workload --out)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the curves block instead of drawing"
    )
    args = parser.parse_args(argv)

    curves = load_curves(args.source)
    if args.json:
        json.dump(curves, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0

    out: List[str] = []
    if curves.get("workload_mix"):
        out.append("== workload_mix: goodput vs. active subscribers ==")
        out.extend(plot_workload(curves["workload_mix"]))
    if curves.get("fwcost_scaling"):
        out.append("== fwcost_scaling: throughput vs. rule count / conntrack size ==")
        out.extend(plot_fwcost(curves["fwcost_scaling"]))
    if not out:
        raise SystemExit(f"{args.source}: curves block is empty")
    print("\n".join(out).rstrip())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
