#!/usr/bin/env python3
"""Distributing a large file: timed pipelining over the implicit tree.

Scenario: push a 25 MB (200,000 kbit) software update from one seed
host to a 2,000-member swarm.  The packet-level simulation times every
member's download over the CAM-Chord implicit tree, showing

* the session converging to the analytic bottleneck (Section 6.1's
  model, which Figure 6 relies on),
* per-member start-up delay (how long until the first byte) growing
  with tree depth while the *rate* does not — the point of per-packet
  pipelining (Section 4.3),
* the p knob trading distribution time against stream start-up.

Run:  python examples/file_distribution.py
"""

from random import Random

from repro import MulticastGroup, SystemKind
from repro.metrics.throughput import sustainable_throughput
from repro.sim.transfer import simulate_tree_transfer

SWARM = 2_000
FILE_KBITS = 200_000.0  # 25 MB


def main() -> None:
    rng = Random(11)
    bandwidths = [rng.uniform(400, 1000) for _ in range(SWARM)]

    print(f"{'p kbps':>7s} {'analytic kbps':>14s} {'measured kbps':>14s} "
          f"{'session s':>10s} {'max startup s':>14s}")
    for per_link in (40.0, 80.0, 120.0):
        group = MulticastGroup.build(
            SystemKind.CAM_CHORD, bandwidths, per_link_kbps=per_link, seed=11
        )
        source = group.random_member(Random(3))
        tree = group.multicast_from(source)
        analytic = sustainable_throughput(tree, group.snapshot)
        transfer = simulate_tree_transfer(
            tree, group.snapshot, FILE_KBITS, packet_count=64
        )
        max_startup = max(
            transfer.startup_delay(ident) for ident in tree.parent
        )
        print(
            f"{per_link:7.0f} {analytic:14.1f} "
            f"{transfer.measured_throughput_kbps:14.1f} "
            f"{transfer.session_completion:10.1f} {max_startup:14.2f}"
        )

    print(
        "\nThe measured swarm rate tracks the analytic bottleneck "
        "(validating the Figure 6 model); raising p buys a faster "
        "distribution at the cost of deeper trees and longer start-up."
    )


if __name__ == "__main__":
    main()
