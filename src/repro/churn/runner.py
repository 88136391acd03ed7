"""Drive a live cluster through a churn trace while multicasting.

The experiment loop interleaves three activities on the simulated
clock: churn events from the trace (join / leave / crash), periodic
multicasts from random live sources, and delivery-ratio measurement a
fixed propagation window after each send.  The result quantifies the
paper's resilience claims: how much of the group still hears a message
while the maintenance protocol races the membership changes.

Also runnable directly for one-off resilience probes::

    python -m repro.churn.runner --system cam-chord --rate 0.5 \
        --duration 120 --trace churn.jsonl

which prints the resilience summary plus the per-message-kind network
drop/timeout accounting, and (with ``--trace``) records the structured
event stream for ``python -m repro.trace`` forensics.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from random import Random
from typing import Sequence

from repro.churn.resilience import ResilienceReport
from repro.churn.trace import ChurnKind, ChurnTrace
from repro.protocol.cluster import Cluster, SystemLike
from repro.protocol.config import ProtocolConfig
from repro.systems import DEFAULT_UNIFORM_FANOUT, MemberSpec
from repro.trace.tracer import TRACER, resequence


#: Smallest capacity a member joining mid-trace is given.
JOIN_CAPACITY_FLOOR = 4


class ChurnExperiment:
    """One system under one churn workload."""

    def __init__(
        self,
        system: SystemLike,
        capacities: "MemberSpec | Sequence[int]",
        space_bits: int = 16,
        config: ProtocolConfig | None = None,
        loss_rate: float = 0.0,
        seed: int = 0,
        uniform_fanout: int = DEFAULT_UNIFORM_FANOUT,
    ) -> None:
        self.cluster = Cluster(
            system,
            capacities,
            space_bits=space_bits,
            config=config,
            loss_rate=loss_rate,
            seed=seed,
            uniform_fanout=uniform_fanout,
        )
        self._rng = Random(seed ^ 0x5EED)
        self._base_capacities = list(
            capacities.capacities
            if isinstance(capacities, MemberSpec)
            else capacities
        )

    def _sample_capacity(self) -> int:
        """Capacity for a newly joining member (same law as the base)."""
        return max(JOIN_CAPACITY_FLOOR, self._rng.choice(self._base_capacities))

    def run(
        self,
        trace: ChurnTrace,
        multicast_interval: float = 5.0,
        propagation_window: float = 3.0,
        system_name: str = "",
    ) -> ResilienceReport:
        """Bootstrap, then run the trace while multicasting.

        Returns the filled :class:`ResilienceReport`.  Multicasts start
        only after bootstrap convergence; each is measured
        ``propagation_window`` seconds after it was sent.
        """
        cluster = self.cluster
        cluster.bootstrap()
        start = cluster.simulator.now
        report = ResilienceReport(
            system=system_name or cluster.system.name,
            churn_rate=trace.rate_per_second(),
        )

        # Schedule churn events on the simulated clock.
        for event in trace:
            cluster.simulator.call_at(
                start + event.time, self._apply_churn_event, event.kind
            )

        # Interleave multicasts and measurements.
        when = multicast_interval
        while when + propagation_window < trace.duration:
            cluster.simulator.call_at(
                start + when, self._send_and_measure, report, propagation_window
            )
            when += multicast_interval

        cluster.run(trace.duration + propagation_window)
        report.final_membership = len(cluster.live_members())
        report.network_summary = cluster.network.stats.by_kind_summary()
        return report

    def _send_and_measure(
        self, report: ResilienceReport, propagation_window: float
    ) -> None:
        cluster = self.cluster
        try:
            source = cluster.random_live_peer(self._rng)
        except RuntimeError:
            return
        message_id = cluster.multicast_from(source.ident)
        cluster.simulator.call_later(
            propagation_window, self._measure, report, message_id
        )

    def _apply_churn_event(self, kind: ChurnKind) -> None:
        cluster = self.cluster
        if kind is ChurnKind.JOIN:
            try:
                cluster.add_peer(self._sample_capacity())
            except RuntimeError:
                pass
            return
        live = cluster.live_members()
        if len(live) <= 2:
            return  # keep a minimal ring alive
        victim = self._rng.choice(sorted(live))
        cluster.remove_peer(victim, crash=(kind is ChurnKind.CRASH))

    def _measure(self, report: ResilienceReport, message_id: int) -> None:
        cluster = self.cluster
        report.delivery_ratios.append(cluster.delivery_ratio(message_id))
        report.duplicates_per_message.append(
            cluster.monitor.duplicates.get(message_id, 0)
        )
        report.ring_consistency_samples.append(cluster.ring_consistent())
        report.path_lengths.extend(cluster.monitor.path_lengths(message_id))


def main(argv: list[str] | None = None) -> int:
    """One-off churn probe: ``python -m repro.churn.runner``."""
    from repro.experiments.common import SEED_HELP, point_rng
    from repro.systems import system_names

    parser = argparse.ArgumentParser(
        prog="repro-churn",
        description="Run one churn resilience experiment and print the report.",
    )
    parser.add_argument(
        "--system", choices=sorted(system_names()), default="cam-chord"
    )
    parser.add_argument(
        "--rate", type=float, default=0.2, help="join and depart rate, events/s"
    )
    parser.add_argument("--duration", type=float, default=60.0, help="trace seconds")
    parser.add_argument("--size", type=int, default=48, help="initial group size")
    parser.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    parser.add_argument("--loss", type=float, default=0.0, help="datagram loss rate")
    parser.add_argument(
        "--fanout",
        type=int,
        default=4,
        help="uniform fanout for the capacity-oblivious baselines",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record structured trace events and write them as JSONL to PATH",
    )
    args = parser.parse_args(argv)

    from repro.churn.trace import poisson_trace

    # Named streams (same SHA-512 string-seeding scheme the parallel
    # engine and scenario compiler use) instead of seed arithmetic, so
    # every CLI in the repo derives per-purpose randomness identically.
    rng = point_rng(args.seed, "churn", "capacities")
    capacities = [rng.randint(4, 10) for _ in range(args.size)]
    trace = poisson_trace(
        args.duration,
        join_rate=args.rate,
        depart_rate=args.rate,
        rng=point_rng(args.seed, "churn", "trace"),
    )
    # --trace records this run only and leaves the process-global
    # tracer as it found it
    with TRACER.capture() if args.trace is not None else nullcontext() as mark:
        experiment = ChurnExperiment(
            args.system,
            capacities,
            space_bits=16,
            seed=args.seed,
            loss_rate=args.loss,
            uniform_fanout=args.fanout,
        )
        report = experiment.run(trace, system_name=args.system)
        if args.trace is not None:
            events = resequence(TRACER.events_since(mark))
    print(report.summary_row())
    print(f"# network {report.network_summary}")

    if args.trace is not None:
        from repro.trace.export import write_jsonl

        count = write_jsonl(events, args.trace)
        print(f"# trace: {count} events -> {args.trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
