"""Execute fault plans and fan campaigns of them across processes.

:func:`run_plan` is the single-scenario engine: materialize the plan's
frozen membership, bootstrap the live cluster, replay the fault
schedule on the simulated clock, quiesce (heal every partition, zero
every loss rate), wait for the maintenance protocol to repair the
ring, then multicast under the tracer and evaluate every oracle
against the causal reconstruction.  The quiesce-then-check structure
is what makes the oracles *sound*: transient churn may legitimately
lose messages, but a repaired ring must deliver perfectly — so any
violation is a protocol bug the shrinker can minimize.

:func:`run_campaign` fans hundreds of generated plans over worker
processes.  Plans are self-describing values and outcomes are plain
data, so the pool is a straight ordered map — `--jobs N` output is
byte-identical to serial, same as the parallel experiment engine
(:mod:`repro.experiments.parallel`) whose worker-initializer pattern
this follows.

``mode="failover"`` is the proactive alternative to quiesce-then-
repair: the cluster is quiesced *right after the last fault event*,
while the ring is still maximally broken, and the multicast goes out
immediately.  Orphaned members are switched onto the precomputed
backup subtrees of :mod:`repro.multicast.backup` and judged by the
delivery-gap oracle; :func:`compare_plan` runs both paths under the
same seed (and the same early quiesce point) so their per-member gap
distributions are directly comparable.
"""

from __future__ import annotations

import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from random import Random
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.churn.resilience import ResilienceReport
from repro.faults.oracles import (
    Violation,
    check_failover_multicast,
    check_flood_accounting,
    check_multicast,
    check_ring,
)
from repro.faults.plan import MIN_LIVE_MEMBERS, FaultPlan, generate_plan
from repro.multicast.backup import (
    FailoverTiming,
    apply_failover,
    backup_plan_for_record,
    delivery_gaps,
    sorted_gap_items,
)
from repro.systems import MemberSpec, get_system
from repro.trace.causal import MulticastRecord, reconstruct
from repro.trace.schema import READ_SET
from repro.trace.tracer import TRACER

if TYPE_CHECKING:
    from repro.protocol.cluster import Cluster
    from repro.sim.latency import LatencyModel

#: Stabilization rounds granted for post-fault ring repair before the
#: convergence oracle gives up.  Generous on purpose: convergence
#: failures should mean "repair is broken", not "repair is slow".
MAX_REPAIR_ROUNDS = 400

#: Seconds after the last scheduled fault event at which failover mode
#: quiesces the network and multicasts.  Long enough for the final
#: event to apply and its datagrams to settle, far shorter than a
#: stabilization interval — the ring is still broken at send time,
#: which is the scenario backup trees exist for.
FAILOVER_SETTLE = 0.25

#: Execution modes of :func:`run_plan`.
MODES = ("repair", "failover")


@dataclass(frozen=True)
class PlanOutcome:
    """Everything one plan execution produced, as plain data.

    Violations are ordered by evaluation (multicast ordinal, then
    oracle); two executions of the same plan produce identical
    outcomes — the determinism contract ``tests/conftest.py`` enforces.
    """

    plan: FaultPlan
    violations: tuple[Violation, ...] = ()
    delivery_ratios: tuple[float, ...] = ()
    duplicates_per_message: tuple[int, ...] = ()
    final_membership: int = 0
    #: Which path produced the outcome ("repair" or "failover").
    mode: str = "repair"
    #: Per multicast, sorted ``(member, gap)`` pairs: seconds from
    #: ``mc.origin`` to eventual delivery.  Repair-mode gaps are charged
    #: the stabilization wait (:attr:`repair_wait`) the message spent
    #: queued before the ring was trusted again; failover-mode gaps are
    #: primary delivery times plus the structural backup recovery times.
    member_gaps: tuple[tuple[tuple[int, float], ...], ...] = ()
    #: Per multicast, the members the installed backup re-fed (empty in
    #: repair mode) — the "affected set" gap comparisons pair on.
    recovered: tuple[tuple[int, ...], ...] = ()
    #: Seconds the repair path waited in the post-quiesce convergence
    #: loop before its first multicast (0.0 in failover mode).
    repair_wait: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def measured(self) -> bool:
        """True when the multicast phase ran (bootstrap + repair ok)."""
        return bool(self.delivery_ratios)

    def report(self) -> ResilienceReport:
        """The outcome as the churn layer's standard report shape."""
        return ResilienceReport(
            system=self.plan.system,
            churn_rate=0.0,
            delivery_ratios=list(self.delivery_ratios),
            duplicates_per_message=list(self.duplicates_per_message),
            final_membership=self.final_membership,
        )

    def summary(self) -> str:
        verdict = "ok" if self.passed else f"{len(self.violations)} violation(s)"
        return f"{self.plan.describe()}: {verdict}"


def _apply_event(cluster: "Cluster", event) -> None:
    """Apply one fault primitive to the live cluster, rank-resolved."""
    if event.action in ("crash", "leave"):
        live = cluster.live_peers()
        if len(live) <= MIN_LIVE_MEMBERS:
            return  # never grind the ring below the floor
        victim = live[event.a % len(live)]
        cluster.remove_peer(victim.ident, crash=(event.action == "crash"))
    elif event.action == "join":
        try:
            cluster.add_peer(event.capacity)
        except RuntimeError:
            pass  # no live bootstrap peer or identifier left
    elif event.action == "partition":
        live = cluster.live_peers()
        if len(live) < 2:
            return
        first = live[event.a % len(live)]
        second = live[event.b % len(live)]
        if first.ident != second.ident:
            cluster.partition(first.ident, second.ident)
    elif event.action == "heal":
        cluster.heal_all_partitions()
    elif event.action == "loss":
        cluster.set_loss_rate(event.rate)
    elif event.action == "kind_loss":
        cluster.set_kind_loss(event.kind, event.rate)


def _await_repair(cluster: "Cluster", after: str) -> Violation | None:
    """Grant the ring up to ``MAX_REPAIR_ROUNDS`` stabilization rounds
    to turn consistent with exact neighbor tables; the ``convergence``
    violation if it does not, else None."""
    for _ in range(MAX_REPAIR_ROUNDS):
        if cluster.ring_consistent() and cluster.neighbor_table_accuracy() == 1.0:
            return None
        cluster.run(cluster.config.stabilize_interval)
    return Violation(
        oracle="convergence",
        detail=(
            f"ring failed to repair within {MAX_REPAIR_ROUNDS} "
            f"stabilization rounds after {after} "
            f"({len(cluster.live_peers())} live peers, "
            f"ring_consistent={cluster.ring_consistent()}, "
            f"table_accuracy={cluster.neighbor_table_accuracy():.3f})"
        ),
    )


def run_plan(
    plan: FaultPlan,
    member_spec: "MemberSpec | None" = None,
    latency: "LatencyModel | None" = None,
    mode: str = "repair",
    settle: float | None = None,
    stale_backup: bool = False,
) -> PlanOutcome:
    """Execute one fault plan end to end and judge it with the oracles.

    The plan's system descriptor (``get_system(plan.system)``) supplies
    both the live peer class and the invariants the oracles hold it to.

    ``member_spec`` overrides the plan-seed-generated membership with an
    explicitly materialized one (the scenario compiler's topology axis:
    non-uniform capacity laws, Hilbert-geographic identifier placement);
    it must describe exactly ``plan.size`` members.  ``latency``
    likewise overrides the cluster's default constant-latency network.
    Both hooks leave the plan itself untouched, so determinism still
    derives from frozen values only.

    ``mode`` picks the resilience path.  ``"repair"`` (the default) is
    the quiesce-then-check flow documented above, unchanged.
    ``"failover"`` quiesces ``settle`` seconds after the *last* fault
    event and multicasts straight into the still-broken ring; orphaned
    members are re-fed over precomputed backup subtrees
    (:mod:`repro.multicast.backup`) and judged by the delivery-gap
    oracle, with exactly-once relaxed (see
    :func:`~repro.faults.oracles.check_failover_multicast`) and the
    convergence/ring oracles evaluated *after* the measurement so ring
    hygiene is still asserted.  ``settle`` also applies to repair mode
    (``None`` keeps the legacy full fault window): :func:`compare_plan`
    quiesces both paths at the same instant, so the repair path's gap
    honestly includes the stabilization wait the failover path skips.
    ``stale_backup`` builds the backup from the *pre-fault* membership
    epoch — the deliberately wrong plan the mutation tests prove the
    delivery-gap oracle catches.
    """
    from repro.protocol.cluster import Cluster

    if mode not in MODES:
        raise ValueError(f"unknown run mode {mode!r}; choose from {MODES}")
    descriptor = get_system(plan.system)
    if mode == "failover" and not descriptor.backup_capable:
        raise ValueError(
            f"system {plan.system!r} is not backup-capable; "
            f"failover mode needs a structural tree builder"
        )
    if member_spec is not None:
        if len(member_spec) != plan.size:
            raise ValueError(
                f"member spec has {len(member_spec)} members but the plan "
                f"needs {plan.size}"
            )
        spec = member_spec
    else:
        spec = MemberSpec.generate(
            plan.size,
            space_bits=plan.space_bits,
            capacity_range=plan.capacity_range,
            seed=plan.seed,
        )
    cluster = Cluster(
        descriptor,
        spec,
        latency=latency,
        seed=plan.seed,
        uniform_fanout=plan.uniform_fanout,
    )

    try:
        cluster.bootstrap()
    except RuntimeError as exc:
        return PlanOutcome(
            plan=plan,
            violations=(Violation(oracle="bootstrap", detail=str(exc)),),
        )

    # -- fault window -----------------------------------------------------
    origin = cluster.simulator.now
    epoch_members: "list[tuple[int, int]] | None" = None
    if mode == "failover" and stale_backup:
        # The deliberately stale epoch: membership as bootstrapped,
        # before any fault event applied — a backup built here does not
        # know mid-window joiners and still trusts doomed parents.
        epoch_members = [
            (peer.ident, peer.capacity) for peer in cluster.live_peers()
        ]
    for event in sorted(plan.events, key=lambda e: (e.time, e.action)):
        cluster.simulator.call_at(origin + event.time, _apply_event, cluster, event)
    if mode == "failover" or settle is not None:
        last_event = max((event.time for event in plan.events), default=0.0)
        pause = settle if settle is not None else FAILOVER_SETTLE
        cluster.run(last_event + pause)
    else:
        cluster.run(plan.fault_window + 2.0)

    # -- quiesce (and, on the repair path, wait for convergence) ----------
    cluster.clear_fault_injection()
    repair_wait = 0.0
    if mode == "repair":
        quiesce_time = cluster.simulator.now
        unrepaired = _await_repair(cluster, "quiesce")
        if unrepaired is not None:
            return PlanOutcome(
                plan=plan,
                violations=(unrepaired,),
                final_membership=len(cluster.live_peers()),
            )
        repair_wait = cluster.simulator.now - quiesce_time

    # -- multicast phase under the scoped tracer --------------------------
    # The oracles read one causal record per multicast, so the window
    # records only what ``reconstruct`` reads, not every maintenance RPC.
    violations: list[Violation] = []
    records: list[MulticastRecord] = []
    ratios: list[float] = []
    duplicates: list[int] = []
    gap_rows: list[tuple[tuple[int, float], ...]] = []
    recovered_rows: list[tuple[int, ...]] = []
    mc_rng = Random(f"faults-mc:{plan.seed}")
    with TRACER.capture(only=READ_SET) as mark:
        floods_before = cluster.network.stats.delivered_by_kind.get("mc_flood", 0)
        for ordinal in range(plan.multicasts):
            source = cluster.random_live_peer(mc_rng).ident
            mid = cluster.multicast_from(source)
            cluster.run(plan.propagation_window)
            record = reconstruct(TRACER.events_since(mark), mid)
            records.append(record)
            ratios.append(record.delivery_ratio())
            duplicates.append(len(record.duplicates))
            if mode == "failover":
                backup = backup_plan_for_record(
                    record,
                    descriptor,
                    plan.uniform_fanout,
                    membership=epoch_members,
                )
                recovery = apply_failover(
                    record,
                    backup,
                    descriptor,
                    FailoverTiming(detect_delay=cluster.config.rpc_timeout),
                )
                violations.extend(
                    check_failover_multicast(record, recovery, descriptor, ordinal)
                )
                gap_rows.append(sorted_gap_items(delivery_gaps(record, recovery)))
                recovered_rows.append(
                    tuple(item.ident for item in recovery.recovered)
                )
            else:
                violations.extend(check_multicast(record, descriptor, ordinal))
                # The repair path's honest per-member gap charges the
                # stabilization wait the message spent queued before
                # the ring was trusted again, on top of in-tree flight.
                gap_rows.append(
                    tuple(
                        (ident, repair_wait + gap)
                        for ident, gap in sorted_gap_items(delivery_gaps(record))
                    )
                )
                recovered_rows.append(())
        floods_after = cluster.network.stats.delivered_by_kind.get("mc_flood", 0)

    violations.extend(
        check_flood_accounting(records, descriptor, floods_after - floods_before)
    )
    if mode == "failover":
        # Ring hygiene still holds on the failover path — it is checked
        # *after* the measurement instead of gating it: the ring must
        # eventually repair even though the multicast did not wait.
        unrepaired = _await_repair(cluster, "the failover measurement")
        if unrepaired is not None:
            violations.append(unrepaired)
    violations.extend(check_ring(cluster))

    return PlanOutcome(
        plan=plan,
        violations=tuple(violations),
        delivery_ratios=tuple(ratios),
        duplicates_per_message=tuple(duplicates),
        final_membership=len(cluster.live_peers()),
        mode=mode,
        member_gaps=tuple(gap_rows),
        recovered=tuple(recovered_rows),
        repair_wait=repair_wait,
    )


# -- campaigns ----------------------------------------------------------------


@dataclass
class CampaignResult:
    """Aggregate over one campaign's plan outcomes."""

    outcomes: list[PlanOutcome] = field(default_factory=list)

    @property
    def failures(self) -> list[PlanOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.passed]

    @property
    def plans_run(self) -> int:
        return len(self.outcomes)

    def mean_delivery(self) -> float | None:
        """Average delivery over *measured* runs, or None if none were.

        Guarded through :attr:`ResilienceReport.has_measurements` — an
        outcome that never reached the multicast phase reports NaN
        ratios by design and must not poison the campaign average.
        """
        measured = [
            outcome.report()
            for outcome in self.outcomes
            if outcome.report().has_measurements
        ]
        if not measured:
            return None
        return sum(report.mean_delivery_ratio for report in measured) / len(measured)

    def summary(self) -> str:
        mean = self.mean_delivery()
        delivery = f"{mean:.4f}" if mean is not None else "n/a"
        return (
            f"{self.plans_run} plans, {len(self.failures)} failing, "
            f"mean delivery {delivery}"
        )


def ordered_map(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    jobs: int = 1,
    progress: Callable[[Any], None] | None = None,
) -> list:
    """``[fn(task) for task in tasks]``, over ``jobs`` worker processes
    when there is more than one of each.

    Results come back in task order regardless of worker scheduling —
    that is what makes ``--jobs N`` aggregate byte-identically to the
    serial run — and ``progress`` sees each one as it arrives.  ``fn``
    must be a module-level function (or a ``partial`` of one) so the
    pool can pickle it by reference.
    """

    def drain(stream: Iterable[Any]) -> list:
        results = []
        for result in stream:
            results.append(result)
            if progress is not None:
                progress(result)
        return results

    if jobs <= 1 or len(tasks) <= 1:
        return drain(map(fn, tasks))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return drain(pool.map(fn, tasks, chunksize=1))


def run_campaign(
    plans: Sequence[FaultPlan],
    jobs: int = 1,
    progress: Callable[[PlanOutcome], None] | None = None,
) -> CampaignResult:
    """Run every plan, optionally across ``jobs`` worker processes.

    Outcomes come back in plan order (:func:`ordered_map`).
    """
    return CampaignResult(outcomes=ordered_map(run_plan, plans, jobs, progress))


# -- repair vs failover comparison --------------------------------------------


@dataclass(frozen=True)
class FailoverComparison:
    """One plan run down both resilience paths under identical seeds.

    Both outcomes quiesce at the same instant (``last fault event +
    FAILOVER_SETTLE``), so their per-member gaps differ only in the
    resilience mechanism: the repair path charges the stabilization
    wait, the failover path charges detection plus backup hops.
    """

    plan: FaultPlan
    repair: PlanOutcome
    failover: PlanOutcome

    @property
    def passed(self) -> bool:
        return self.repair.passed and self.failover.passed

    def paired_gaps(self) -> list[tuple[float, float]]:
        """``(repair_gap, failover_gap)`` per affected member.

        Paired on ``(multicast ordinal, member)`` over the members the
        failover path actually recovered — the population the backup
        trees exist for.  Members both paths delivered primarily would
        pair trivially and only dilute the comparison.
        """
        pairs: list[tuple[float, float]] = []
        for ordinal, affected in enumerate(self.failover.recovered):
            if not affected or ordinal >= len(self.repair.member_gaps):
                continue
            repair_gaps = dict(self.repair.member_gaps[ordinal])
            failover_gaps = dict(self.failover.member_gaps[ordinal])
            for member in affected:
                if member in repair_gaps and member in failover_gaps:
                    pairs.append((repair_gaps[member], failover_gaps[member]))
        return pairs


@dataclass
class ComparisonResult:
    """Aggregate over one comparison campaign's plan pairs."""

    comparisons: list[FailoverComparison] = field(default_factory=list)

    @property
    def failures(self) -> list[FailoverComparison]:
        return [item for item in self.comparisons if not item.passed]

    @property
    def plans_run(self) -> int:
        return len(self.comparisons)

    def paired_gaps(self) -> list[tuple[float, float]]:
        """Every ``(repair_gap, failover_gap)`` pair across all plans."""
        return [pair for item in self.comparisons for pair in item.paired_gaps()]

    def gap_medians(self) -> tuple[float, float] | None:
        """``(repair_median, failover_median)`` over the paired affected
        members, or ``None`` when no plan orphaned anyone — the headline
        :meth:`summary` prints and CI's failover-smoke job gates on."""
        pairs = self.paired_gaps()
        if not pairs:
            return None
        return (
            statistics.median(repair for repair, _failover in pairs),
            statistics.median(failover for _repair, failover in pairs),
        )

    def summary(self) -> str:
        medians = self.gap_medians()
        if medians is None:
            gaps = "no affected members"
        else:
            gaps = (
                f"median gap repair={medians[0]:.3f}s "
                f"failover={medians[1]:.3f}s"
            )
        return f"{self.plans_run} plans, {len(self.failures)} failing, {gaps}"


def compare_plan(plan: FaultPlan, stale_backup: bool = False) -> FailoverComparison:
    """Run one plan down the repair and failover paths under one seed.

    Both runs get ``settle=FAILOVER_SETTLE``: quiescing the repair path
    at the failover path's early quiesce point is what makes the
    comparison honest — the repair path's gap then includes the
    stabilization wait its protocol actually imposes on the damage the
    failover path multicasts straight into.
    """
    repair = run_plan(plan, mode="repair", settle=FAILOVER_SETTLE)
    failover = run_plan(
        plan,
        mode="failover",
        settle=FAILOVER_SETTLE,
        stale_backup=stale_backup,
    )
    return FailoverComparison(plan=plan, repair=repair, failover=failover)


def run_comparison_campaign(
    plans: Sequence[FaultPlan],
    jobs: int = 1,
    stale_backup: bool = False,
    progress: Callable[[FailoverComparison], None] | None = None,
) -> ComparisonResult:
    """Run every plan down both paths, optionally across processes.

    Same :func:`ordered_map` pooling as :func:`run_campaign`.
    """
    run = partial(compare_plan, stale_backup=stale_backup)
    return ComparisonResult(comparisons=ordered_map(run, plans, jobs, progress))


def generate_campaign(
    systems: Iterable[str],
    plans_per_system: int,
    campaign_seed: int = 0,
) -> list[FaultPlan]:
    """The deterministic plan matrix of one campaign invocation."""
    return [
        generate_plan(system, index, campaign_seed)
        for system in systems
        for index in range(plans_per_system)
    ]
