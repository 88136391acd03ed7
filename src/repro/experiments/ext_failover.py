"""Extension O: repair vs precomputed-backup failover delivery gaps.

The fault campaign (extK) proves the quiesce-then-repair path correct;
this experiment *compares* the two resilience paths the campaign can
run.  Each sweep point is one seed-deterministic fault plan executed
down both paths under identical seeds and the same early quiesce
instant (:func:`repro.faults.compare_plan`):

* **repair** — wait for the ring to re-stabilize, then multicast;
  each affected member's gap is the stabilization wait plus in-tree
  flight;
* **failover** — multicast straight into the broken ring and switch
  every orphaned subtree onto its precomputed backup
  (:mod:`repro.multicast.backup`); each affected member's gap is loss
  detection plus a couple of overlay hops.

Expected shape, per system: both paths pass every oracle, and the
failover gap distribution sits strictly below the repair one at the
median — detection (~the RPC timeout) is far cheaper than even one
stabilization round, which is the whole argument for installing
backups ahead of failure.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.churn.resilience import percentile
from repro.experiments.common import ExperimentScale, FigureResult, Series
from repro.faults import compare_plan, generate_plan
from repro.systems import system_names

#: plans per system at each scale (the campaign CLI goes far bigger)
PLANS_PER_SYSTEM = {"bench": 2, "quick": 3, "default": 6, "paper": 10}


def sweep(scale: ExperimentScale) -> Sequence[tuple[str, int]]:
    """One point per (system, plan index)."""
    count = PLANS_PER_SYSTEM.get(scale.name, 6)
    return [
        (system, index)
        for system in system_names()
        for index in range(count)
    ]


def run_point(
    scale: ExperimentScale, seed: int, point: tuple[str, int]
) -> dict[str, Any]:
    """Run one plan down both paths; returns plain picklable data."""
    system, index = point
    plan = generate_plan(system, index, campaign_seed=seed)
    comparison = compare_plan(plan)
    pairs = comparison.paired_gaps()
    return {
        "system": system,
        "index": index,
        "passed": comparison.passed,
        "violations": [
            f"[{outcome.mode}] {violation}"
            for outcome in (comparison.repair, comparison.failover)
            for violation in outcome.violations
        ],
        "describe": plan.describe(),
        "repair_gaps": [repair for repair, _failover in pairs],
        "failover_gaps": [failover for _repair, failover in pairs],
        "repair_wait": comparison.repair.repair_wait,
    }


def assemble(
    scale: ExperimentScale, seed: int, partials: Sequence[dict[str, Any]]
) -> FigureResult:
    """Fold per-plan pairs into per-system gap-percentile series."""
    result = FigureResult(
        figure="extO",
        title="Affected-member delivery gap: repair vs precomputed failover",
    )
    by_system: dict[str, list[dict[str, Any]]] = {}
    for partial in partials:
        by_system.setdefault(partial["system"], []).append(partial)
    for system, outcomes in by_system.items():
        repair_gaps = [gap for o in outcomes for gap in o["repair_gaps"]]
        failover_gaps = [gap for o in outcomes for gap in o["failover_gaps"]]
        for label, gaps in (
            (f"{system} repair", repair_gaps),
            (f"{system} failover", failover_gaps),
        ):
            series = Series(label=label)
            for fraction in (0.50, 0.90, 0.99):
                # NaN-guarded: a system whose plans orphaned nobody has
                # no pairs, and NaN must not masquerade as a fast path.
                if gaps:
                    series.add(fraction, percentile(gaps, fraction))
            result.series.append(series)
        failures = [o for o in outcomes if not o["passed"]]
        if repair_gaps:
            result.notes.append(
                f"{system}: {len(repair_gaps)} affected members over "
                f"{len(outcomes)} plans, median gap "
                f"repair={percentile(repair_gaps, 0.5):.3f}s "
                f"failover={percentile(failover_gaps, 0.5):.3f}s, "
                f"{len(outcomes) - len(failures)}/{len(outcomes)} plans pass"
            )
        else:
            result.notes.append(
                f"{system}: no plan orphaned any member at this scale; "
                f"gap comparison n/a"
            )
        for failure in failures:
            result.notes.append(f"  FAILING {failure['describe']}")
            result.notes.extend(
                f"    {violation}" for violation in failure["violations"]
            )
    result.notes.append(
        "Both paths quiesce at the same instant (last fault event + "
        "settle), so the repair-path gap honestly includes the "
        "stabilization wait the installed backups skip; the failover "
        "median must sit strictly below the repair median wherever any "
        "member was orphaned."
    )
    return result
