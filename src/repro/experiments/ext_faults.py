"""Extension K: fault-injection campaign over all registered systems.

The churn study (extA) measures delivery degradation *during* faults;
this experiment asserts correctness *after* them.  Each sweep point is
one seed-deterministic :class:`~repro.faults.FaultPlan` — crashes,
leaves, joins, partitions, loss bursts, timeout storms — executed by
:func:`repro.faults.run_plan`: inject the schedule, quiesce, wait for
the ring to repair, then multicast and judge every invariant oracle
(delivery completeness, exactly-once for tree systems, fanout within
capacity, successor-ring ground truth, flood datagram accounting).

Expected shape: every point at 1.0 (oracles pass) for every system —
a repaired ring delivers perfectly, so any violation is a protocol
bug, with the failing plan's description carried in the notes for
``python -m repro.faults`` to shrink and replay.

The module is sweep-decomposed: ``--jobs N`` fans plans over worker
processes (:mod:`repro.experiments.parallel`) with byte-identical
output, because plans are frozen values and outcomes plain data.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.experiments.common import ExperimentScale, FigureResult, Series
from repro.faults import generate_plan, run_plan
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
    """Execute one generated plan; returns plain picklable data."""
    system, index = point
    plan = generate_plan(system, index, campaign_seed=seed)
    outcome = run_plan(plan)
    report = outcome.report()
    return {
        "system": system,
        "index": index,
        "passed": outcome.passed,
        "violations": [str(violation) for violation in outcome.violations],
        "describe": plan.describe(),
        # NaN-guarded: a plan that never reached its multicast phase has
        # no delivery evidence and must not poison the aggregate.
        "mean_delivery": (
            report.mean_delivery_ratio if report.has_measurements else None
        ),
    }


def assemble(
    scale: ExperimentScale, seed: int, partials: Sequence[dict[str, Any]]
) -> FigureResult:
    """Fold per-plan outcomes into one pass/fail series per system."""
    result = FigureResult(
        figure="extK",
        title="Fault-injection oracle verdicts per plan (1.0 = all pass)",
    )
    by_system: dict[str, list[dict[str, Any]]] = {}
    for partial in partials:
        by_system.setdefault(partial["system"], []).append(partial)
    for system, outcomes in by_system.items():
        series = Series(label=system)
        for outcome in outcomes:
            series.add(float(outcome["index"]), 1.0 if outcome["passed"] else 0.0)
        result.series.append(series)
        measured = [
            outcome["mean_delivery"]
            for outcome in outcomes
            if outcome["mean_delivery"] is not None
        ]
        mean = sum(measured) / len(measured) if measured else None
        failures = [outcome for outcome in outcomes if not outcome["passed"]]
        result.notes.append(
            f"{system}: {len(outcomes) - len(failures)}/{len(outcomes)} plans "
            f"pass, mean delivery "
            f"{f'{mean:.4f}' if mean is not None else 'n/a'}"
        )
        for failure in failures:
            result.notes.append(f"  FAILING {failure['describe']}")
            result.notes.extend(
                f"    {violation}" for violation in failure["violations"]
            )
    result.notes.append(
        "Every plan must score 1.0: after quiesce and ring repair the "
        "oracles (delivery, duplicates, fanout, ring, flood accounting) "
        "all hold; shrink any failure with `python -m repro.faults`."
    )
    return result
