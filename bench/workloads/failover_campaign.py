"""``failover_campaign``: every generated fault plan down the repair
path and the failover path, paired on the affected members."""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from bench import stats
from bench.spans import Recorder
from bench.workloads import Rep
from repro.faults.campaign import (
    FAILOVER_SETTLE,
    FailoverComparison,
    generate_campaign,
    run_plan,
)
from repro.faults.plan import FaultPlan
from repro.systems import system_names

PLANS_PER_SYSTEM = 10
SMOKE_PLANS_PER_SYSTEM = 1


@dataclass
class Inputs:
    seed: int
    plans: list[FaultPlan]
    setup_parts: dict[str, float] = field(default_factory=dict)


def setup(seed: int, smoke: bool) -> Inputs:
    per_system = SMOKE_PLANS_PER_SYSTEM if smoke else PLANS_PER_SYSTEM
    started = perf_counter()
    plans = generate_campaign(system_names(), per_system, seed)
    return Inputs(seed, plans, {"faults.generate_s": perf_counter() - started})


def run_rep(inputs: Inputs, rec: Recorder) -> dict:
    comparisons = []
    plan_walls = []
    for plan in inputs.plans:
        started = perf_counter()
        with rec.span("faults.repair", call="run_plan[repair]"):
            repair = run_plan(plan, mode="repair", settle=FAILOVER_SETTLE)
        with rec.span("faults.failover", call="run_plan[failover]"):
            failover = run_plan(plan, mode="failover", settle=FAILOVER_SETTLE)
        plan_walls.append(perf_counter() - started)
        comparisons.append(
            FailoverComparison(plan=plan, repair=repair, failover=failover)
        )
    return {"comparisons": comparisons, "plan_walls": plan_walls}


def summarize(inputs: Inputs, state: dict, delta) -> Rep:
    comparisons: list[FailoverComparison] = state["comparisons"]
    outcomes = [
        outcome for item in comparisons for outcome in (item.repair, item.failover)
    ]
    pairs = [pair for item in comparisons for pair in item.paired_gaps()]
    repair_gaps = [repair for repair, _ in pairs]
    failover_gaps = [failover for _, failover in pairs]
    # a campaign that orphans nobody (possible at smoke size) has no
    # gap to report; 0 says so without breaking the report's shape
    sim = {
        "sim_failover_gap_p50_s": round(stats.median(failover_gaps), 6) if pairs else 0.0,
        "sim_failover_gap_max_s": round(max(failover_gaps), 6) if pairs else 0.0,
        "sim_repair_gap_p50_s": round(stats.median(repair_gaps), 6) if pairs else 0.0,
    }
    return Rep(
        # wall time follows the peers simulated, not the plan count:
        # per peer it holds steady across seeds, per plan it does not
        work=2 * sum(item.plan.size for item in comparisons),
        attempted=len(outcomes),
        failed=sum(not outcome.passed for outcome in outcomes),
        sim=sim,
        counts={
            "faults.plans": len(comparisons),
            "faults.violations": sum(len(outcome.violations) for outcome in outcomes),
            "faults.affected_members": len(pairs),
            "faults.repair_wait_p50_s": round(
                stats.median([item.repair.repair_wait for item in comparisons]), 6
            ),
        },
        samples={"plan_wall_ms": [wall * 1e3 for wall in state["plan_walls"]]},
    )


def layers(inputs: Inputs, rep: Rep, spans: dict[str, float]) -> dict:
    return {
        "faults.generate_s": inputs.setup_parts["faults.generate_s"],
        "faults.repair_s": spans["faults.repair"],
        "faults.failover_s": spans["faults.failover"],
    }
