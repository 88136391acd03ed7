"""Declarative fault-injection campaigns with invariant oracles.

The resilience experiments measure *how well* the live protocols
survive churn; this package interrogates *whether they are correct*
under adversarial schedules.  A frozen :class:`FaultPlan` scripts
crashes, leaves, joins, partitions, loss bursts and timeout storms
against a live cluster; after the network quiesces and the ring
repairs, every multicast is judged by the :mod:`oracle
<repro.faults.oracles>` suite — delivery completeness against the
frozen membership, exactly-once delivery for tree systems, per-node
fanout within capacity, successor-ring ground truth, and flood
datagram accounting — with each violation citing the trace-causal
lost hop.

Campaigns fan hundreds of seed-deterministic plans across all four
registered systems (``python -m repro.faults campaign``, also
experiment ``extK``); a failing plan is handed to the
:mod:`shrinker <repro.faults.shrink>`, which minimizes it to a
smallest still-failing scenario saved as JSON and replayable forever
via ``python -m repro.faults replay``.  The same CLI runs the scenario
library (:mod:`repro.scenarios`): ``list``, ``gen --scenario`` and
``campaign --scenario``.
"""

from repro.faults.campaign import (
    FAILOVER_SETTLE,
    MODES,
    CampaignResult,
    ComparisonResult,
    FailoverComparison,
    PlanOutcome,
    compare_plan,
    generate_campaign,
    run_campaign,
    run_comparison_campaign,
    run_plan,
)
from repro.faults.oracles import ORACLES, Violation
from repro.faults.plan import (
    FaultEvent,
    FaultPlan,
    crash_at,
    flash_churn,
    generate_plan,
    join_at,
    leave_at,
    loss_burst,
    message_loss_burst,
    partition_window,
    save_plan,
    summarize_events,
    timeout_storm,
)
from repro.faults.shrink import shrink_plan

__all__ = [
    "CampaignResult",
    "ComparisonResult",
    "FAILOVER_SETTLE",
    "FailoverComparison",
    "FaultEvent",
    "FaultPlan",
    "MODES",
    "ORACLES",
    "PlanOutcome",
    "Violation",
    "compare_plan",
    "crash_at",
    "flash_churn",
    "generate_campaign",
    "generate_plan",
    "join_at",
    "leave_at",
    "loss_burst",
    "message_loss_burst",
    "partition_window",
    "run_campaign",
    "run_comparison_campaign",
    "run_plan",
    "save_plan",
    "shrink_plan",
    "summarize_events",
    "timeout_storm",
]
