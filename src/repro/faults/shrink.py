"""Minimize a failing fault plan to its smallest still-failing core.

When a campaign plan trips an oracle, the raw scenario is usually
noisy: twenty members, four overlapping fault primitives, several
multicasts.  The shrinker whittles it down with three deterministic
passes, re-running the plan after every candidate edit:

1. **drop events** — delta-debugging (ddmin) over the event schedule:
   remove chunks, then halve the chunk size, until no single event can
   go;
2. **shrink the cluster** — retry the plan at smaller member counts,
   keeping the smallest that still fails;
3. **tighten the frame** — fewer multicasts and a fault window cut to
   just past the last surviving event.

Because plans are frozen values and executions are seed-deterministic,
"still fails" is a pure function of the candidate plan — outcomes are
memoized by plan, and the minimized scenario replays the identical
violation set forever (``python -m repro.faults replay``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from repro.faults.campaign import PlanOutcome, run_plan
from repro.faults.plan import FaultPlan

#: Member counts tried (ascending) by the cluster-shrinking pass.
SHRINK_SIZES = (4, 6, 8, 12, 16)

Runner = Callable[[FaultPlan], PlanOutcome]


def shrink_plan(
    plan: FaultPlan,
    runner: Runner = run_plan,
    log: Callable[[str], None] | None = None,
) -> tuple[FaultPlan, PlanOutcome]:
    """The smallest still-failing variant of ``plan`` and its outcome.

    ``runner`` executes a candidate (the failover CLI passes one that
    runs the failover path).  ``plan`` itself must fail
    under ``runner``; raises ``ValueError`` otherwise — shrinking a
    passing plan would silently return garbage.
    """
    cache: dict[FaultPlan, PlanOutcome] = {}

    def outcome_of(candidate: FaultPlan) -> PlanOutcome:
        cached = cache.get(candidate)
        if cached is None:
            cached = runner(candidate)
            cache[candidate] = cached
        return cached

    def fails(candidate: FaultPlan) -> bool:
        return not outcome_of(candidate).passed

    def note(message: str) -> None:
        if log is not None:
            log(message)

    if not fails(plan):
        raise ValueError(f"plan does not fail; nothing to shrink: {plan.describe()}")

    current = plan

    # Pass 1: ddmin over the event schedule.
    events = list(current.events)
    chunk = max(1, len(events) // 2)
    while events:
        start = 0
        while start < len(events):
            candidate_events = events[:start] + events[start + chunk:]
            candidate = current.with_events(candidate_events)
            if fails(candidate):
                events = candidate_events
                current = candidate
                note(f"dropped {chunk} event(s) -> {len(events)} remain")
            else:
                start += chunk
        if chunk == 1:
            break
        chunk = max(1, chunk // 2)

    # Pass 2: smallest cluster that still fails.
    for size in SHRINK_SIZES:
        if size >= current.size:
            break
        candidate = replace(current, size=size)
        if fails(candidate):
            current = candidate
            note(f"shrank cluster to n={size}")
            break

    # Pass 3: tighten the frame — one multicast, minimal window.
    if current.multicasts > 1:
        candidate = replace(current, multicasts=1)
        if fails(candidate):
            current = candidate
            note("reduced to a single multicast")
    last_event = max((event.time for event in current.events), default=0.0)
    tight_window = last_event + 1.0
    if tight_window < current.fault_window:
        candidate = replace(current, fault_window=tight_window)
        if fails(candidate):
            current = candidate
            note(f"tightened fault window to {tight_window:.1f}s")

    final = outcome_of(current)
    note(
        f"minimized: {len(plan.events)} -> {len(current.events)} events, "
        f"n={plan.size} -> {current.size}, "
        f"{len(final.violations)} violation(s) preserved"
    )
    return current, final
