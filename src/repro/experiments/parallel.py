"""Parallel experiment engine: fan sweep points out over processes.

The unit of distribution is one *task*: either a whole experiment run
(for monolithic modules such as the live-protocol churn experiments)
or one sweep point of a sweep-decomposed figure module (``sweep`` /
``run_point`` / ``assemble``).  Figure runs, replication seeds and
sweep points all become tasks in one flat list, so a single
``ProcessPoolExecutor`` keeps every core busy regardless of how the
work is shaped.

Determinism: a sweep-decomposed experiment has no ``run()``; its
result is ``assemble(scale, seed, [run_point(scale, seed, p) for p in
sweep(scale)])`` and every point draws from its own
:func:`~repro.experiments.common.point_rng` stream, so executing the
points on worker processes and assembling the ordered partials yields
bit-for-bit the serial output.  The serial path (``jobs <= 1``) runs
the exact same task decomposition in-process, making the equivalence
testable byte for byte.

Members never cross the process boundary as bytes: a task names them
by a frozen request (:func:`~repro.experiments.common.members_snapshot`)
and whichever process runs the task builds them, the same
deterministic build the serial path does.

Workers ship their observability delta — :mod:`repro.perf` counter
increments *and* the trace events the task emitted (see
:mod:`repro.trace.registry`) — back with each payload; the engine
folds counters into per-figure totals for the runner's perf footer and
reassembles trace buffers in deterministic task-plan order, which
extends the byte-identical guarantee to ``--trace`` output.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from repro import perf
from repro.experiments import registry
from repro.experiments.common import ExperimentScale, FigureResult
from repro.trace import registry as obs
from repro.trace.tracer import TRACER, TraceEvent


@dataclass(frozen=True)
class Task:
    """One schedulable unit: a whole figure or a single sweep point."""

    figure: str
    seed: int
    point_index: int | None  # None = monolithic whole-figure run


@dataclass
class FigureRun:
    """One assembled experiment result with its counter delta.

    ``events`` holds the trace events the run's tasks emitted (empty
    unless tracing was enabled), in task order.
    """

    name: str
    seed: int
    result: FigureResult
    counters: perf.PerfCounters
    events: tuple[TraceEvent, ...] = field(default_factory=tuple)


def plan_tasks(
    names: Sequence[str], scale: ExperimentScale, seeds: Sequence[int]
) -> list[Task]:
    """The flat task list for a batch of experiments and seeds."""
    tasks: list[Task] = []
    for name in names:
        module = registry.load(name)
        for seed in seeds:
            if registry.is_sweepable(module):
                count = len(module.sweep(scale))
                tasks.extend(Task(name, seed, index) for index in range(count))
            else:
                tasks.append(Task(name, seed, None))
    return tasks


class TaskOutcome(NamedTuple):
    """What one executed task ships back to the engine."""

    payload: object
    delta: obs.ObsDelta


#: Multicast ids one task may hand out: the task at ``position`` in the
#: plan numbers its multicasts from ``position * TASK_MESSAGE_IDS + 1``,
#: so ids are unique across a traced run and the same serial or fanned.
TASK_MESSAGE_IDS = 1_000_000


def execute_task(task: Task, scale: ExperimentScale, position: int) -> TaskOutcome:
    """Run the task at ``position`` in the plan; record its observability delta.

    Module-level so the process pool can pickle it by reference.
    """
    from repro.protocol.base_peer import restart_message_ids

    restart_message_ids(position * TASK_MESSAGE_IDS + 1)
    module = registry.load(task.figure)
    before = obs.snapshot()
    if task.point_index is None:
        payload: object = module.run(scale, task.seed)
    else:
        point = module.sweep(scale)[task.point_index]
        payload = module.run_point(scale, task.seed, point)
    return TaskOutcome(payload, obs.since(before))


def _init_worker(tracing_enabled: bool) -> None:
    """Pool initializer: mirror the parent's tracing state.

    With the fork start method workers inherit the flag anyway, but
    spawn/forkserver workers import a fresh (disabled) tracer — without
    this they would ship empty event deltas.
    """
    if tracing_enabled:
        TRACER.enable()
    else:
        TRACER.disable()


def run_experiments(
    names: Sequence[str],
    scale: ExperimentScale,
    seeds: Sequence[int] = (0,),
    jobs: int = 1,
) -> list[FigureRun]:
    """Run experiments over seeds, fanned over ``jobs`` processes.

    Returns one :class:`FigureRun` per (name, seed), ordered name-major
    to match the CLI argument order.  ``jobs <= 1`` executes the same
    task plan in-process (no pool), guaranteeing identical results.
    """
    if not names:
        return []
    tasks = plan_tasks(names, scale, seeds)
    if jobs > 1:
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(TRACER.enabled,)
        ) as pool:
            futures = [
                pool.submit(execute_task, task, scale, position)
                for position, task in enumerate(tasks)
            ]
            outcomes = [future.result() for future in futures]
    else:
        outcomes = [
            execute_task(task, scale, position) for position, task in enumerate(tasks)
        ]

    by_task = dict(zip(tasks, outcomes))
    runs: list[FigureRun] = []
    for name in names:
        module = registry.load(name)
        for seed in seeds:
            if registry.is_sweepable(module):
                point_count = len(module.sweep(scale))
                parts = [by_task[Task(name, seed, i)] for i in range(point_count)]
                result = module.assemble(scale, seed, [p.payload for p in parts])
            else:
                parts = [by_task[Task(name, seed, None)]]
                result = parts[0].payload
            delta = obs.ObsDelta()
            for part in parts:
                delta = delta + part.delta
            runs.append(FigureRun(name, seed, result, delta.counters, delta.events))
    return runs
