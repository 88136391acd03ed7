"""The scenario × system matrix runner.

:func:`compile_matrix` lowers every requested (scenario, system) cell
through the compiler; :func:`run_matrix` executes the cells — serial
or over a process pool, outcomes returned in cell order either way,
so ``--jobs N`` aggregates byte-identically to the serial run (cells
are frozen values and outcomes plain data, the same property the
fault-campaign pool and the parallel experiment engine rely on).

A failing cell is shrunk by ``python -m repro.faults campaign
--scenario ... --out-dir D``: the ddmin shrinker runs each candidate
plan inside the cell's membership
(:meth:`~repro.scenarios.compile.CompiledCell.with_plan`), so the
minimized repro keeps the scenario's topology while events and group
size shrink.

:func:`render_tables` folds outcomes into one aligned per-scenario
table: delivery, duplicates, bottleneck throughput, forwarding-load
spread, verdict.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from repro.faults.campaign import ordered_map
from repro.scenarios.compile import (
    CellOutcome,
    CompiledCell,
    compile_cell,
    run_cell,
)
from repro.scenarios.spec import ScenarioSpec


def compile_matrix(
    scenarios: Iterable[ScenarioSpec],
    systems: Sequence[str],
    seed: int = 0,
) -> list[CompiledCell]:
    """Lower the full matrix, scenario-major then system order."""
    return [
        compile_cell(spec, system, seed)
        for spec in scenarios
        for system in systems
    ]


def run_matrix(
    cells: Sequence[CompiledCell],
    jobs: int = 1,
    progress: Callable[[CellOutcome], None] | None = None,
) -> list[CellOutcome]:
    """Execute every cell, optionally across ``jobs`` workers."""
    return ordered_map(run_cell, cells, jobs, progress)


def render_tables(outcomes: Sequence[CellOutcome]) -> str:
    """Per-scenario result tables, one row per system."""
    by_scenario: dict[str, list[CellOutcome]] = {}
    for outcome in outcomes:
        by_scenario.setdefault(outcome.cell.scenario, []).append(outcome)
    header = (
        f"{'system':<12} {'delivery':>8} {'dup':>4} {'members':>7} "
        f"{'tput kbps':>9} {'load max/mean':>13} {'verdict':>8}"
    )
    lines: list[str] = []
    for scenario, rows in by_scenario.items():
        lines.append(f"scenario {scenario}")
        lines.append(f"  {header}")
        for outcome in rows:
            delivery = outcome.mean_delivery()
            throughput = outcome.throughput_kbps
            lines.append(
                "  "
                f"{outcome.cell.system:<12} "
                f"{f'{delivery:.4f}' if delivery is not None else 'n/a':>8} "
                f"{sum(outcome.outcome.duplicates_per_message):>4} "
                f"{outcome.outcome.final_membership:>7} "
                f"{f'{throughput:.1f}' if throughput is not None else 'n/a':>9} "
                f"{outcome.load_max_over_mean:>13.2f} "
                f"{'ok' if outcome.passed else 'FAIL':>8}"
            )
        for outcome in rows:
            for violation in outcome.outcome.violations:
                lines.append(f"  ! {outcome.cell.system}: {violation}")
    total = len(outcomes)
    failing = sum(1 for outcome in outcomes if not outcome.passed)
    lines.append(f"{total} cells, {failing} failing")
    return "\n".join(lines)
