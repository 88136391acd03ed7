"""Extension M: the scenario matrix as a registered experiment.

Each sweep point is one (scenario, system) cell of the declarative
scenario library (:mod:`repro.scenarios`): the compiler lowers the
spec's topology / workload / fault axes into a fault plan plus an
explicit membership, :func:`repro.scenarios.compile.run_cell` executes
the live quiesce-then-check phase and the static throughput/load
measurement, and every PR-5 oracle judges the result.

Expected shape: every cell at 1.0 — the library pins its chaos where
a healthy protocol must recover, so any violation is a protocol bug
(replay and shrink it with ``python -m repro.faults``).

Scales: ``bench``/``quick`` sample a 2 x 2 corner of the matrix (the
CI smoke shape); ``default``/``paper`` run the full 5-scenario x
4-system matrix.  Sweep-decomposed, so ``--jobs N`` fans cells over
the parallel engine with byte-identical output.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.experiments.common import ExperimentScale, FigureResult, Series
from repro.systems import system_names

#: The sampled sub-matrix at each scale; None means the full matrix.
SAMPLED_SCENARIOS = {"bench": 2, "quick": 2, "default": None, "paper": None}
SAMPLED_SYSTEMS = {"bench": 2, "quick": 2, "default": None, "paper": None}


def sweep(scale: ExperimentScale) -> Sequence[tuple[str, str]]:
    """One point per (scenario, system) cell."""
    from repro.scenarios import scenario_names

    scenarios = scenario_names()
    systems = system_names()
    scenario_cap = SAMPLED_SCENARIOS.get(scale.name)
    system_cap = SAMPLED_SYSTEMS.get(scale.name)
    if scenario_cap is not None:
        scenarios = scenarios[:scenario_cap]
    if system_cap is not None:
        systems = systems[:system_cap]
    return [
        (scenario, system) for scenario in scenarios for system in systems
    ]


def run_point(
    scale: ExperimentScale, seed: int, point: tuple[str, str]
) -> dict[str, Any]:
    """Compile and execute one cell; returns plain picklable data."""
    from repro.scenarios import compile_cell, get_scenario, run_cell

    scenario, system = point
    outcome = run_cell(compile_cell(get_scenario(scenario), system, seed))
    row = outcome.row()
    row["describe"] = outcome.outcome.plan.describe()
    return row


def assemble(
    scale: ExperimentScale, seed: int, partials: Sequence[dict[str, Any]]
) -> FigureResult:
    """Fold cell outcomes into one pass/fail series per scenario."""
    result = FigureResult(
        figure="extM",
        title="Scenario-matrix oracle verdicts per cell (1.0 = all pass)",
    )
    by_scenario: dict[str, list[dict[str, Any]]] = {}
    for partial in partials:
        by_scenario.setdefault(partial["scenario"], []).append(partial)
    for scenario, rows in by_scenario.items():
        series = Series(label=scenario)
        for index, row in enumerate(rows):
            series.add(float(index), 1.0 if row["passed"] else 0.0)
        result.series.append(series)
        for row in rows:
            delivery = row["mean_delivery"]
            throughput = row["throughput_kbps"]
            result.notes.append(
                f"{scenario} x {row['system']}: "
                f"{'ok' if row['passed'] else 'FAIL'}, delivery "
                f"{f'{delivery:.4f}' if delivery is not None else 'n/a'}, "
                f"throughput "
                f"{f'{throughput:.1f} kbps' if throughput is not None else 'n/a'}, "
                f"load max/mean {row['load_max_over_mean']:.2f}"
            )
            if not row["passed"]:
                result.notes.append(f"  FAILING {row['describe']}")
                result.notes.extend(f"    {v}" for v in row["violations"])
    result.notes.append(
        "Every cell must score 1.0: the library scenarios pin their chaos "
        "where a repaired ring must deliver perfectly; replay and shrink "
        "failures with `python -m repro.faults`."
    )
    return result
