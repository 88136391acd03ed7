"""repro.scenarios: a declarative scenario compiler for the matrix.

One frozen :class:`ScenarioSpec` composes three independent axes —
topology (who the members are and where they sit), workload (what the
group does, including churn *during* dissemination), and faults (what
goes wrong) — and the compiler lowers ``(spec, system, seed)`` into
the existing fault-campaign machinery as a :class:`CompiledCell`:
a :class:`~repro.faults.plan.FaultPlan` plus an explicit
:class:`~repro.systems.MemberSpec` and latency model.

Specs and cells are JSON round-trippable values; compilation draws
all randomness from named SHA-512 streams, so the same inputs always
lower byte-identically and matrix runs parallelize without changing a
byte of output.  See ``docs/SCENARIOS.md`` for the cookbook and
``python -m repro.faults`` for the CLI (``list``, ``gen
--scenario``, ``campaign --scenario``, ``replay``).
"""

from repro.scenarios.compile import (
    CellOutcome,
    CompiledCell,
    compile_cell,
    run_cell,
    save_cell,
)
from repro.scenarios.library import LIBRARY, get_scenario, scenario_names
from repro.scenarios.runner import (
    compile_matrix,
    render_tables,
    run_matrix,
)
from repro.scenarios.spec import (
    ChurnModel,
    FaultAxis,
    LatencySpec,
    ScenarioSpec,
    TopologyAxis,
    WorkloadAxis,
)

__all__ = [
    "CellOutcome",
    "CompiledCell",
    "ChurnModel",
    "FaultAxis",
    "LatencySpec",
    "LIBRARY",
    "ScenarioSpec",
    "TopologyAxis",
    "WorkloadAxis",
    "compile_cell",
    "compile_matrix",
    "get_scenario",
    "render_tables",
    "run_cell",
    "run_matrix",
    "save_cell",
    "scenario_names",
]
