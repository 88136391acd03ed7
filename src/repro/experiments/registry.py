"""The experiment registry: names, descriptions, module paths.

Kept separate from the CLI runner so the parallel engine's worker
processes can resolve a figure name to its module without importing the
argument-parsing layer.  Modules are imported lazily: a worker that
only ever executes ``fig9`` sweep points never pays for the others.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from types import ModuleType

_PACKAGE = "repro.experiments"


@dataclass(frozen=True)
class ExperimentInfo:
    """One registered experiment: CLI name, module, one-line summary."""

    name: str
    module: str
    description: str


REGISTRY: dict[str, ExperimentInfo] = {
    info.name: info
    for info in (
        ExperimentInfo(
            "fig6", "fig06_throughput",
            "throughput vs average number of children (all four systems)",
        ),
        ExperimentInfo(
            "fig7", "fig07_ratio",
            "CAM/baseline throughput improvement ratio vs bandwidth range",
        ),
        ExperimentInfo(
            "fig8", "fig08_tradeoff",
            "throughput vs average path length trade-off (p sweep)",
        ),
        ExperimentInfo(
            "fig9", "fig09_pathdist_cam_chord",
            "multicast path-length distributions in CAM-Chord",
        ),
        ExperimentInfo(
            "fig10", "fig10_pathdist_cam_koorde",
            "multicast path-length distributions in CAM-Koorde",
        ),
        ExperimentInfo(
            "fig11", "fig11_avg_path_length",
            "average path length vs average capacity + 1.5*ln(n)/ln(c) bound",
        ),
        ExperimentInfo(
            "extA", "ext_churn",
            "delivery ratio under churn on the live protocol (Section 7)",
        ),
        ExperimentInfo(
            "extB", "ext_load",
            "flooding vs shared-tree forwarding-load balance (Section 5.1)",
        ),
        ExperimentInfo(
            "extC", "ext_lookup",
            "lookup hop scaling vs group size (Theorems 1, 2 and 5)",
        ),
        ExperimentInfo(
            "extD", "ext_proximity",
            "proximity neighbor selection ablation (Section 5.2)",
        ),
        ExperimentInfo(
            "extE", "ext_balance",
            "balanced splitter vs El-Ansary broadcast (Section 3.4)",
        ),
        ExperimentInfo(
            "extF", "ext_reliability",
            "acked repair for CAM-Chord multicast (our extension)",
        ),
        ExperimentInfo(
            "extG", "ext_geography",
            "geographic layout (Hilbert) vs PNS vs random (Section 5.2)",
        ),
        ExperimentInfo(
            "extH", "ext_timed",
            "timed packet pipelining vs the Section 6.1 analytic model",
        ),
        ExperimentInfo(
            "extI", "ext_sessions",
            "FastTrack-style session churn workload (Section 5.1)",
        ),
        ExperimentInfo(
            "extJ", "ext_parity",
            "static-vs-live parity: one MemberSpec, two worlds, same tree",
        ),
        ExperimentInfo(
            "extK", "ext_faults",
            "fault-injection campaign: invariant oracles after ring repair",
        ),
        ExperimentInfo(
            "extM", "ext_scenarios",
            "scenario matrix: workload x fault x topology cells under oracles",
        ),
        ExperimentInfo(
            "extN", "ext_service",
            "service plane: sustained deliveries/sec vs group count x churn",
        ),
        ExperimentInfo(
            "extO", "ext_failover",
            "repair vs precomputed-backup failover: delivery-gap distributions",
        ),
    )
}


def load(name: str) -> ModuleType:
    """Import (once) and return the module behind an experiment name."""
    try:
        info = REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {list(REGISTRY)}"
        ) from None
    return importlib.import_module(f"{_PACKAGE}.{info.module}")


def is_sweepable(module: ModuleType) -> bool:
    """True when the module decomposes into parallelizable sweep points."""
    return all(
        callable(getattr(module, attr, None))
        for attr in ("sweep", "run_point", "assemble")
    )
