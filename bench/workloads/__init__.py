"""The five workloads and the shape every one of them has.

A workload module exposes

``setup(seed, smoke, **variant) -> inputs``
    untimed as far as reps go, timed as ``setup_s``: imports happen
    when the module is first imported, then inputs are generated from
    the seed.  ``inputs.setup_parts`` may name parts of that time.
``run_rep(inputs, rec) -> state``
    the timed region: build fresh state, run, judge with the repo's
    oracles.  Calls into a layer's public functions sit inside
    ``rec.span(...)``.
``summarize(inputs, state, delta) -> Rep``
    untimed: the benchmark's own arithmetic (sim metrics, counts) from
    what the rep produced and the ``repro.perf`` counter delta.
``layers(inputs, rep, spans) -> dict``
    per-layer metrics of one traced rep from its span totals.
``extras(inputs, rep, layers, walls, layer_self) -> dict`` (optional)
    once per traced run: calibrated unit costs and the estimates
    derived from them; may re-attribute ``layer_self`` where spans
    cannot see inside a call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module
from types import ModuleType
from typing import Any

from bench import catalog


@dataclass
class Rep:
    """What one rep produced, beside its wall time."""

    work: int  # units of work (see work_per_wall_s in the catalog)
    attempted: int
    failed: int
    #: sim-domain end-to-end metrics: must repeat exactly per seed
    sim: dict[str, float] = field(default_factory=dict)
    #: exact counts and sim-derived layer values: must repeat exactly
    counts: dict[str, float] = field(default_factory=dict)
    #: host-time samples pooled over reps (per-plan wall times)
    samples: dict[str, list[float]] = field(default_factory=dict)


#: workload name -> (module under bench.workloads, variant kwargs)
REGISTRY: dict[str, tuple[str, dict[str, Any]]] = {
    catalog.TREE_PAPER: ("tree_paper", {}),
    catalog.PLANE_STEADY: ("plane", {"churn": False}),
    catalog.PLANE_CHURN: ("plane", {"churn": True}),
    catalog.FAILOVER_CAMPAIGN: ("failover_campaign", {}),
    catalog.BACKUP_INSTALL: ("backup_install", {}),
}


def load(name: str) -> tuple[ModuleType, dict[str, Any]]:
    """Import a workload's module (this is where ``repro`` imports
    happen, so callers time it as part of set-up)."""
    module_name, variant = REGISTRY[name]
    return import_module(f"bench.workloads.{module_name}"), variant


#: Campaign seeds below 64 that hold one plan the oracles reject at the
#: commit that defined the benchmark (a ring that does not repair within
#: MAX_REPAIR_ROUNDS after the early quiesce; 41: a duplicate delivery
#: on the repair path).  ``bench run --seed 4`` runs that campaign and
#: reports the failure.  The driver's contract, though, asks for
#: workloads on which no operation fails on any seed it picks, so its
#: form — and only its form — steps over these eight.
DRIVER_SKIPPED_CAMPAIGNS = frozenset({4, 15, 25, 30, 41, 50, 54, 55})


def driver_seed(name: str, seed: int) -> int:
    """The input seed the driver's form runs ``name`` with: ``seed``
    itself, except that ``failover_campaign`` indexes the campaigns
    below 64 that pass (0-3 map to themselves)."""
    if name != catalog.FAILOVER_CAMPAIGN:
        return seed
    passing = [s for s in range(64) if s not in DRIVER_SKIPPED_CAMPAIGNS]
    return passing[seed % len(passing)]
