"""``backup_install``: build one backup plan per CAM system (write),
then query orphan sets on seeded members (read)."""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from bench.spans import Recorder
from bench.workloads import Rep
from repro.experiments.common import (
    ExperimentScale,
    bandwidth_members,
    members_snapshot,
)
from repro.multicast.backup import build_backup_plan
from repro.multicast.kernel import flood_tree, region_split_tree
from repro.multicast.session import MulticastGroup
from repro.systems import capacity_aware_systems

#: build_backup_plan is quadratic in time *and memory*: measured on this
#: box n = 2,000 -> 1.0-1.2 s, n = 4,000 -> 4.0 s and ~500 MB per plan,
#: n = 30,000 -> OOM-killed.  Do not raise this.
MAX_MEMBERS = 2_000

FULL_MEMBERS = 2_000
SMOKE_MEMBERS = 200
SPACE_BITS = 14
PER_LINK_KBPS = 25.0
QUERIES = 500


@dataclass
class Inputs:
    seed: int
    scale: ExperimentScale
    source_rank: int
    query_ranks: list[int]
    setup_parts: dict[str, float] = field(default_factory=dict)


def setup(seed: int, smoke: bool) -> Inputs:
    members = SMOKE_MEMBERS if smoke else FULL_MEMBERS
    if members > MAX_MEMBERS:
        raise ValueError(
            f"backup_install at n={members} would exhaust memory "
            f"(quadratic plan build); the ceiling is {MAX_MEMBERS}"
        )
    rng = Random(seed)
    return Inputs(
        seed,
        ExperimentScale("backup", members, 1, 0, space_bits=SPACE_BITS),
        source_rank=rng.randrange(members),
        query_ranks=[rng.randrange(members) for _ in range(QUERIES)],
    )


def run_rep(inputs: Inputs, rec: Recorder) -> list[dict]:
    rows = []
    for system in capacity_aware_systems():
        request = bandwidth_members(
            system, inputs.scale, per_link_kbps=PER_LINK_KBPS, seed=inputs.seed
        )
        with rec.span("overlay.snapshot", call="members_snapshot"):
            snapshot = members_snapshot(request)
        with rec.span("overlay.build", call="MulticastGroup.from_snapshot"):
            group = MulticastGroup.from_snapshot(system, snapshot)
        builder = region_split_tree if system.builds_single_tree else flood_tree
        source = snapshot.node_for_index(inputs.source_rank)
        with rec.span("kernel.tree", call=builder.__name__):
            tree = builder(group.overlay, source)
        with rec.span("backup.plan", call="build_backup_plan"):
            plan = build_backup_plan(tree, system)
        members = plan.epoch_members
        queried = [members[rank] for rank in inputs.query_ranks]
        with rec.span("backup.query", call="orphans_of_node", calls=len(queried)):
            orphaned = sum(len(plan.orphans_of_node(ident)) for ident in queried)
        with rec.span("oracle.check", call="route coverage"):
            unrouted = sum(
                1
                for ident in members
                if ident != plan.source
                and not (ident in plan.routes and plan.routes[ident].candidates)
            )
        rows.append(
            {
                "members": len(members),
                "routes": len(plan.routes),
                "candidates": sum(
                    len(route.candidates) for route in plan.routes.values()
                ),
                "orphaned": orphaned,
                "unrouted": unrouted,
                "snapshot": id(snapshot),
            }
        )
    return rows


def summarize(inputs: Inputs, rows: list[dict], delta) -> Rep:
    routes = sum(row["routes"] for row in rows)
    return Rep(
        work=routes,
        attempted=sum(row["members"] - 1 for row in rows),
        failed=sum(row["unrouted"] for row in rows),
        counts={
            "backup.routes": routes,
            "backup.candidates": sum(row["candidates"] for row in rows),
            "backup.orphans_named": sum(row["orphaned"] for row in rows),
            "kernel.trees": delta.kernel_trees,
            "overlay.snapshot_builds": len({row["snapshot"] for row in rows}),
        },
    )


def layers(inputs: Inputs, rep: Rep, spans: dict[str, float]) -> dict:
    queries = QUERIES * len(capacity_aware_systems())
    return {
        "overlay.snapshot_s": spans["overlay.snapshot"],
        "overlay.build_s": spans["overlay.build"],
        "kernel.tree_s": spans["kernel.tree"],
        "backup.plan_s": spans["backup.plan"],
        "backup.us_per_route": spans["backup.plan"] / rep.counts["backup.routes"] * 1e6,
        "backup.query_us": spans["backup.query"] / queries * 1e6,
        "oracle.check_s": spans["oracle.check"],
    }
