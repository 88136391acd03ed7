"""The fault front end: list, gen, campaign, replay, shrink.

One CLI over one engine (:func:`~repro.faults.campaign.run_plan`), for
generated fault plans and for the scenario library alike::

    # the scenario library; one spec, one compiled cell, one plan
    python -m repro.faults list
    python -m repro.faults gen --scenario flash-crowd > flash-crowd.json
    python -m repro.faults gen --scenario flash-crowd --system cam-chord --out cell.json
    python -m repro.faults gen --system cam-chord --index 3 --out plan.json

    # a campaign over every registered system; with --out-dir every
    # failing plan is shrunk under the runner it failed with and its
    # min-*.json written there
    python -m repro.faults campaign --plans 25 --jobs 4 --out-dir faults_out

    # every plan down BOTH resilience paths (quiesce-then-repair and
    # precomputed-backup failover) under identical seeds, comparing
    # per-member delivery-gap distributions; --stale-backup builds the
    # backup from the pre-fault epoch (the oracle must catch it)
    python -m repro.faults campaign --failover --plans 8 --jobs 2

    # the scenario x system matrix: tables, results.json and the
    # minimized failing cells in --out-dir
    python -m repro.faults campaign --scenario all --systems all \
        --jobs 2 --seed 0 --out-dir scenarios_out

    # re-run one artifact and exit 1 if any oracle fires: a plan or a
    # min-*.json (its meta names the mode and settle it failed under),
    # a compiled cell (run verbatim) or a scenario spec (lowered for
    # --systems) — byte-identical output on every invocation
    python -m repro.faults replay faults_out/min-cam-chord-3.json
    python -m repro.faults replay plan.json --failover --stale-backup
    python -m repro.faults replay flash-crowd.json --systems cam-chord

    # minimize a failing plan or cell by hand
    python -m repro.faults shrink plan.json --out minimal.json

Every run builds its live peers from the plan's registry descriptor.
One ``--seed`` base value derives every stream (see ``SEED_HELP``), so
``--jobs N`` output is byte-identical to the serial run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from repro.experiments.common import SEED_HELP
from repro.faults.campaign import (
    FAILOVER_SETTLE,
    PlanOutcome,
    generate_campaign,
    run_campaign,
    run_comparison_campaign,
    run_plan,
)
from repro.faults.plan import FaultPlan, generate_plan, save_plan
from repro.faults.shrink import shrink_plan
from repro.scenarios.compile import CompiledCell, compile_cell, run_cell, save_cell
from repro.scenarios.library import LIBRARY, get_scenario, scenario_names
from repro.scenarios.runner import compile_matrix, render_tables, run_matrix
from repro.scenarios.spec import ScenarioSpec
from repro.systems import system_names


@dataclass(frozen=True)
class _Repro:
    """A plan and the exact runner it ran under — ``run_plan`` with
    ``mode`` / ``settle`` / ``stale_backup``, or, for a compiled cell,
    ``run_cell`` inside the cell's own topology.  Called on a candidate
    plan it is the shrinker's runner."""

    plan: FaultPlan
    mode: str = "repair"
    settle: float | None = None
    stale_backup: bool = False
    cell: CompiledCell | None = None

    def __call__(self, plan: FaultPlan) -> PlanOutcome:
        if self.cell is not None:
            return run_cell(self.cell.with_plan(plan)).outcome
        return run_plan(
            plan, mode=self.mode, settle=self.settle, stale_backup=self.stale_backup
        )


def _load_repro(path: str, raw: dict, failover: bool, stale_backup: bool) -> _Repro:
    """A compiled cell, or a plan whose ``meta`` (if any) names its runner;
    ``--failover`` / ``--stale-backup`` override what ``meta`` says."""
    if "plan" in raw and "members" in raw:
        cell = CompiledCell.from_json_dict(raw)
        return _Repro(cell.plan, cell=cell)
    if "system" in raw and "size" in raw:
        meta = raw.get("meta", {})
        return _Repro(
            FaultPlan.from_json_dict(raw),
            mode="failover" if failover else meta.get("mode", "repair"),
            settle=meta.get("settle"),
            stale_backup=stale_backup or meta.get("stale_backup", False),
        )
    raise SystemExit(
        f"{path}: neither a scenario spec (topology/workload/faults), a "
        f"compiled cell (plan/members) nor a fault plan (system/size)"
    )


def _read(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _systems(arg: str) -> list[str]:
    if arg in ("all", ""):
        return list(system_names())
    names = arg.split(",")
    for name in names:
        if name not in system_names():
            raise SystemExit(
                f"unknown system {name!r}; choose from {sorted(system_names())}"
            )
    return names


def _print_outcome(outcome: PlanOutcome) -> None:
    print(outcome.summary())
    for violation in outcome.violations:
        print(f"  {violation}")


def _print_comparison(comparison) -> None:
    for outcome in (comparison.repair, comparison.failover):
        print(f"[{outcome.mode}] {outcome.summary()}")
        for violation in outcome.violations:
            print(f"  {violation}")


def _print_cell(outcome) -> None:
    verdict = "ok" if outcome.passed else f"{len(outcome.outcome.violations)} violation(s)"
    print(
        f"{outcome.cell.scenario} x {outcome.cell.system}: {verdict} "
        f"({outcome.outcome.plan.describe()})"
    )


def _shrink(repro: _Repro, path: str, quiet: bool) -> None:
    """Minimize ``repro`` under its own runner and write it to ``path``
    — a cell stays a cell; a plan carries its runner and violations in
    ``meta`` — or, without a ``path``, print the minimized outcome."""
    minimized, final = shrink_plan(
        repro.plan, runner=repro, log=None if quiet else print
    )
    if not path:
        _print_outcome(final)
        return
    if repro.cell is not None:
        save_cell(repro.cell.with_plan(minimized), path)
    else:
        save_plan(
            minimized,
            path,
            extra={
                "mode": repro.mode,
                "settle": repro.settle,
                "stale_backup": repro.stale_backup,
                "violations": [str(v) for v in final.violations],
                "original": repro.plan.to_json_dict(),
            },
        )
    print(f"minimized repro written: {path} ({minimized.describe()})")


def _shrink_failures(args: argparse.Namespace, prefix: str, repros: list[_Repro]) -> int:
    """With ``--out-dir``, shrink each failure into ``min-<prefix><system>-<i>.json``;
    the campaign's exit status either way."""
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for index, repro in enumerate(repros):
            stem = f"{repro.cell.scenario}-" if repro.cell else prefix
            name = f"min-{stem}{repro.plan.system}-{index}.json"
            _shrink(repro, os.path.join(args.out_dir, name), args.quiet)
    return 1 if repros else 0


def _cmd_list(args: argparse.Namespace) -> int:
    for name, spec in LIBRARY.items():
        shape = (
            f"n={spec.topology.size} "
            f"caps={spec.topology.capacities} "
            f"churn={spec.workload.churn.kind} "
            f"faults={len(spec.faults.events)}"
        )
        print(f"{name:<24} {shape:<44} {spec.description}")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.scenario:
        spec = get_scenario(args.scenario)
        if not args.system:
            print(json.dumps(spec.to_json_dict(), indent=2, sort_keys=True))
            return 0
        cell = compile_cell(spec, args.system, args.seed)
        if not args.out:
            print(json.dumps(cell.to_json_dict(), indent=2, sort_keys=True))
            return 0
        save_cell(cell, args.out)
        print(f"wrote {args.out}: {cell.plan.describe()}")
        return 0
    if not args.system:
        raise SystemExit("gen needs --system, --scenario or both")
    plan = generate_plan(args.system, args.index, args.seed)
    if args.out:
        save_plan(plan, args.out)
        print(f"wrote {args.out}: {plan.describe()}")
    else:
        print(plan.describe())
        for event in plan.events:
            print(f"  t={event.time:6.2f} {event.action} {event.to_json_dict()}")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    systems = _systems(args.systems)
    if args.scenario:
        return _scenario_campaign(args, systems)
    plans = generate_campaign(systems, args.plans, args.seed)
    print(
        f"campaign: {len(plans)} plans "
        f"({args.plans} x {len(systems)} systems), seed={args.seed}, "
        f"jobs={args.jobs}"
    )
    if args.failover:
        # Both paths quiesce at FAILOVER_SETTLE; a failure shrinks down
        # the path that failed (failover first), exactly as it ran.
        compared = run_comparison_campaign(
            plans,
            jobs=args.jobs,
            stale_backup=args.stale_backup,
            progress=None if args.quiet else _print_comparison,
        )
        print(compared.summary())
        repros = [
            _Repro(item.plan, settle=FAILOVER_SETTLE)
            if item.failover.passed
            else _Repro(item.plan, "failover", FAILOVER_SETTLE, args.stale_backup)
            for item in compared.failures
        ]
        return _shrink_failures(args, "failover-", repros)
    result = run_campaign(
        plans,
        jobs=args.jobs,
        progress=None if args.quiet else _print_outcome,
    )
    print(result.summary())
    return _shrink_failures(args, "", [_Repro(o.plan) for o in result.failures])


def _scenario_campaign(args: argparse.Namespace, systems: list[str]) -> int:
    """``campaign --scenario``: the scenario x system matrix."""
    if args.scenario == "all":
        scenarios = list(LIBRARY.values())
    else:
        scenarios = [get_scenario(name) for name in args.scenario.split(",")]
    cells = compile_matrix(scenarios, systems, args.seed)
    print(
        f"matrix: {len(scenarios)} scenarios x {len(systems)} systems = "
        f"{len(cells)} cells, seed={args.seed}, jobs={args.jobs}"
    )
    outcomes = run_matrix(
        cells, jobs=args.jobs, progress=None if args.quiet else _print_cell
    )
    print(render_tables(outcomes))
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        table_path = os.path.join(args.out_dir, "results.json")
        with open(table_path, "w", encoding="utf-8") as handle:
            json.dump(
                [outcome.row() for outcome in outcomes],
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
        print(f"result table written: {table_path}")
    failing = [_Repro(o.cell.plan, cell=o.cell) for o in outcomes if not o.passed]
    return _shrink_failures(args, "", failing)


def _cmd_replay(args: argparse.Namespace) -> int:
    raw = _read(args.file)
    if "topology" in raw:
        spec = ScenarioSpec.from_json_dict(raw)
        cells = [compile_cell(spec, system, args.seed) for system in _systems(args.systems)]
    else:
        repro = _load_repro(args.file, raw, args.failover, args.stale_backup)
        if repro.cell is None:
            outcome = repro(repro.plan)
            _print_outcome(outcome)
            return 1 if outcome.violations else 0
        cells = [repro.cell]
    outcomes = [run_cell(cell) for cell in cells]
    for outcome in outcomes:
        _print_cell(outcome)
        for violation in outcome.outcome.violations:
            print(f"  {violation}")
    return 1 if any(not outcome.passed for outcome in outcomes) else 0


def _cmd_shrink(args: argparse.Namespace) -> int:
    _shrink(_load_repro(args.file, _read(args.file), False, False), args.out, args.quiet)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="fault plans and scenarios: campaigns, replay and shrinking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lister = sub.add_parser("list", help="list the scenario library")
    lister.set_defaults(func=_cmd_list)

    gen = sub.add_parser(
        "gen", help="print or save one plan, scenario spec or compiled cell"
    )
    gen.add_argument("--system", choices=system_names())
    gen.add_argument(
        "--scenario",
        choices=scenario_names(),
        help="print its spec; with --system, its compiled cell",
    )
    gen.add_argument("--index", type=int, default=0, help="generated plan index")
    gen.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    gen.add_argument("--out", default="", help="write the plan or cell here")
    gen.set_defaults(func=_cmd_gen)

    camp = sub.add_parser(
        "campaign", help="run generated plans or a scenario matrix, shrink failures"
    )
    camp.add_argument(
        "--systems",
        default="all",
        help="comma-separated system names, or 'all' (default)",
    )
    camp.add_argument("--plans", type=int, default=25, help="plans per system")
    camp.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    camp.add_argument("--jobs", type=int, default=1)
    camp.add_argument(
        "--out-dir", default="", help="where tables and minimized repros go"
    )
    kind = camp.add_mutually_exclusive_group()
    kind.add_argument(
        "--scenario",
        default="",
        help="comma-separated library scenarios, or 'all': run that matrix",
    )
    kind.add_argument(
        "--failover",
        action="store_true",
        help="run every plan down both resilience paths and compare gaps",
    )
    camp.add_argument(
        "--stale-backup",
        action="store_true",
        help="build backups from the pre-fault epoch (oracle must object)",
    )
    camp.add_argument("--quiet", action="store_true")
    camp.set_defaults(func=_cmd_campaign)

    replay = sub.add_parser(
        "replay", help="re-run a saved plan, compiled cell or scenario spec"
    )
    replay.add_argument("file", help="JSON from 'gen', 'campaign' or 'shrink'")
    replay.add_argument(
        "--failover",
        action="store_true",
        help="replay a plan on the precomputed-backup failover path",
    )
    replay.add_argument(
        "--stale-backup",
        action="store_true",
        help="build the backup from the pre-fault epoch",
    )
    replay.add_argument(
        "--systems",
        default="all",
        help="systems to lower a scenario spec for (default: all)",
    )
    replay.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    replay.set_defaults(func=_cmd_replay)

    shrink = sub.add_parser("shrink", help="minimize a failing plan or cell")
    shrink.add_argument("file", help="plan or compiled-cell JSON")
    shrink.add_argument("--out", default="")
    shrink.add_argument("--quiet", action="store_true")
    shrink.set_defaults(func=_cmd_shrink)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
