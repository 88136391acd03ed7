"""Scenario matrix CLI: list, show, compile, run, replay.

::

    # what's in the library
    python -m repro.scenarios list

    # one scenario as its single-file JSON form
    python -m repro.scenarios show flash-crowd > flash-crowd.json

    # lower one cell to its replayable compiled form
    python -m repro.scenarios compile --scenario flash-crowd \
        --system cam-chord --out cell.json

    # the full matrix: 5 scenarios x 4 systems, two workers, tables
    # and minimized failing cells written as artifacts
    python -m repro.scenarios run --scenario all --systems all \
        --jobs 2 --seed 0 --out-dir scenarios_out

    # replay either artifact kind: a scenario spec (re-lowered) or a
    # compiled cell (run verbatim); exits 1 if any oracle fires
    python -m repro.scenarios replay flash-crowd.json --systems cam-chord
    python -m repro.scenarios replay cell.json

Seed handling matches every other CLI in the repo: one ``--seed``
base value, per-cell streams derived by string-seeding ``Random`` with
``"seed:scenario:<name>:..."`` (SHA-512 underneath), so ``--jobs N``
output is byte-identical to the serial run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.experiments.common import SEED_HELP
from repro.scenarios.compile import (
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
    shrink_cell,
)
from repro.scenarios.spec import ScenarioSpec
from repro.systems import system_names


def _resolve_scenarios(arg: str) -> list[ScenarioSpec]:
    if arg in ("all", ""):
        return [LIBRARY[name] for name in scenario_names()]
    return [get_scenario(name) for name in arg.split(",")]


def _resolve_systems(arg: str) -> list[str]:
    if arg in ("all", ""):
        return list(system_names())
    valid = set(system_names())
    names = arg.split(",")
    for name in names:
        if name not in valid:
            raise SystemExit(f"unknown system {name!r}; choose from {sorted(valid)}")
    return names


def _cmd_list(args: argparse.Namespace) -> int:
    for name in scenario_names():
        spec = LIBRARY[name]
        shape = (
            f"n={spec.topology.size} "
            f"caps={spec.topology.capacities} "
            f"churn={spec.workload.churn.kind} "
            f"faults={len(spec.faults.events)}"
        )
        print(f"{name:<24} {shape:<44} {spec.description}")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    spec = get_scenario(args.scenario)
    print(json.dumps(spec.to_json_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    spec = get_scenario(args.scenario)
    cell = compile_cell(spec, args.system, args.seed)
    if args.out:
        save_cell(cell, args.out)
        print(f"wrote {args.out}: {cell.plan.describe()}")
    else:
        print(json.dumps(cell.to_json_dict(), indent=2, sort_keys=True))
    return 0


def _print_cell(outcome) -> None:
    verdict = "ok" if outcome.passed else f"{len(outcome.outcome.violations)} violation(s)"
    print(
        f"{outcome.cell.scenario} x {outcome.cell.system}: {verdict} "
        f"({outcome.outcome.plan.describe()})"
    )


def _cmd_run(args: argparse.Namespace) -> int:
    scenarios = _resolve_scenarios(args.scenario)
    systems = _resolve_systems(args.systems)
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

    failures = [outcome for outcome in outcomes if not outcome.passed]
    if failures and not args.no_shrink:
        for index, failing in enumerate(failures):
            minimized, final = shrink_cell(
                failing, log=None if args.quiet else print
            )
            if args.out_dir:
                path = os.path.join(
                    args.out_dir,
                    f"min-{minimized.scenario}-{minimized.system}-{index}.json",
                )
                save_cell(minimized, path)
                print(
                    f"minimized repro written: {path} "
                    f"({minimized.plan.describe()})"
                )
            else:
                _print_cell(final)
    return 1 if failures else 0


def _cmd_replay(args: argparse.Namespace) -> int:
    with open(args.artifact, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    if "plan" in raw and "members" in raw:
        outcomes = [run_cell(CompiledCell.from_json_dict(raw))]
    elif "topology" in raw:
        spec = ScenarioSpec.from_json_dict(raw)
        systems = _resolve_systems(args.systems)
        outcomes = [
            run_cell(compile_cell(spec, system, args.seed)) for system in systems
        ]
    else:
        raise SystemExit(
            f"{args.artifact}: neither a scenario spec (topology/workload/"
            f"faults) nor a compiled cell (plan/members)"
        )
    for outcome in outcomes:
        _print_cell(outcome)
        for violation in outcome.outcome.violations:
            print(f"  {violation}")
    return 1 if any(not outcome.passed for outcome in outcomes) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="declarative workload x fault x topology scenario matrix",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lister = sub.add_parser("list", help="list the scenario library")
    lister.set_defaults(func=_cmd_list)

    show = sub.add_parser("show", help="print one scenario's JSON spec")
    show.add_argument("scenario", choices=scenario_names())
    show.set_defaults(func=_cmd_show)

    comp = sub.add_parser("compile", help="lower one cell to replayable JSON")
    comp.add_argument("--scenario", required=True, choices=scenario_names())
    comp.add_argument("--system", required=True, choices=system_names())
    comp.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    comp.add_argument("--out", default="")
    comp.set_defaults(func=_cmd_compile)

    run = sub.add_parser("run", help="run a scenario x system matrix")
    run.add_argument(
        "--scenario",
        default="all",
        help="comma-separated scenario names, or 'all' (default)",
    )
    run.add_argument(
        "--systems",
        default="all",
        help="comma-separated system names, or 'all' (default)",
    )
    run.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    run.add_argument("--jobs", type=int, default=1)
    run.add_argument("--out-dir", default="", help="where tables and repros go")
    run.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip ddmin minimization of failing cells",
    )
    run.add_argument("--quiet", action="store_true")
    run.set_defaults(func=_cmd_run)

    replay = sub.add_parser(
        "replay", help="re-run a saved scenario spec or compiled cell"
    )
    replay.add_argument("artifact", help="JSON from 'show', 'compile' or 'run'")
    replay.add_argument(
        "--systems",
        default="all",
        help="systems to lower a scenario spec for (ignored for cells)",
    )
    replay.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    replay.set_defaults(func=_cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
