"""Fault-injection CLI: generate, campaign, replay, shrink.

::

    # one deterministic plan, printed or saved
    python -m repro.faults gen --system cam-chord --index 3 --out plan.json

    # a campaign over every registered system; failing plans are
    # shrunk and their minimized repros written next to the results
    python -m repro.faults campaign --plans 25 --jobs 4 --out-dir faults_out

    # re-run one saved scenario; prints its violations and exits 1 if
    # any oracle fires — byte-identical output on every invocation
    python -m repro.faults replay faults_out/min-cam-chord-3.json

    # minimize a failing scenario by hand
    python -m repro.faults shrink plan.json --out minimal.json

    # run every plan down BOTH resilience paths (quiesce-then-repair
    # and precomputed-backup failover) under identical seeds and
    # compare per-member delivery-gap distributions
    python -m repro.faults campaign --failover --plans 8 --jobs 2

    # replay one scenario on the failover path; --stale-backup builds
    # the backup from the pre-fault epoch (the oracle must catch it)
    python -m repro.faults replay plan.json --failover --stale-backup

Every run builds its live peers from the plan's registry descriptor.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.experiments.common import SEED_HELP
from repro.faults.campaign import (
    generate_campaign,
    run_campaign,
    run_comparison_campaign,
    run_plan,
)
from repro.faults.plan import generate_plan, load_plan, save_plan
from repro.faults.shrink import shrink_plan
from repro.systems import system_names


def _print_outcome(outcome) -> None:
    print(outcome.summary())
    for violation in outcome.violations:
        print(f"  {violation}")


def _print_comparison(comparison) -> None:
    for outcome in (comparison.repair, comparison.failover):
        print(f"[{outcome.mode}] {outcome.summary()}")
        for violation in outcome.violations:
            print(f"  {violation}")


def _cmd_gen(args: argparse.Namespace) -> int:
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
    systems = args.systems.split(",") if args.systems else list(system_names())
    plans = generate_campaign(systems, args.plans, args.seed)
    print(
        f"campaign: {len(plans)} plans "
        f"({args.plans} x {len(systems)} systems), seed={args.seed}, "
        f"jobs={args.jobs}"
    )
    if args.failover:
        return _run_failover_campaign(args, plans)
    result = run_campaign(
        plans,
        jobs=args.jobs,
        progress=None if args.quiet else _print_outcome,
    )
    print(result.summary())

    failures = result.failures
    if failures and args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for index, outcome in enumerate(failures):
            minimized, final = shrink_plan(
                outcome.plan,
                runner=run_plan,
                log=None if args.quiet else print,
            )
            path = os.path.join(
                args.out_dir, f"min-{minimized.system}-{index}.json"
            )
            save_plan(
                minimized,
                path,
                extra={
                    "violations": [str(v) for v in final.violations],
                    "original": outcome.plan.to_json_dict(),
                },
            )
            print(f"minimized repro written: {path} ({minimized.describe()})")
    return 1 if failures else 0


def _run_failover_campaign(args: argparse.Namespace, plans) -> int:
    """``campaign --failover``: both paths per plan, identical seeds.

    Failing comparisons are shrunk against whichever path failed — the
    failover runner when the delivery-gap (or any failover-path) oracle
    fired, the plain repair runner otherwise — so the minimized repro
    replays with the matching ``replay`` flags.
    """
    result = run_comparison_campaign(
        plans,
        jobs=args.jobs,
        stale_backup=args.stale_backup,
        progress=None if args.quiet else _print_comparison,
    )
    print(result.summary())

    failures = result.failures
    if failures and args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for index, comparison in enumerate(failures):
            if not comparison.failover.passed:
                def runner(p):
                    return run_plan(
                        p, mode="failover", stale_backup=args.stale_backup
                    )
            else:
                runner = run_plan
            minimized, final = shrink_plan(
                comparison.plan,
                runner=runner,
                log=None if args.quiet else print,
            )
            path = os.path.join(
                args.out_dir, f"min-failover-{minimized.system}-{index}.json"
            )
            save_plan(
                minimized,
                path,
                extra={
                    "mode": final.mode,
                    "violations": [str(v) for v in final.violations],
                    "original": comparison.plan.to_json_dict(),
                },
            )
            print(f"minimized repro written: {path} ({minimized.describe()})")
    return 1 if failures else 0


def _cmd_replay(args: argparse.Namespace) -> int:
    plan = load_plan(args.plan)
    outcome = run_plan(
        plan,
        mode="failover" if args.failover else "repair",
        stale_backup=args.stale_backup,
    )
    _print_outcome(outcome)
    return 1 if outcome.violations else 0


def _cmd_shrink(args: argparse.Namespace) -> int:
    plan = load_plan(args.plan)
    minimized, final = shrink_plan(
        plan,
        runner=run_plan,
        log=None if args.quiet else print,
    )
    if args.out:
        save_plan(
            minimized,
            args.out,
            extra={"violations": [str(v) for v in final.violations]},
        )
        print(f"wrote {args.out}: {minimized.describe()}")
    else:
        _print_outcome(final)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="fault-injection campaigns, replay and shrinking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate one deterministic plan")
    gen.add_argument("--system", required=True, choices=system_names())
    gen.add_argument("--index", type=int, default=0)
    gen.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    gen.add_argument("--out", default="")
    gen.set_defaults(func=_cmd_gen)

    camp = sub.add_parser("campaign", help="run a plan matrix, shrink failures")
    camp.add_argument(
        "--systems",
        default="",
        help="comma-separated system names (default: all registered)",
    )
    camp.add_argument("--plans", type=int, default=25, help="plans per system")
    camp.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    camp.add_argument("--jobs", type=int, default=1)
    camp.add_argument("--out-dir", default="", help="where minimized repros go")
    camp.add_argument(
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

    replay = sub.add_parser("replay", help="re-run one saved scenario")
    replay.add_argument("plan", help="plan JSON written by save_plan")
    replay.add_argument(
        "--failover",
        action="store_true",
        help="replay on the precomputed-backup failover path",
    )
    replay.add_argument(
        "--stale-backup",
        action="store_true",
        help="build the backup from the pre-fault epoch",
    )
    replay.set_defaults(func=_cmd_replay)

    shrink = sub.add_parser("shrink", help="minimize a failing scenario")
    shrink.add_argument("plan", help="plan JSON written by save_plan")
    shrink.add_argument("--out", default="")
    shrink.add_argument("--quiet", action="store_true")
    shrink.set_defaults(func=_cmd_shrink)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
