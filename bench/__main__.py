"""Command line of the benchmark.

``python -m bench --workload W --seed N --seconds S --trace 0|1``
    one workload, one JSON object on the last stdout line (the form
    ``BENCHMARK.json`` names; run from the repo root)
``python -m bench run [--seed S] [--trace] [--smoke] [--out FILE]``
    all five workloads, every metric printed by name with its unit
``python -m bench compare A.json [B.json]``
    A against B (default: the committed ``bench/baseline.json``)
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench import catalog, compare, harness, workloads


def _workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", required=True, choices=list(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)


def _child(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="bench _child")
    _workload_args(parser)
    parser.add_argument("--min-reps", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    result = harness.measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, args.min_reps
    )
    print(json.dumps(result))
    return 0


def _driver(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="bench")
    _workload_args(parser)
    args = parser.parse_args(argv)
    harness.use_repo_sources()
    traced = bool(args.trace)
    seed = workloads.driver_seed(args.workload, args.seed)
    result = harness.run_workload(args.workload, seed, traced, False, args.seconds)
    print(harness.driver_line(result, traced))
    return 0


def _run(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="bench run")
    parser.add_argument("--seed", type=int, default=0, help="0 = default, 1 = held out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true", help="toy sizes, one rep")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    harness.use_repo_sources()
    report = harness.run_all(args.seed, args.trace, args.smoke)
    print(harness.render(report))
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if all(map(harness.correct, report["workloads"].values())) else 1


def _compare(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="bench compare")
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path, nargs="?", default=compare.BASELINE)
    args = parser.parse_args(argv)
    rows = compare.compare_reports(
        json.loads(args.a.read_text()), json.loads(args.b.read_text())
    )
    print(compare.render(rows, str(args.a), str(args.b)))
    return 1 if compare.regressed(rows) else 0


COMMANDS = {"run": _run, "compare": _compare, "_child": _child}


def main(argv: list[str]) -> int:
    if argv and argv[0] in COMMANDS:
        return COMMANDS[argv[0]](argv[1:])
    return _driver(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
