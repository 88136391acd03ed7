"""Command-line entry point: regenerate any or all figures.

Usage::

    python -m repro.experiments [--scale quick|default|paper] [--seed N] \
        [--jobs N] [fig6 fig7 fig8 fig9 fig10 fig11 extA ... extI | all]

Each figure prints its series as aligned (x, y) tables — the rows the
paper plots — plus shape notes.  ``--out DIR`` additionally writes one
``<figure>.txt`` per result.  ``--jobs N`` fans figure runs,
replication seeds and per-figure sweep points out over N worker
processes; the tables are bit-for-bit identical to the serial run.
The runner measures no host time: to profile a figure, run this
module under the standard library's profiler (EXPERIMENTS.md shows how).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path

from repro.experiments import registry
from repro.experiments.common import resolve_scale
from repro.experiments.parallel import run_experiments
from repro.trace.tracer import TRACER


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the figures of the CAM-Chord/CAM-Koorde paper.",
    )
    parser.add_argument(
        "figures",
        nargs="*",
        default=["all"],
        help=f"which experiments to run: {', '.join(registry.REGISTRY)} or 'all'",
    )
    parser.add_argument("--scale", default=None, help="bench | quick | default | paper")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=None, help="directory for .txt dumps")
    parser.add_argument(
        "--plot", action="store_true", help="also draw ASCII charts of each figure"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for figure/seed/sweep-point fan-out (default: serial)",
    )
    parser.add_argument(
        "--replicate",
        type=int,
        default=1,
        metavar="N",
        help="run each experiment over N seeds and report mean ± sd",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help="record structured trace events and write them as JSONL to PATH"
        " (inspect with: python -m repro.trace summarize PATH)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the experiment names with descriptions and exit",
    )
    args = parser.parse_args(argv)
    if args.list:
        width = max(len(name) for name in registry.REGISTRY)
        for info in registry.REGISTRY.values():
            print(f"{info.name:<{width}}  {info.description}")
        return 0
    if args.replicate < 1:
        parser.error("--replicate must be >= 1")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    names = list(registry.REGISTRY) if "all" in args.figures else args.figures
    unknown = [name for name in names if name not in registry.REGISTRY]
    if unknown:
        parser.error(
            f"unknown experiments: {unknown}; choose from {list(registry.REGISTRY)}"
        )

    scale = resolve_scale(args.scale)
    print(f"# scale={scale.name} n={scale.group_size} sources={scale.sources}")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    # The perf counters are process-global: without this, a second
    # main() call in the same interpreter (tests, notebooks) would start
    # mid-count and any absolute reading would misattribute earlier
    # work.  The footer itself is delta-based per task, so this is
    # belt-and-braces for everything *else* that reads the counters.
    from repro import perf

    perf.reset()

    seeds = [args.seed + offset for offset in range(args.replicate)]
    # --trace records for the length of the runs only and leaves the
    # process-global tracer as it found it (each run keeps its events)
    with TRACER.capture() if args.trace is not None else nullcontext():
        runs = run_experiments(names, scale, seeds=seeds, jobs=args.jobs)
    by_name: dict[str, list] = {}
    for run in runs:
        by_name.setdefault(run.name, []).append(run)

    for name in names:
        figure_runs = by_name[name]
        if args.replicate > 1:
            from repro.experiments.replication import aggregate

            rendered = aggregate([run.result for run in figure_runs]).render()
        else:
            result = figure_runs[0].result
            rendered = result.render()
            if args.plot:
                from repro.viz.ascii_chart import render_figure

                rendered += "\n" + render_figure(result)
        print(rendered)
        counters = figure_runs[0].counters
        for run in figure_runs[1:]:
            counters = counters + run.counters
        print(f"# {name} done: {counters.summary()}\n")
        if args.out is not None:
            (args.out / f"{name}.txt").write_text(rendered + "\n")

    print(
        f"# total: {len(names)} experiment(s) x {args.replicate} seed(s) "
        f"(jobs={args.jobs})"
    )

    if args.trace is not None:
        from repro.trace.export import write_jsonl
        from repro.trace.tracer import resequence

        # FigureRun.events slices are in deterministic task-plan order,
        # so serial and --jobs N runs write identical files.
        events = resequence(
            event for run in runs for event in run.events
        )
        write_jsonl(events, args.trace)
        print(f"# trace: {len(events)} events -> {args.trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
