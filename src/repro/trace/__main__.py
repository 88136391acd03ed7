"""Trace inspection CLI.

Usage::

    python -m repro.trace summarize RUN.jsonl       # per-layer/kind counts
    python -m repro.trace tree RUN.jsonl MID        # one multicast's tree
    python -m repro.trace lost RUN.jsonl            # lost hops per multicast
    python -m repro.trace export RUN.jsonl -o OUT   # Chrome/Perfetto form
    python -m repro.trace check RUN.jsonl           # schema validation
    python -m repro.trace --check RUN.jsonl         # ditto (CI shorthand)

``RUN.jsonl`` is what ``python -m repro.experiments ... --trace PATH``
(or ``python -m repro.churn.runner --trace PATH``) wrote.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from repro.trace import causal, export, schema


def _load(path: Path):
    try:
        return export.read_jsonl(path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot read trace {path}: {exc}")


def cmd_check(path: Path) -> int:
    """Validate a trace file against the event schema."""
    events = _load(path)
    problems = schema.validate_events(events)
    if problems:
        for problem in problems[:20]:
            print(f"INVALID  {problem}")
        if len(problems) > 20:
            print(f"... and {len(problems) - 20} more")
        return 1
    print(f"OK  {len(events)} events, schema valid")
    return 0


def cmd_summarize(path: Path) -> int:
    """Per-layer/kind counts plus a multicast delivery overview."""
    events = _load(path)
    counts = Counter(event.name for event in events)
    span = (events[0].time, events[-1].time) if events else (0.0, 0.0)
    print(f"{len(events)} events over t=[{span[0]:.3f}, {span[1]:.3f}]s")
    for name, count in sorted(counts.items()):
        print(f"  {name:<22s} {count}")
    mids = causal.multicast_ids(events)
    if mids:
        lost = causal.lost_multicasts(events)
        undelivered = sum(len(record.undelivered) for record in lost)
        print(
            f"multicasts: {len(mids)} originated, {len(lost)} with a loss, "
            f"{undelivered} undelivered members"
        )
        for record in lost[:10]:
            print(
                f"  mid={record.mid} source={record.source} "
                f"delivery={record.delivery_ratio():.4f} "
                f"undelivered={len(record.undelivered)}"
            )
    return 0


def cmd_tree(path: Path, mid: int) -> int:
    """Print one multicast's actual dissemination tree and its diff."""
    events = _load(path)
    try:
        record = causal.reconstruct(events, mid)
    except KeyError as exc:
        raise SystemExit(str(exc))
    print(
        f"mid={mid} system={record.system} source={record.source} "
        f"t={record.origin_time:.3f} members={len(record.members)} "
        f"delivery={record.delivery_ratio():.4f}"
    )
    children: dict[int, list[int]] = {}
    for parent, child in sorted(record.actual_edges()):
        children.setdefault(parent, []).append(child)

    def walk(ident: int, indent: int) -> None:
        depth = record.deliveries.get(ident, (None, 0, 0.0))[1]
        print(f"{'  ' * indent}{ident} (depth {depth})")
        for child in sorted(children.get(ident, [])):
            walk(child, indent + 1)

    walk(record.source, 0)
    missing, extra = record.tree_diff()
    if missing or extra:
        print(f"implicit-tree diff: {len(missing)} missing, {len(extra)} rerouted")
        for parent, child in sorted(missing)[:10]:
            print(f"  missing  {parent} -> {child}")
        for parent, child in sorted(extra)[:10]:
            print(f"  rerouted {parent} -> {child}")
    for member, hop in sorted(causal.lost_hops(record).items()):
        print(
            f"  LOST {member}: stopped at {hop.sender} -> {hop.receiver} "
            f"[{hop.event}] t={hop.time:.3f}"
        )
    return 0


def cmd_lost(path: Path) -> int:
    """Name the lost hop for every undelivered member of every multicast."""
    events = _load(path)
    lost = causal.lost_multicasts(events)
    if not lost:
        print("no lost multicasts: every eligible member was reached")
        return 0
    for record in lost:
        hops = causal.lost_hops(record)
        print(
            f"mid={record.mid} source={record.source} "
            f"delivery={record.delivery_ratio():.4f} "
            f"undelivered={sorted(record.undelivered)}"
        )
        for member, hop in sorted(hops.items()):
            print(
                f"  member {member}: propagation stopped at "
                f"{hop.sender} -> {hop.receiver} [{hop.event}] t={hop.time:.3f}"
            )
    return 0


def cmd_export(path: Path, out: Path) -> int:
    """Write the Chrome/Perfetto ``trace_event`` form."""
    events = _load(path)
    count = export.write_chrome_trace(events, out)
    print(f"wrote {count} events to {out} (open in https://ui.perfetto.dev)")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # CI shorthand: `python -m repro.trace --check FILE`
    if argv and argv[0] == "--check":
        argv = ["check"] + argv[1:]
    parser = argparse.ArgumentParser(
        prog="repro-trace", description="Inspect structured trace files."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("summarize", "lost", "check"):
        command = sub.add_parser(name)
        command.add_argument("path", type=Path)
    tree = sub.add_parser("tree")
    tree.add_argument("path", type=Path)
    tree.add_argument("mid", type=int)
    export_cmd = sub.add_parser("export")
    export_cmd.add_argument("path", type=Path)
    export_cmd.add_argument(
        "-o", "--out", type=Path, default=None, help="output (default: <path>.chrome.json)"
    )
    args = parser.parse_args(argv)

    if args.command == "check":
        return cmd_check(args.path)
    if args.command == "summarize":
        return cmd_summarize(args.path)
    if args.command == "tree":
        return cmd_tree(args.path, args.mid)
    if args.command == "lost":
        return cmd_lost(args.path)
    if args.command == "export":
        out = args.out if args.out is not None else args.path.with_suffix(".chrome.json")
        return cmd_export(args.path, out)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
