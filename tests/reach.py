"""Reach probe: which functions under ``src/repro`` does no product run call?

::

    python -m tests.reach                                    # list them
    python -m tests.reach --check tests/golden/test_only.txt # gate (exit 1)

The probe runs the product entry points, each in its own subprocess
under a wrapper that installs ``sys.setprofile`` and
``threading.setprofile`` before the entry point is imported:

- the experiment runner: all 20 experiments at ``--scale bench``, then
  ``--list``, ``--jobs 2``, ``--replicate``, ``--plot`` and ``--trace``
  (serial and under ``--jobs 2``);
- ``repro.churn.runner`` on a lossy network with ``--trace``, and every
  ``repro.trace`` command on that (small) trace;
- ``repro.faults`` ``gen``, ``campaign`` (repair on a pool, and
  ``--failover`` on a seed whose failing plans it shrinks), ``replay``
  (also ``--failover --stale-backup``) and ``shrink`` of a failing
  plan; then, for the scenario library, ``list``, ``gen --scenario``
  (a spec, and with ``--system`` a compiled cell), ``campaign
  --scenario all`` and ``replay`` of the saved spec and cell;
- the six ``examples/``;
- ``python -m bench _child`` once per workload (and once traced): the
  benchmark driver runs its reps in such a child, so wrapping the
  driver itself would record nothing.

Each process records the code objects it entered whose file lies under
``src/repro`` and writes them out at exit; a pool worker leaves through
``os._exit``, so it writes them from a ``multiprocessing`` finalizer
registered after the fork.  The union is diffed against an AST walk of
every ``def`` (a decorated function starts at its first decorator, as
its code object does; ``@abstractmethod`` and ``Protocol`` members are
declarations, not code, and are skipped).

``--check FILE`` reads the allowlist of functions that no product run
calls but that stay: one ``module:qualname  tag  reason`` per line,
where the tag is ``oracle`` (a test's reference), ``failure-only``
(runs only when something fails), ``bench`` (only ``bench/`` calls it)
or ``accessor`` (a small reader of public state, at most 15 lines).
It exits 1 on an uncalled function the file does not list, on a listed
function that some product run calls, and on a listed name that no
longer exists.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

TAGS = ("oracle", "failure-only", "bench", "accessor")
ACCESSOR_MAX_LINES = 15
BENCH_WORKLOADS = (
    "tree_paper",
    "plane_steady",
    "plane_churn",
    "failover_campaign",
    "backup_install",
)


# -- what exists: an AST walk of the package ---------------------------------


@dataclass(frozen=True)
class Function:
    module: str
    qualname: str
    path: str
    line: int  # first decorator's line, as in ``co_firstlineno``
    span: int  # source lines from that line to the end of the body

    @property
    def name(self) -> str:
        return f"{self.module}:{self.qualname}"


def _decorator_names(node: ast.AST) -> set[str]:
    names = set()
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if isinstance(decorator, ast.Attribute):
            names.add(decorator.attr)
        elif isinstance(decorator, ast.Name):
            names.add(decorator.id)
    return names


def _is_protocol(node: ast.ClassDef) -> bool:
    return any(
        (isinstance(base, ast.Name) and base.id == "Protocol")
        or (isinstance(base, ast.Attribute) and base.attr == "Protocol")
        for base in node.bases
    )


def package_functions(package: Path = PACKAGE) -> list[Function]:
    """Every ``def`` under ``package`` that compiles to a callable body."""
    found: list[Function] = []
    for path in sorted(package.rglob("*.py")):
        module = ".".join(path.relative_to(package.parent).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        tree = ast.parse(path.read_text(), str(path))

        def walk(node: ast.AST, prefix: str, in_protocol: bool) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.", _is_protocol(child))
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}{child.name}"
                    skipped = in_protocol or (
                        _decorator_names(child) & {"abstractmethod", "overload"}
                    )
                    if not skipped:
                        first = min(
                            [child.lineno]
                            + [d.lineno for d in child.decorator_list]
                        )
                        found.append(
                            Function(
                                module,
                                qualname,
                                str(path),
                                first,
                                child.end_lineno - first + 1,
                            )
                        )
                    walk(child, f"{qualname}.<locals>.", False)
                else:
                    walk(child, prefix, in_protocol)

        walk(tree, "", False)
    return found


# -- what runs: the profiled subprocess ---------------------------------------


def _record(out_dir: str, argv: list[str]) -> None:
    """Run ``argv`` (``-m module args…`` or ``script args…``) under the profiler."""
    import atexit
    import multiprocessing.util
    import runpy
    import threading

    prefix = str(PACKAGE) + os.sep
    seen: set = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    def dump() -> None:
        sys.setprofile(None)
        lines = {
            f"{code.co_filename}\t{code.co_firstlineno}\n"
            for code in list(seen)
            if os.path.realpath(code.co_filename).startswith(prefix)
        }
        with open(os.path.join(out_dir, f"{os.getpid()}.txt"), "a") as handle:
            handle.writelines(sorted(lines))

    def after_fork(_owner) -> None:
        # a pool worker ends in os._exit, which skips atexit, but
        # multiprocessing runs its finalizers first
        sys.setprofile(profile)
        multiprocessing.util.Finalize(None, dump, exitpriority=0)

    multiprocessing.util.register_after_fork(_record, after_fork)
    atexit.register(dump)
    threading.setprofile(profile)
    sys.setprofile(profile)
    if argv[0] == "-m":
        sys.argv = [argv[1], *argv[2:]]
        runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
    else:
        sys.argv = list(argv)
        runpy.run_path(argv[0], run_name="__main__")


@dataclass(frozen=True)
class Step:
    label: str
    argv: Callable[[Path], list[str]]
    ok_codes: tuple[int, ...] = (0,)
    stdout: str = ""  # file under the scratch directory that keeps the output


def _module(*args: str) -> Callable[[Path], list[str]]:
    return lambda tmp: ["-m", *(a.format(tmp=tmp) for a in args)]


def _first_lost_mid(tmp: Path) -> str:
    found = re.search(r"mid=(\d+)", (tmp / "lost.out").read_text())
    if found is None:
        raise SystemExit("reach: the lossy churn trace lost no multicast")
    return found.group(1)


def _failing_plan(tmp: Path) -> str:
    plans = sorted((tmp / "failover").glob("min-*.json"))
    if not plans:
        raise SystemExit("reach: the fault campaign shrank no failing plan")
    return str(plans[0])


def matrix() -> list[Step]:
    """The product entry points, in the order they run."""
    steps = [
        Step("experiments all", _module(
            "repro.experiments", "all", "--scale", "bench", "--out", "{tmp}/exp")),
        Step("experiments --list", _module("repro.experiments", "--list")),
        Step("experiments --jobs 2", _module(
            "repro.experiments", "fig6", "extC", "--scale", "bench", "--jobs", "2")),
        Step("experiments --replicate", _module(
            "repro.experiments", "fig7", "extA", "extN", "--scale", "bench",
            "--replicate", "2")),
        Step("experiments --plot", _module(
            "repro.experiments", "fig6", "fig8", "fig9", "extC", "--scale", "bench",
            "--plot")),
        Step("experiments --trace", _module(
            "repro.experiments", "extA", "--scale", "bench", "--trace",
            "{tmp}/extA.jsonl")),
        Step("experiments --trace --jobs 2", _module(
            "repro.experiments", "fig10", "--scale", "bench", "--jobs", "2", "--trace",
            "{tmp}/fig10.jsonl")),
        Step("churn --trace", _module(
            "repro.churn.runner", "--loss", "0.05", "--trace", "{tmp}/churn.jsonl")),
        Step("churn koorde", _module(
            "repro.churn.runner", "--system", "koorde", "--duration", "20")),
        Step("trace check", _module("repro.trace", "--check", "{tmp}/churn.jsonl")),
        Step("trace summarize", _module("repro.trace", "summarize", "{tmp}/churn.jsonl")),
        Step("trace lost", _module("repro.trace", "lost", "{tmp}/churn.jsonl"),
             stdout="lost.out"),
        Step("trace tree", lambda tmp: [
            "-m", "repro.trace", "tree", f"{tmp}/churn.jsonl", _first_lost_mid(tmp)]),
        Step("trace export", _module(
            "repro.trace", "export", "{tmp}/churn.jsonl", "-o", "{tmp}/churn.chrome.json")),
        Step("faults gen", _module(
            "repro.faults", "gen", "--system", "cam-chord", "--index", "3")),
        Step("faults gen --out", _module(
            "repro.faults", "gen", "--system", "koorde", "--out", "{tmp}/plan.json")),
        Step("faults campaign", _module(
            "repro.faults", "campaign", "--plans", "4", "--seed", "0", "--jobs", "2",
            "--out-dir", "{tmp}/faults")),
        # seed 4 holds two plans whose ring never repairs: shrunk here
        Step("faults campaign --failover", _module(
            "repro.faults", "campaign", "--failover", "--plans", "10", "--seed", "4",
            "--out-dir", "{tmp}/failover"), ok_codes=(1,)),
        Step("faults campaign --stale-backup", _module(
            "repro.faults", "campaign", "--failover", "--stale-backup",
            "--systems", "cam-chord", "--plans", "2", "--seed", "0", "--quiet"),
            ok_codes=(0, 1)),
        Step("faults replay", _module("repro.faults", "replay", "{tmp}/plan.json")),
        Step("faults replay --failover", _module(
            "repro.faults", "replay", "{tmp}/plan.json", "--failover", "--stale-backup"),
            ok_codes=(0, 1)),
        Step("faults shrink", lambda tmp: [
            "-m", "repro.faults", "shrink", _failing_plan(tmp),
            "--out", f"{tmp}/shrunk.json"]),
        Step("faults replay failing", lambda tmp: [
            "-m", "repro.faults", "replay", _failing_plan(tmp)], ok_codes=(1,)),
        Step("faults list", _module("repro.faults", "list")),
        Step("faults gen --scenario", _module(
            "repro.faults", "gen", "--scenario", "flash-crowd"), stdout="spec.json"),
        Step("faults gen --scenario --system", _module(
            "repro.faults", "gen", "--scenario", "regional-partition",
            "--system", "cam-koorde", "--out", "{tmp}/cell.json")),
        Step("faults campaign --scenario", _module(
            "repro.faults", "campaign", "--scenario", "all", "--jobs", "2",
            "--out-dir", "{tmp}/scen"), ok_codes=(0, 1)),
        Step("faults replay spec", _module(
            "repro.faults", "replay", "{tmp}/spec.json", "--systems", "chord")),
        Step("faults replay cell", _module(
            "repro.faults", "replay", "{tmp}/cell.json"), ok_codes=(0, 1)),
    ]
    steps += [
        Step(f"example {path.stem}", lambda tmp, path=path: [str(path)])
        for path in sorted((ROOT / "examples").glob("*.py"))
    ]
    child = ("bench", "_child", "--seed", "0", "--seconds", "1", "--min-reps", "1")
    steps += [
        Step(f"bench {workload}", _module(*child, "--workload", workload, "--trace", "0"))
        for workload in BENCH_WORKLOADS
    ]
    steps.append(Step("bench traced", _module(
        *child, "--workload", "plane_steady", "--trace", "1")))
    return steps


def run_matrix(tmp: Path, steps: Sequence[Step], log=print) -> set[tuple[str, int]]:
    """Run every step under the profiler; the ``(file, first line)`` pairs hit."""
    records = tmp / "records"
    records.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    for step in steps:
        argv = step.argv(tmp)
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-m", "tests.reach", "_record", str(records), *argv],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        if step.stdout:
            (tmp / step.stdout).write_text(done.stdout)
        elapsed = time.monotonic() - started
        log(f"# {step.label}: exit {done.returncode}, {elapsed:.1f}s")
        if done.returncode not in step.ok_codes:
            raise SystemExit(
                f"reach: step {step.label!r} exited {done.returncode}:\n"
                f"{done.stderr[-4000:]}"
            )
    hit: set[tuple[str, int]] = set()
    for record in records.glob("*.txt"):
        for line in record.read_text().splitlines():
            path, _, first = line.partition("\t")
            hit.add((os.path.realpath(path), int(first)))
    return hit


# -- the allowlist -------------------------------------------------------------


def read_allowlist(path: Path) -> dict[str, tuple[str, str]]:
    """``{module:qualname: (tag, reason)}`` from ``path``."""
    entries: dict[str, tuple[str, str]] = {}
    for number, raw in enumerate(path.read_text().splitlines(), 1):
        line = "" if raw.lstrip().startswith("#") else raw.strip()
        if not line:
            continue
        name, tag, *reason = line.split(None, 2)
        if tag not in TAGS or not reason:
            raise SystemExit(
                f"{path}:{number}: want 'module:qualname  tag  reason', tag one of {TAGS}"
            )
        entries[name] = (tag, reason[0])
    return entries


def check(
    functions: Sequence[Function], uncalled: Sequence[Function], allowed: dict
) -> list[str]:
    """Every way the uncalled set and the allowlist disagree."""
    by_name = {function.name: function for function in functions}
    uncalled_names = {function.name for function in uncalled}
    problems = [
        f"uncalled by any product run and not listed: {name} ({by_name[name].span} lines)"
        for name in sorted(uncalled_names - set(allowed))
    ]
    for name, (tag, _reason) in sorted(allowed.items()):
        if name not in by_name:
            problems.append(f"listed but no such function: {name}")
        elif name not in uncalled_names:
            problems.append(f"listed but a product run calls it: {name}")
        elif tag == "accessor" and by_name[name].span > ACCESSOR_MAX_LINES:
            problems.append(
                f"listed as an accessor but {by_name[name].span} lines long: {name}"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["_record"]:
        _record(argv[1], argv[2:])
        return 0
    parser = argparse.ArgumentParser(
        prog="python -m tests.reach", description=__doc__.split("\n")[0]
    )
    parser.add_argument(
        "--check", type=Path, metavar="FILE", help="allowlist to gate against"
    )
    args = parser.parse_args(argv)

    started = time.monotonic()
    functions = package_functions()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        hit = run_matrix(Path(tmp), matrix(), log=lambda line: print(line, file=sys.stderr))
    uncalled = [
        function
        for function in functions
        if (os.path.realpath(function.path), function.line) not in hit
    ]
    lines = sum(function.span for function in uncalled)
    print(
        f"# {len(uncalled)} of {len(functions)} functions under src/repro "
        f"({lines} lines) ran in no product entry point; "
        f"probe wall {time.monotonic() - started:.0f}s",
        file=sys.stderr,
    )
    if args.check is None:
        for function in uncalled:
            print(f"{function.name}  ({function.span} lines)")
        return 0
    problems = check(functions, uncalled, read_allowlist(args.check))
    for problem in problems:
        print(problem)
    if not problems:
        print(f"reach: {len(uncalled)} uncalled functions, each listed in {args.check}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
