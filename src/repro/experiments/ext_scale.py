"""Extension L: scale sweep over decades of group size.

Times the three hot stages of the structural pipeline — columnar
snapshot build, streaming tree construction, fused array metrics — for
all four registered systems at n = 10^3, 10^4, 10^5 (and, opt-in,
10^6), recording wall time and peak RSS per decade.  The paper
evaluates at n = 100,000; this experiment is the evidence that the
flat-array representation actually scales past it with ~linear memory.

Two execution modes:

* **figure mode** (``python -m repro.experiments extL``): a normal
  sweepable figure module — one sweep point per (decade, system).
  All decades share this process, so the peak-RSS note reports the
  process high-water mark only (it never goes down).
* **benchmark mode** (``python -m repro.experiments.ext_scale``): each
  decade is measured in its own subprocess (the module re-execs itself
  with the hidden ``--measure-one`` flag), so per-decade peak RSS is
  exact.  The CLI asserts an optional absolute ceiling and that memory
  grows ~linearly across decades, and writes a JSON report for CI.

The decade ladder tops out at 10^5 by default; the million-member tier
is opt-in via the CLI's ``--max-n 1000000`` because it needs a few GB
of RSS and minutes of wall time.

Identifier-space width grows with n to keep the member density n/N
near the paper's 100,000 / 2**19 ~ 0.19 (see
:data:`repro.experiments.common.SCALES`): occupancy, and with it tree
shape, must stay comparable across decades or the sweep would measure
a changing workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from random import Random
from typing import Sequence

from repro import perf
from repro.capacity.model import CapacityModel
from repro.experiments.common import ExperimentScale, FigureResult, Series, run_sweep
from repro.idspace.ring import IdentifierSpace
from repro.metrics.throughput import sustainable_throughput
from repro.multicast.session import SystemKind
from repro.overlay.base import build_snapshot
from repro.systems import all_descriptors, resolve

#: decade ladder per scale (figure mode); CI uses bench, the paper
#: point is 10^5.  The 10^6 tier never enters a ladder implicitly.
DECADES_BY_SCALE = {
    "bench": (1_000,),
    "quick": (1_000, 10_000),
    "default": (1_000, 10_000, 100_000),
    "paper": (1_000, 10_000, 100_000),
}

#: the full opt-in ladder the CLI selects from with --max-n
FULL_LADDER = (1_000, 10_000, 100_000, 1_000_000)

#: the Figure 6 bandwidth setup: uniform [400, 1000] kbps, p = 100
LOW_KBPS = 400.0
HIGH_KBPS = 1000.0
PER_LINK_KBPS = 100.0

#: fanout knob for the uniform baselines (Chord base / Koorde degree)
BASELINE_FANOUT = 16

#: allowed super-linearity of peak RSS between adjacent decades: the
#: measured ratio may exceed the size ratio by at most this factor
#: (interpreter noise, allocator slack, constant overheads at small n)
LINEARITY_SLACK = 1.5


def space_bits_for(count: int) -> int:
    """Density-preserving identifier width: smallest b with n/2**b
    at or below the paper's ~0.19 occupancy (floor 12 bits)."""
    return max(12, (4 * count - 1).bit_length())


def decades_for(scale: ExperimentScale) -> tuple[int, ...]:
    """The decade ladder of a scale (unnamed scales get the default's)."""
    return DECADES_BY_SCALE.get(scale.name, DECADES_BY_SCALE["default"])


def measure_system(kind: SystemKind, count: int, seed: int) -> dict:
    """Build + multicast + fused metrics for one system at one n.

    Nothing here asks the snapshot for its node tuple, so peak memory
    is the flat columns plus the kernel's CSR state.
    """
    system = resolve(kind)
    rng = Random(f"extL:{seed}:{count}")
    bandwidths = [rng.uniform(LOW_KBPS, HIGH_KBPS) for _ in range(count)]
    model = CapacityModel(PER_LINK_KBPS, minimum=system.min_capacity)
    capacities = model.capacities(bandwidths)

    watch = perf.StopWatch()
    with watch:
        snapshot = build_snapshot(
            IdentifierSpace(space_bits_for(count)),
            capacities,
            bandwidths=bandwidths,
            rng=Random(seed),
        )
        overlay = system.build_overlay(snapshot, uniform_fanout=BASELINE_FANOUT)
    build_s = watch.elapsed

    source = snapshot.node_for_index(0)
    with watch:
        tree = system.run_multicast(overlay, source)
    multicast_s = watch.elapsed

    with watch:
        throughput = sustainable_throughput(tree, snapshot)
    metrics_s = watch.elapsed

    return {
        "system": system.name,
        "n": count,
        "build_s": round(build_s, 4),
        "multicast_s": round(multicast_s, 4),
        "metrics_s": round(metrics_s, 4),
        "receivers": len(tree.order),
        "throughput_kbps": round(throughput, 3),
    }


def measure_decade(count: int, seed: int) -> dict:
    """All four systems at one decade, plus this process's peak RSS.

    ``peak_rss_mb`` is the *process* high-water mark — exact only when
    the decade runs in a fresh process (see
    :func:`measure_decades_isolated`).
    """
    systems = [
        measure_system(system.kind, count, seed) for system in all_descriptors()
    ]
    return {
        "n": count,
        "space_bits": space_bits_for(count),
        "seed": seed,
        "systems": systems,
        "peak_rss_mb": perf.peak_rss_mb(),
    }


def measure_decades_isolated(decades: Sequence[int], seed: int) -> list[dict]:
    """One subprocess per decade: exact per-decade peak RSS.

    Peak RSS is a high-water mark that only grows within a process, so
    decades measured in one process would all report the largest
    decade's footprint; the re-exec resets the mark.  (This relies on
    :func:`repro.perf.peak_rss` reading ``VmHWM``, which ``exec``
    resets — ``ru_maxrss`` survives exec on Linux, so a child of a
    large parent would inherit the parent's footprint.)  Falls back to
    in-process measurement when the interpreter cannot be re-launched
    (embedded/frozen).
    """
    results: list[dict] = []
    for count in decades:
        command = [
            sys.executable,
            "-m",
            "repro.experiments.ext_scale",
            "--measure-one",
            str(count),
            "--seed",
            str(seed),
        ]
        try:
            proc = subprocess.run(
                command, capture_output=True, text=True, check=True
            )
            results.append(json.loads(proc.stdout))
        except (OSError, subprocess.CalledProcessError, json.JSONDecodeError):
            results.append(measure_decade(count, seed))
    return results


def check_rss(
    results: Sequence[dict], ceiling_mb: float | None
) -> list[str]:
    """RSS assertions: absolute ceiling and ~linear growth in n."""
    failures: list[str] = []
    measured = [r for r in results if r.get("peak_rss_mb") is not None]
    if ceiling_mb is not None:
        for entry in measured:
            if entry["peak_rss_mb"] > ceiling_mb:
                failures.append(
                    f"n={entry['n']}: peak RSS {entry['peak_rss_mb']}MB "
                    f"exceeds ceiling {ceiling_mb}MB"
                )
    for smaller, larger in zip(measured, measured[1:]):
        size_ratio = larger["n"] / smaller["n"]
        rss_ratio = larger["peak_rss_mb"] / max(smaller["peak_rss_mb"], 1e-9)
        if rss_ratio > size_ratio * LINEARITY_SLACK:
            failures.append(
                f"n={smaller['n']}->{larger['n']}: peak RSS grew "
                f"{rss_ratio:.2f}x for a {size_ratio:.0f}x size step "
                f"(limit {size_ratio * LINEARITY_SLACK:.1f}x)"
            )
    return failures


# -- figure mode (sweepable module contract) ---------------------------------


def sweep(scale: ExperimentScale) -> list[tuple[int, SystemKind]]:
    """One point per (decade, system)."""
    return [
        (count, system.kind)
        for count in decades_for(scale)
        for system in all_descriptors()
    ]


def run_point(
    scale: ExperimentScale, seed: int, point: tuple[int, SystemKind]
) -> dict:
    """Measure one system at one decade."""
    count, kind = point
    return measure_system(kind, count, seed)


def assemble(
    scale: ExperimentScale, seed: int, partials: Sequence[dict]
) -> FigureResult:
    """Per-system multicast-time curves vs n, build/metrics in notes."""
    result = FigureResult(
        figure="extL",
        title="Structural pipeline wall time (s) vs group size",
    )
    per_system: dict[str, Series] = {}
    for entry in partials:
        label = f"{entry['system']} multicast_s"
        series = per_system.get(label)
        if series is None:
            series = per_system[label] = Series(label=label)
            result.series.append(series)
        series.add(float(entry["n"]), entry["multicast_s"])
        result.notes.append(
            f"{entry['system']} n={entry['n']}: build {entry['build_s']}s, "
            f"multicast {entry['multicast_s']}s, metrics {entry['metrics_s']}s, "
            f"{entry['receivers']} receivers"
        )
    rss = perf.peak_rss_mb()
    if rss is not None:
        result.notes.append(
            f"process peak RSS {rss}MB (lifetime high-water mark; run "
            "python -m repro.experiments.ext_scale for per-decade isolation)"
        )
    return result


def run(scale: ExperimentScale, seed: int = 0) -> FigureResult:
    """Regenerate the scale-sweep series."""
    return run_sweep(sweep, run_point, assemble, scale, seed)


# -- benchmark mode (subprocess-isolated CLI) --------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-ext-scale",
        description="Scale sweep with per-decade subprocess RSS isolation.",
    )
    parser.add_argument(
        "--max-n",
        type=int,
        default=100_000,
        help="largest decade to run (pass 1000000 to opt into the "
        "million-member tier; default 100000)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--rss-ceiling-mb",
        type=float,
        default=None,
        help="fail (exit 1) when any decade's peak RSS exceeds this",
    )
    parser.add_argument(
        "--json", type=str, default=None, help="write the report to this path"
    )
    parser.add_argument(
        "--measure-one",
        type=int,
        default=None,
        metavar="N",
        help=argparse.SUPPRESS,  # internal: one decade, JSON on stdout
    )
    args = parser.parse_args(argv)

    if args.measure_one is not None:
        print(json.dumps(measure_decade(args.measure_one, args.seed)))
        return 0

    decades = tuple(n for n in FULL_LADDER if n <= args.max_n)
    if not decades:
        parser.error(f"--max-n {args.max_n} leaves no decades to run")

    results = measure_decades_isolated(decades, args.seed)
    for entry in results:
        rss = entry["peak_rss_mb"]
        rss_text = f"{rss}MB" if rss is not None else "n/a"
        print(f"n={entry['n']} (b={entry['space_bits']}): peak RSS {rss_text}")
        for system in entry["systems"]:
            print(
                f"  {system['system']:10s} build {system['build_s']:8.3f}s  "
                f"multicast {system['multicast_s']:8.3f}s  "
                f"metrics {system['metrics_s']:8.3f}s  "
                f"({system['receivers']} receivers)"
            )

    failures = check_rss(results, args.rss_ceiling_mb)
    report = {
        "decades": list(decades),
        "seed": args.seed,
        "rss_ceiling_mb": args.rss_ceiling_mb,
        "results": results,
        "failures": failures,
    }
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"report -> {args.json}")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
