"""Run shape, subprocess isolation and report assembly.

One process per workload, no pools, no threads.  Inside the process:
set-up (imports, inputs from the seed), then timed reps on freshly
built state with ``gc.collect()`` between them outside the timed
region.  A host-time metric is the median over reps; the report also
carries min, max and the sample count.  The parent only launches
children and does arithmetic on what they print.

``bench run`` times a fixed number of reps per workload
(``catalog.REPS``); only the driver's form, whose contract passes a
measuring time, fills that time instead (never fewer than three reps).
"""

from __future__ import annotations

import gc
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any

from bench import catalog, spans, stats, workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SCHEMA = 1

#: never fewer than three reps behind a median
MIN_REPS = 3

#: fresh processes whose set-up time is sampled per workload (the
#: measuring process is one of them)
SETUP_SAMPLES = 5

#: the driver allows a run 180 s; leave room to report the failure
CHILD_TIMEOUT_S = 170

#: a workload is marked noisy past this rep spread, or when the
#: 1-minute load exceeds the core count
NOISY_SPREAD = 0.25


def use_repo_sources() -> None:
    """Make ``repro`` importable from the checkout's ``src/``."""
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"bench: no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- the child: one workload, one process -----------------------------------


def measure(
    name: str, seed: int, seconds: float, traced: bool, smoke: bool, min_reps: int
) -> dict[str, Any]:
    """Set up ``name`` and run its reps in this process.

    Untraced: reps until ``seconds`` have been measured, at least
    ``min_reps``.  Traced: untraced and traced reps alternate (at least
    one pair), so the harness overhead is a ratio of walls taken under
    the same conditions.  ``min_reps == 0`` is the set-up probe.
    """
    started = perf_counter()
    use_repo_sources()
    module, variant = workloads.load(name)
    from repro import perf
    from repro.experiments.common import clear_caches

    inputs = module.setup(seed, smoke, **variant)
    result: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "traced": traced,
        "setup_s": perf_counter() - started,
    }
    if min_reps == 0:
        return result

    walls: list[float] = []
    traced_walls: list[float] = []
    reps: list[workloads.Rep] = []
    traced_layers: list[dict[str, float]] = []
    traced_self: list[dict[str, float]] = []
    coverage: list[float] = []
    written: list[dict[str, Any]] = []
    deadline = perf_counter() + seconds
    while True:
        for recording in (False, True) if traced else (False,):
            clear_caches()
            gc.collect()
            rec = spans.Recorder(recording)
            with perf.scoped() as scope:
                rep_started = perf_counter()
                state = module.run_rep(inputs, rec)
                wall = perf_counter() - rep_started
            rep = module.summarize(inputs, state, scope.delta)
            del state
            reps.append(rep)
            if not recording:
                walls.append(wall)
                continue
            traced_walls.append(wall)
            traced_layers.append(
                module.layers(inputs, rep, spans.name_totals(rec.spans))
            )
            traced_self.append(spans.layer_self_times(rec.spans))
            coverage.append(spans.top_level_time(rec.spans) / wall)
            written.extend(spans.to_json(rec.spans, name, len(traced_walls) - 1))
        if len(walls) >= min_reps and perf_counter() >= deadline:
            break

    first = reps[0]
    untraced = reps[:: 2 if traced else 1]
    samples: dict[str, list[float]] = {}
    for rep in untraced:
        for key, values in rep.samples.items():
            samples.setdefault(key, []).extend(values)
    result.update(
        setup_parts=inputs.setup_parts,
        reps=len(walls),
        walls=walls,
        work=first.work,
        attempted=sum(rep.attempted for rep in reps),
        failed=sum(rep.failed for rep in reps),
        sim=first.sim,
        counts=first.counts,
        samples=samples,
        # every rep starts from fresh state and the same inputs: the
        # modelled system must do exactly the same thing each time
        deterministic=all(
            rep.sim == first.sim and rep.counts == first.counts for rep in reps
        ),
    )
    if traced:
        per_layer = {
            key: stats.median([layers[key] for layers in traced_layers])
            for key in traced_layers[0]
        }
        per_layer.update(
            (key, value)
            for key, value in first.counts.items()
            if key in catalog.PER_LAYER_BY_NAME
        )
        layer_self = {
            layer: stats.median([own[layer] for own in traced_self])
            for layer in traced_self[0]
        }
        if hasattr(module, "extras"):
            per_layer.update(module.extras(inputs, first, per_layer, walls, layer_self))
        per_layer["trace.coverage"] = stats.median(coverage)
        # each traced rep against the untraced rep just before it: the
        # box drifts by more than the recorder costs, neighbours share it
        per_layer["trace.harness_overhead"] = stats.median(
            [traced / plain for traced, plain in zip(traced_walls, walls)]
        )
        result.update(
            traced_walls=traced_walls, per_layer=per_layer, layer_self_s=layer_self
        )
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{name}.json").write_text(json.dumps(written))
    peak = perf.peak_rss()
    if peak is None:
        raise SystemExit("bench: this platform reports no peak RSS")
    result["peak_rss_mb"] = peak / 2**20
    return result


# -- the parent: launch children, assemble metrics --------------------------


def _spawn(name: str, seed: int, seconds: float, traced: bool, smoke: bool, min_reps: int):
    """One fresh child; returns what it measured.  ``subprocess.run``
    waits for the child and kills it on timeout, so nothing outlives
    this call."""
    command = [
        sys.executable, "-m", "bench", "_child",
        "--workload", name,
        "--seed", str(seed),
        "--seconds", repr(float(seconds)),
        "--trace", str(int(traced)),
        "--min-reps", str(min_reps),
    ]
    if smoke:
        command.append("--smoke")
    # one hash seed for every child: str-keyed dicts and sets then lay
    # out the same way in each process, which removes a few percent of
    # process-to-process wall-time variation (results never depend on it)
    done = subprocess.run(
        command,
        cwd=ROOT,
        env={**os.environ, "PYTHONHASHSEED": "0"},
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(f"bench: workload {name} exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(
    name: str, seed: int, traced: bool, smoke: bool, seconds: float | None = None
) -> dict[str, Any]:
    """Measure one workload in fresh processes and name its metrics.

    ``seconds is None`` is ``bench run``: the catalog's fixed rep count
    (one rep at smoke size).  With ``seconds`` (the driver's form) reps
    go on until that much time has been measured.
    """
    if seconds is not None:
        min_reps = 1 if traced else MIN_REPS
    elif smoke:
        min_reps = 1
    else:
        min_reps = catalog.TRACED_PAIRS if traced else catalog.REPS[name]
    seconds = seconds or 0.0
    load1 = os.getloadavg()[0]
    # set-up is an end-to-end metric: only the untraced run samples it
    probes = 0 if smoke or traced else SETUP_SAMPLES - 1
    setup_samples = [
        _spawn(name, seed, seconds, traced, smoke, 0)["setup_s"] for _ in range(probes)
    ]
    raw = _spawn(name, seed, seconds, traced, smoke, min_reps)
    setup_samples.append(raw["setup_s"])

    walls = raw["walls"]
    values: dict[str, dict[str, Any]] = {
        "setup_s": stats.summarize(setup_samples),
        "wall_s": stats.summarize(walls),
        "peak_rss_mb": {"value": raw["peak_rss_mb"]},
        "fail_share": {
            "value": raw["failed"] / raw["attempted"],
            "attempted": raw["attempted"],
        },
    }
    if "deliveries" in raw["counts"]:
        deliveries = raw["counts"]["deliveries"]
        values["deliveries_per_wall_s"] = stats.summarize(
            [deliveries / wall for wall in walls]
        )
    plan_walls = raw["samples"].get("plan_wall_ms")
    if plan_walls:
        supported = stats.highest_supported_percentile(len(plan_walls)) or 0.0
        for label, share in (("p50", 0.50), ("p90", 0.90)):
            values[f"plan_wall_{label}_ms"] = {
                "value": stats.percentile(plan_walls, share),
                "n": len(plan_walls),
                # fewer than ten samples beyond it: quoted, not trusted
                "thin_tail": share > supported,
            }
    values.update((key, {"value": value}) for key, value in raw["sim"].items())
    end_to_end = {}
    for metric in catalog.END_TO_END:
        if name in metric.workloads:
            end_to_end[metric.name] = {
                **values[metric.name], "unit": metric.unit, "domain": metric.domain
            }

    spread = stats.rel_spread(walls)
    out: dict[str, Any] = {
        "reps": raw["reps"],
        "rep_spread": spread,
        "load1": load1,
        "noisy": load1 > (os.cpu_count() or 1) or spread > NOISY_SPREAD,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "deterministic": raw["deterministic"],
        "end_to_end": end_to_end,
        # the driver's throughput metric (catalog.DRIVER_END_TO_END);
        # not an end-to-end metric of the report, so compare skips it
        "work_per_wall_s": stats.median([raw["work"] / wall for wall in walls]),
        "counts": raw["counts"],
    }
    if traced:
        out["per_layer"] = {
            key: {"value": value, "unit": catalog.PER_LAYER_BY_NAME[key].unit}
            for key, value in raw["per_layer"].items()
        }
        out["layer_self_s"] = raw["layer_self_s"]
    return out


def correct(result: dict[str, Any]) -> bool:
    """No operation failed and the modelled system repeated itself."""
    return result["failed"] == 0 and result["deterministic"]


def driver_line(result: dict[str, Any], traced: bool) -> str:
    """The one JSON object the driver reads from the last stdout line."""
    end_to_end = result["end_to_end"]
    if traced:
        per_layer = result["per_layer"]
        metrics = {}
        for name, unit, _better in catalog.driver_per_layer():
            # a layer this workload never enters did no work: 0
            entry = per_layer.get(name) or end_to_end.get(name) or {"value": 0.0}
            metrics[name] = {"value": entry["value"], "unit": unit}
    else:
        metrics = {
            name: {
                "value": end_to_end[name]["value"] if name in end_to_end else result[name],
                "unit": unit,
            }
            for name, unit, _better, _bound in catalog.DRIVER_END_TO_END
        }
    return json.dumps(
        {
            "correct": correct(result),
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def host_info() -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
    }


def run_all(seed: int, traced: bool, smoke: bool) -> dict[str, Any]:
    """The full report: every workload untraced, then (with ``traced``)
    once more with the span recorder on.  End-to-end metrics always
    come from the untraced run."""
    report: dict[str, Any] = {
        "schema": SCHEMA,
        "seed": seed,
        "smoke": smoke,
        "traced": traced,
        "host": host_info(),
        "workloads": {},
    }
    for name in catalog.WORKLOADS:
        result = run_workload(name, seed, False, smoke)
        if traced:
            layered = run_workload(name, seed, True, smoke)
            result["per_layer"] = layered["per_layer"]
            result["layer_self_s"] = layered["layer_self_s"]
            result["attempted"] += layered["attempted"]
            result["failed"] += layered["failed"]
            # two processes, one seed: the sim side must agree exactly
            result["deterministic"] = (
                result["deterministic"]
                and layered["deterministic"]
                and layered["counts"] == result["counts"]
                and all(
                    layered["end_to_end"][key]["value"] == entry["value"]
                    for key, entry in result["end_to_end"].items()
                    if entry["domain"] == "sim"
                )
            )
        report["workloads"][name] = result
    return report


def render(report: dict[str, Any]) -> str:
    """Every metric by name, with its unit."""
    host = report["host"]
    lines = [
        f"# bench seed={report['seed']} smoke={report['smoke']} "
        f"nproc={host['nproc']} python={host['python']} "
        f"load={host['loadavg'][0]:.2f}"
    ]
    for name, result in report["workloads"].items():
        flags = " NOISY" if result["noisy"] else ""
        flags += "" if correct(result) else " INCORRECT"
        lines.append(
            f"== {name}: reps={result['reps']} spread={result['rep_spread']:.3f} "
            f"failed={result['failed']}/{result['attempted']}{flags}"
        )
        for key, entry in result["end_to_end"].items():
            detail = ""
            if "n" in entry and "min" in entry:
                detail = f"  (min {entry['min']:.6g} max {entry['max']:.6g} n={entry['n']})"
            elif "n" in entry:
                detail = f"  (n={entry['n']}{', thin tail' if entry['thin_tail'] else ''})"
            lines.append(
                f"   {key:26s} {entry['value']:>14.6g} {entry['unit']:6s} "
                f"[{entry['domain']}]{detail}"
            )
        for key, entry in result.get("per_layer", {}).items():
            lines.append(f"   {key:26s} {entry['value']:>14.6g} {entry['unit']}")
        if "layer_self_s" in result:
            ranked = sorted(result["layer_self_s"].items(), key=lambda item: -item[1])
            lines.append(
                "   self time by layer: "
                + ", ".join(f"{layer} {own:.3f}s" for layer, own in ranked)
            )
    return "\n".join(lines)
