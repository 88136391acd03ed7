"""``python -m bench compare A.json [B.json]``: A judged against B.

Per workload x end-to-end metric one row: A, B, the ratio A/B (its
base is always B), and a verdict.

``same``
    host metric within its bound; sim metric or count exactly equal.
``better`` / ``worse``
    host metric moved past its bound (or, when the rep spread is wider
    than the bound, every rep of A lies beyond every rep of B); sim
    metric or count differs at all — a change meant only to speed the
    simulator must leave those identical, so any difference there makes
    the comparison fail, whichever way it points.
``unresolved``
    the rep spread is wider than the bound and the two runs overlap:
    neither a regression nor "unchanged" can be claimed.
``missing``
    a workload, an end-to-end metric or a count that only one of the
    two reports has: the reports do not describe the same benchmark, so
    the comparison fails.  So it does on rep counts that differ.

Sim metrics and counts are compared only when both reports ran the same
seed at the same sizes; they are never compared across seeds.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from bench import catalog

BASELINE = Path(__file__).resolve().parent / "baseline.json"


def _exactly_equal(a: float, b: float) -> bool:
    return abs(a - b) <= catalog.EXACT_RTOL * max(abs(a), abs(b))


def _spread(entry: dict[str, Any]) -> float:
    if "min" not in entry or not entry["value"]:
        return 0.0
    return (entry["max"] - entry["min"]) / abs(entry["value"])


def _host_verdict(metric: catalog.EndToEnd, a: dict, b: dict) -> str:
    lower = metric.better == "lower"
    if not b["value"]:  # no base to take a share of
        return "unresolved"
    worsening = (a["value"] - b["value"]) / abs(b["value"])
    if not lower:
        worsening = -worsening
    if max(_spread(a), _spread(b)) > metric.bound:
        # too noisy for the bound: only disjoint runs decide
        a_low, a_high = a.get("min", a["value"]), a.get("max", a["value"])
        b_low, b_high = b.get("min", b["value"]), b.get("max", b["value"])
        if a_high < b_low:
            return "better" if lower else "worse"
        if a_low > b_high:
            return "worse" if lower else "better"
        return "unresolved"
    if worsening > metric.bound:
        return "worse"
    if worsening < -metric.bound:
        return "better"
    return "same"


def _direction(metric: catalog.EndToEnd, a: float, b: float) -> str:
    return "better" if (a < b) == (metric.better == "lower") else "worse"


def _missing(workload: str, what: str, a: Any = None, b: Any = None) -> dict[str, Any]:
    return {
        "workload": workload,
        "metric": what,
        "a": a,
        "b": b,
        "unit": "",
        "ratio": None,
        "verdict": "missing",
        "exact_mismatch": False,
    }


def compare_reports(a: dict[str, Any], b: dict[str, Any]) -> list[dict[str, Any]]:
    """One row per workload x end-to-end metric, then one per count that
    differs; whatever only one report has is a ``missing`` row."""
    if a["smoke"] != b["smoke"]:
        raise SystemExit("bench compare: one report is a smoke run, the other is not")
    same_inputs = a["seed"] == b["seed"]
    rows: list[dict[str, Any]] = []
    for workload in dict.fromkeys([*a["workloads"], *b["workloads"]]):
        result_a = a["workloads"].get(workload)
        result_b = b["workloads"].get(workload)
        if result_a is None or result_b is None:
            rows.append(_missing(workload, "(workload)"))
            continue
        if result_a["reps"] != result_b["reps"]:
            # medians over different rep counts: not the same benchmark
            rows.append(
                {
                    **_missing(workload, "reps", result_a["reps"], result_b["reps"]),
                    "unit": "count",
                    "verdict": "differs",
                    "exact_mismatch": True,
                }
            )
        end_a, end_b = result_a["end_to_end"], result_b["end_to_end"]
        for name in dict.fromkeys([*end_a, *end_b]):
            if name not in end_a or name not in end_b:
                rows.append(_missing(workload, name))
                continue
            entry_a, entry_b = end_a[name], end_b[name]
            metric = catalog.END_TO_END_BY_NAME[name]
            value_a, value_b = entry_a["value"], entry_b["value"]
            row = {
                "workload": workload,
                "metric": name,
                "a": value_a,
                "b": value_b,
                "unit": metric.unit,
                "ratio": value_a / value_b if value_b else None,
                "exact_mismatch": False,
            }
            if metric.domain == "sim":
                if not same_inputs:
                    row["verdict"] = "n/a (seeds differ)"
                elif _exactly_equal(value_a, value_b):
                    row["verdict"] = "same"
                else:
                    row["verdict"] = _direction(metric, value_a, value_b)
                    row["exact_mismatch"] = True
                if metric.absolute and value_a > metric.bound:
                    row["verdict"] = "worse"
            elif metric.absolute:  # fail_share
                row["verdict"] = (
                    "same" if value_a == value_b else _direction(metric, value_a, value_b)
                )
            else:
                row["verdict"] = _host_verdict(metric, entry_a, entry_b)
            rows.append(row)
        if not same_inputs:
            continue
        counts_a, counts_b = result_a["counts"], result_b["counts"]
        for key in dict.fromkeys([*counts_a, *counts_b]):
            if key not in counts_a or key not in counts_b:
                rows.append(_missing(workload, f"count:{key}"))
            elif not _exactly_equal(counts_a[key], counts_b[key]):
                rows.append(
                    {
                        "workload": workload,
                        "metric": f"count:{key}",
                        "a": counts_a[key],
                        "b": counts_b[key],
                        "unit": "count",
                        "ratio": counts_a[key] / counts_b[key] if counts_b[key] else None,
                        "verdict": "differs",
                        "exact_mismatch": True,
                    }
                )
    if not rows:
        rows.append(_missing("(none)", "(workload)"))
    return rows


def regressed(rows: list[dict[str, Any]]) -> bool:
    """Non-zero exit: anything worse (a higher fail_share included), a
    sim metric or count that should have repeated exactly and did not,
    or anything only one of the reports has."""
    return any(
        row["verdict"] in ("worse", "missing") or row["exact_mismatch"] for row in rows
    )


def render(rows: list[dict[str, Any]], label_a: str, label_b: str) -> str:
    lines = [
        f"# A = {label_a}",
        f"# B = {label_b}  (base of every ratio)",
        f"{'workload':18s} {'metric':24s} {'A':>13s} {'B':>13s} {'unit':6s} "
        f"{'A/B':>8s}  verdict",
    ]
    for row in rows:
        ratio = f"{row['ratio']:.4f}" if row["ratio"] is not None else "-"
        mark = "  EXACT-MISMATCH" if row["exact_mismatch"] else ""
        a, b = (f"{v:.6g}" if v is not None else "-" for v in (row["a"], row["b"]))
        lines.append(
            f"{row['workload']:18s} {row['metric']:24s} {a:>13s} "
            f"{b:>13s} {row['unit']:6s} {ratio:>8s}  {row['verdict']}{mark}"
        )
    tally: dict[str, int] = {}
    for row in rows:
        tally[row["verdict"]] = tally.get(row["verdict"], 0) + 1
    lines.append("# " + ", ".join(f"{count} {verdict}" for verdict, count in sorted(tally.items())))
    lines.append("# FAIL" if regressed(rows) else "# ok")
    return "\n".join(lines)
