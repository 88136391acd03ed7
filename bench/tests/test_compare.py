"""compare verdicts on hand-made reports."""

import copy

import pytest

from bench import compare


def _host(value, low=None, high=None, n=3):
    entry = {"value": value, "unit": "s", "domain": "host"}
    if low is not None:
        entry.update(min=low, max=high, n=n)
    return entry


def _report(seed=0, **overrides):
    end_to_end = {
        "wall_s": _host(2.0, 1.98, 2.03),
        "deliveries_per_wall_s": _host(1000.0, 985.0, 1010.0),
        "peak_rss_mb": _host(80.0),
        "fail_share": {"value": 0.0, "unit": "ratio", "domain": "-", "attempted": 90},
        "sim_delivery_p99_s": {"value": 0.17, "unit": "s", "domain": "sim"},
        "sim_ref_error": {"value": 0.002, "unit": "ratio", "domain": "sim"},
    }
    end_to_end.update(overrides)
    return {
        "seed": seed,
        "smoke": False,
        "workloads": {
            "plane_steady": {
                "reps": 7,
                "end_to_end": end_to_end,
                "counts": {"plane.sends": 8293},
            }
        },
    }


def _verdicts(a, b):
    rows = compare.compare_reports(a, b)
    return {row["metric"]: row["verdict"] for row in rows}, rows


def test_identical_reports_are_all_same_and_pass():
    verdicts, rows = _verdicts(_report(), _report())
    assert set(verdicts.values()) == {"same"}
    assert not compare.regressed(rows)
    assert all(row["ratio"] == 1.0 for row in rows if row["ratio"] is not None)


def test_host_metric_past_its_bound_is_worse_or_better_by_direction():
    slow = _report(wall_s=_host(2.3, 2.28, 2.33))  # +15% > 10%
    verdicts, rows = _verdicts(slow, _report())
    assert verdicts["wall_s"] == "worse" and compare.regressed(rows)
    verdicts, rows = _verdicts(_report(), slow)
    assert verdicts["wall_s"] == "better" and not compare.regressed(rows)
    # higher-is-better flips the sign
    starved = _report(deliveries_per_wall_s=_host(850.0, 840.0, 860.0))
    assert _verdicts(starved, _report())[0]["deliveries_per_wall_s"] == "worse"
    # within the bound: same
    near = _report(wall_s=_host(2.1, 2.08, 2.12))
    assert _verdicts(near, _report())[0]["wall_s"] == "same"


def test_wide_overlapping_runs_are_unresolved_not_unchanged():
    noisy = _report(wall_s=_host(2.3, 1.9, 2.6))  # spread 30% > bound
    verdicts, rows = _verdicts(noisy, _report())
    assert verdicts["wall_s"] == "unresolved"
    assert not compare.regressed(rows)
    # ... unless every rep of one side lies beyond every rep of the other
    clear = _report(wall_s=_host(3.0, 2.6, 3.4))
    assert _verdicts(clear, _report())[0]["wall_s"] == "worse"
    assert _verdicts(_report(), clear)[0]["wall_s"] == "better"


def test_sim_metrics_and_counts_must_match_exactly():
    drift = _report()
    drift["workloads"]["plane_steady"]["end_to_end"]["sim_delivery_p99_s"]["value"] = 0.16
    verdicts, rows = _verdicts(drift, _report())
    assert verdicts["sim_delivery_p99_s"] == "better"  # lower, yet it fails:
    assert compare.regressed(rows)
    assert any(row["exact_mismatch"] for row in rows)

    recount = _report()
    recount["workloads"]["plane_steady"]["counts"]["plane.sends"] = 8294
    verdicts, rows = _verdicts(recount, _report())
    assert verdicts["count:plane.sends"] == "differs" and compare.regressed(rows)

    # 1e-9 relative is still "exact"
    close = _report()
    close["workloads"]["plane_steady"]["end_to_end"]["sim_delivery_p99_s"]["value"] *= 1 + 1e-12
    assert not compare.regressed(compare.compare_reports(close, _report()))


def test_sim_metrics_are_never_compared_across_seeds():
    other = _report(seed=1)
    other["workloads"]["plane_steady"]["end_to_end"]["sim_delivery_p99_s"]["value"] = 0.3
    other["workloads"]["plane_steady"]["counts"]["plane.sends"] = 7000
    verdicts, rows = _verdicts(other, _report())
    assert verdicts["sim_delivery_p99_s"].startswith("n/a")
    assert "count:plane.sends" not in verdicts
    assert not compare.regressed(rows)


def test_higher_fail_share_and_reference_error_ceiling_fail():
    failing = _report()
    failing["workloads"]["plane_steady"]["end_to_end"]["fail_share"]["value"] = 0.01
    verdicts, rows = _verdicts(failing, _report())
    assert verdicts["fail_share"] == "worse" and compare.regressed(rows)
    assert _verdicts(_report(), failing)[0]["fail_share"] == "better"

    off = _report(seed=1)
    off["workloads"]["plane_steady"]["end_to_end"]["sim_ref_error"]["value"] = 0.02
    verdicts, rows = _verdicts(off, _report())
    assert verdicts["sim_ref_error"] == "worse" and compare.regressed(rows)


def test_render_names_the_base_and_smoke_mismatch_is_refused():
    rows = compare.compare_reports(_report(), _report())
    text = compare.render(rows, "a.json", "b.json")
    assert "B = b.json  (base of every ratio)" in text and text.endswith("# ok")
    smoke = copy.deepcopy(_report())
    smoke["smoke"] = True
    with pytest.raises(SystemExit):
        compare.compare_reports(smoke, _report())


def test_whatever_only_one_report_has_fails_the_comparison():
    lost = _report()
    del lost["workloads"]["plane_steady"]
    for a, b in ((lost, _report()), (_report(), lost), (lost, lost)):
        verdicts, rows = _verdicts(a, b)
        assert verdicts == {"(workload)": "missing"} and compare.regressed(rows)
        assert compare.render(rows, "a", "b").endswith("# FAIL")

    thinner = _report()
    del thinner["workloads"]["plane_steady"]["end_to_end"]["wall_s"]
    del thinner["workloads"]["plane_steady"]["counts"]["plane.sends"]
    for a, b in ((thinner, _report()), (_report(), thinner)):
        verdicts, rows = _verdicts(a, b)
        assert verdicts["wall_s"] == "missing"
        assert verdicts["count:plane.sends"] == "missing"
        assert compare.regressed(rows)

    fewer = _report()
    fewer["workloads"]["plane_steady"]["reps"] = 4
    verdicts, rows = _verdicts(fewer, _report())
    assert verdicts["reps"] == "differs" and compare.regressed(rows)


def test_a_zero_base_is_unresolved_not_a_crash():
    verdicts, rows = _verdicts(_report(), _report(peak_rss_mb=_host(0.0)))
    assert verdicts["peak_rss_mb"] == "unresolved"
    assert [row["ratio"] for row in rows if row["metric"] == "peak_rss_mb"] == [None]
