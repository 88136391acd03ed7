"""BENCHMARK.json, the catalog and what a run emits must agree."""

import json
import re

import pytest

from bench import catalog, harness

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def committed() -> dict:
    return json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_is_generated_from_the_catalog(committed):
    assert committed == catalog.benchmark_json()


def test_benchmark_json_stays_inside_the_driver_limits(committed):
    assert set(committed) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert committed["paths"] == ["bench"]
    assert 1 <= committed["run_seconds"] <= 60
    assert 2 <= len(committed["workloads"]) <= 8
    assert 1 <= len(committed["end_to_end"]) <= 16
    assert 1 <= len(committed["per_layer"]) <= 128
    names = []
    for workload in committed["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in committed["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in committed["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in committed["end_to_end"] + committed["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names)), "a name is used once"
    setup = [m for m in committed["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": setup[0]["bound"]}
    ]
    assert setup[0]["bound"] == max(m["bound"] for m in committed["end_to_end"])


def test_catalog_names_the_sixteen_issue_metrics_and_five_workloads():
    assert list(catalog.WORKLOADS) == [
        "tree_paper", "plane_steady", "plane_churn", "failover_campaign",
        "backup_install",
    ]
    issue = {
        "setup_s", "wall_s", "deliveries_per_wall_s", "plan_wall_p50_ms",
        "plan_wall_p90_ms", "peak_rss_mb", "fail_share", "sim_cam_gain",
        "sim_ref_error", "sim_path_len_mean", "sim_delivery_p50_s",
        "sim_delivery_p99_s", "sim_deliveries_per_s", "sim_failover_gap_p50_s",
        "sim_failover_gap_max_s", "sim_repair_gap_p50_s",
    }
    assert issue <= set(catalog.END_TO_END_BY_NAME)
    for metric in catalog.END_TO_END:
        assert metric.domain in ("host", "sim", "-")
        assert set(metric.workloads) <= set(catalog.WORKLOADS)


def test_every_named_metric_is_emitted_where_defined_and_nothing_else(smoke_traced):
    for workload, result in smoke_traced["workloads"].items():
        expected = {m.name for m in catalog.END_TO_END if workload in m.workloads}
        assert set(result["end_to_end"]) == expected, workload
        expected = {m.name for m in catalog.PER_LAYER if workload in m.workloads}
        assert set(result["per_layer"]) == expected, workload
        for name, entry in result["end_to_end"].items():
            metric = catalog.END_TO_END_BY_NAME[name]
            assert entry["unit"] == metric.unit and entry["domain"] == metric.domain
        for name, entry in result["per_layer"].items():
            assert entry["unit"] == catalog.PER_LAYER_BY_NAME[name].unit
        for name in list(result["end_to_end"]) + list(result["per_layer"]):
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)


def test_driver_lines_carry_exactly_the_listed_metrics(smoke_traced, committed):
    for result in smoke_traced["workloads"].values():
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            line = json.loads(harness.driver_line(result, traced))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] is True and line["failed"] == 0
            assert line["attempted"] >= 1
            listed = {m["name"]: m["unit"] for m in committed[key]}
            assert {k: v["unit"] for k, v in line["metrics"].items()} == listed
    steady = smoke_traced["workloads"]["plane_steady"]
    line = json.loads(harness.driver_line(steady, True))
    # a layer the workload never enters reads 0; its own read as measured
    assert line["metrics"]["backup.plan_s"]["value"] == 0.0
    assert line["metrics"]["plane.drain_s"]["value"] > 0.0
    assert line["metrics"]["sim_delivery_p99_s"]["value"] > 0.0


def test_smoke_run_passes_its_oracles_and_covers_its_wall(smoke_traced):
    assert smoke_traced["host"]["nproc"] >= 1
    for workload, result in smoke_traced["workloads"].items():
        assert harness.correct(result), workload
        assert result["end_to_end"]["fail_share"]["value"] == 0.0
        assert result["reps"] == 1 and result["rep_spread"] == 0.0
        assert result["per_layer"]["trace.coverage"]["value"] >= 0.9, workload
    # four smoke plans cannot carry a p90: quoted, but flagged
    campaign = smoke_traced["workloads"]["failover_campaign"]["end_to_end"]
    assert campaign["plan_wall_p90_ms"]["n"] == 4
    assert campaign["plan_wall_p90_ms"]["thin_tail"] is True
    for plane in ("plane_steady", "plane_churn"):
        layered = smoke_traced["workloads"][plane]["per_layer"]
        assert layered["plane.self_est_s"]["value"] >= 0.0
        assert 0.0 < layered["plane.est_coverage"]["value"] < 1.0
