"""Tests for the declarative scenario compiler and matrix runner.

The load-bearing property is byte-determinism: compiling the same
``(spec, system, seed)`` twice yields identical lowered plans,
memberships and latency specs (hypothesis sweeps random specs), and a
matrix run over worker processes aggregates byte-identically to the
serial run.  The rest covers the JSON value contract (spec and cell
round-trips, single-file replay) and the shrinker hook.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.capacity.distributions import (
    FixedCapacity,
    HeavyTailCapacity,
    UniformCapacity,
)
from repro.scenarios import (
    LIBRARY,
    CompiledCell,
    ScenarioSpec,
    compile_cell,
    compile_matrix,
    get_scenario,
    render_tables,
    run_cell,
    run_matrix,
    save_cell,
    scenario_names,
)
from repro.scenarios.spec import (
    ChurnModel,
    FaultAxis,
    LatencySpec,
    TopologyAxis,
    WorkloadAxis,
)
from repro.systems import system_names

# -- strategies ---------------------------------------------------------------

capacity_laws = st.one_of(
    st.builds(FixedCapacity, value=st.integers(min_value=2, max_value=12)),
    st.builds(
        UniformCapacity,
        low=st.integers(min_value=2, max_value=6),
        high=st.integers(min_value=6, max_value=12),
    ),
    st.builds(
        HeavyTailCapacity,
        low=st.integers(min_value=2, max_value=4),
        high=st.integers(min_value=16, max_value=64),
        alpha=st.floats(min_value=1.1, max_value=2.5, allow_nan=False),
    ),
)

churn_models = st.one_of(
    st.just(ChurnModel()),
    st.builds(
        ChurnModel,
        kind=st.just("poisson"),
        join_rate=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
        depart_rate=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
        crash_fraction=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ),
    st.builds(
        ChurnModel,
        kind=st.just("diurnal"),
        trough_rate=st.floats(min_value=0.0, max_value=0.1, allow_nan=False),
        peak_rate=st.floats(min_value=0.1, max_value=0.6, allow_nan=False),
        period=st.floats(min_value=5.0, max_value=40.0, allow_nan=False),
    ),
    st.builds(
        ChurnModel,
        kind=st.just("session"),
        arrival_rate=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
        mean_lifetime=st.floats(min_value=1.0, max_value=30.0, allow_nan=False),
    ),
)

scenario_specs = st.builds(
    ScenarioSpec,
    name=st.sampled_from(["alpha", "beta", "gamma"]),
    topology=st.builds(
        TopologyAxis,
        size=st.integers(min_value=6, max_value=24),
        space_bits=st.just(12),
        capacities=capacity_laws,
        placement=st.sampled_from(["uniform", "hilbert"]),
        latency=st.sampled_from(
            [LatencySpec(), LatencySpec(kind="geographic", per_unit=0.1)]
        ),
    ),
    workload=st.builds(
        WorkloadAxis,
        multicasts=st.integers(min_value=1, max_value=3),
        propagation_window=st.just(8.0),
        churn=churn_models,
    ),
    faults=st.one_of(
        st.just(FaultAxis(fault_window=15.0)),
        st.just(FaultAxis(fault_window=15.0, generate_index=1)),
    ),
)


# -- determinism --------------------------------------------------------------


class TestCompileDeterminism:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        spec=scenario_specs,
        system=st.sampled_from(sorted(system_names())),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_compile_twice_is_byte_identical(self, spec, system, seed):
        first = compile_cell(spec, system, seed)
        second = compile_cell(spec, system, seed)
        assert first == second
        assert json.dumps(first.to_json_dict(), sort_keys=True) == json.dumps(
            second.to_json_dict(), sort_keys=True
        )
        # and the cell survives its own JSON round-trip
        reloaded = CompiledCell.from_json_dict(
            json.loads(json.dumps(first.to_json_dict()))
        )
        assert reloaded == first

    def test_rows_share_membership_and_churn(self):
        """Every system in a matrix row sees the same members and chaos."""
        spec = LIBRARY["flash-crowd"]
        cells = [compile_cell(spec, system, 3) for system in system_names()]
        assert len({cell.members for cell in cells}) == 1
        assert len({cell.plan.events for cell in cells}) == 1

    def test_different_seeds_differ(self):
        spec = LIBRARY["flash-crowd"]
        assert compile_cell(spec, "cam-chord", 0) != compile_cell(
            spec, "cam-chord", 1
        )


class TestLibrary:
    def test_five_scenarios(self):
        assert len(scenario_names()) >= 5
        assert set(scenario_names()) >= {
            "flash-crowd",
            "diurnal-churn",
            "regional-partition",
            "heavy-tail-capacities",
            "multi-source-storm",
        }

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("nope")

    def test_regional_partition_is_geographic(self):
        cell = compile_cell(LIBRARY["regional-partition"], "cam-chord", 0)
        assert cell.coordinates is not None
        assert cell.latency.kind == "geographic"
        model = cell.build_latency()
        # pinned coordinates: identifiers were derived from these exact
        # positions, so the model must report them verbatim
        for ident, pair in zip(cell.members.identifiers, cell.coordinates):
            assert model.coordinates(ident) == pair

    def test_heavy_tail_uses_pareto_law(self):
        spec = LIBRARY["heavy-tail-capacities"]
        assert isinstance(spec.topology.capacities, HeavyTailCapacity)


class TestMatrixParallelism:
    def test_serial_equals_jobs2(self):
        """Every library scenario: serial == --jobs 2, byte for byte."""
        cells = compile_matrix(
            [LIBRARY[name] for name in scenario_names()], ["cam-chord"], 0
        )
        serial = run_matrix(cells, jobs=1)
        fanned = run_matrix(cells, jobs=2)
        assert [outcome.row() for outcome in serial] == [
            outcome.row() for outcome in fanned
        ]
        assert render_tables(serial) == render_tables(fanned)

    def test_library_cells_pass_oracles(self):
        """The library pins chaos a healthy protocol must survive."""
        cells = compile_matrix(
            [LIBRARY[name] for name in scenario_names()], ["cam-koorde"], 0
        )
        for outcome in run_matrix(cells):
            assert outcome.passed, (
                f"{outcome.cell.scenario}: {outcome.outcome.violations}"
            )
            assert outcome.mean_delivery() == 1.0


class TestCellExecution:
    def test_cell_save_load_replay(self, tmp_path):
        cell = compile_cell(LIBRARY["multi-source-storm"], "koorde", 0)
        path = tmp_path / "cell.json"
        save_cell(cell, str(path))
        reloaded = CompiledCell.from_json_dict(json.loads(path.read_text()))
        assert reloaded == cell
        assert run_cell(reloaded).row() == run_cell(cell).row()

    def test_with_plan_truncates_members(self):
        from dataclasses import replace

        cell = compile_cell(LIBRARY["diurnal-churn"], "cam-chord", 0)
        smaller = cell.with_plan(replace(cell.plan, size=6, events=()))
        assert len(smaller.members) == 6
        assert smaller.members.identifiers == cell.members.identifiers[:6]
        assert run_cell(smaller).passed

    def test_generated_fault_axis(self):
        spec = ScenarioSpec(
            name="generated",
            topology=TopologyAxis(size=12),
            faults=FaultAxis(fault_window=15.0, generate_index=0),
        )
        cell = compile_cell(spec, "cam-chord", 0)
        assert cell.plan.events  # the generated family is never empty

    def test_throughput_guard_without_bandwidths(self):
        # a membership with zero bandwidths must degrade to None, not raise
        from dataclasses import replace as dc_replace

        cell = compile_cell(LIBRARY["flash-crowd"], "cam-chord", 0)
        bare = dc_replace(
            cell,
            members=type(cell.members)(
                space_bits=cell.members.space_bits,
                identifiers=cell.members.identifiers,
                capacities=cell.members.capacities,
                bandwidths=(0.0,) * len(cell.members),
            ),
        )
        assert run_cell(bare).throughput_kbps is None


class TestSpecValidation:
    def test_events_and_generate_index_exclusive(self):
        from repro.faults.plan import FaultEvent

        with pytest.raises(ValueError, match="not both"):
            FaultAxis(
                events=(FaultEvent(1.0, "heal"),),
                generate_index=2,
            )

    def test_event_outside_window_rejected(self):
        from repro.faults.plan import FaultEvent

        with pytest.raises(ValueError, match="outside fault window"):
            FaultAxis(fault_window=5.0, events=(FaultEvent(9.0, "heal"),))

    def test_unknown_churn_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown churn kind"):
            ChurnModel(kind="tidal")

    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError, match="unknown placement"):
            TopologyAxis(placement="circular")


class TestCli:
    def test_run_and_replay_round_trip(self, tmp_path, capsys):
        from repro.faults.__main__ import main

        out_dir = tmp_path / "out"
        code = main(
            [
                "campaign",
                "--scenario",
                "multi-source-storm",
                "--systems",
                "cam-chord",
                "--seed",
                "0",
                "--out-dir",
                str(out_dir),
                "--quiet",
            ]
        )
        assert code == 0
        rows = json.loads((out_dir / "results.json").read_text())
        assert rows[0]["passed"] is True

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(LIBRARY["multi-source-storm"].to_json_dict()))
        code = main(
            ["replay", str(spec_path), "--systems", "cam-chord", "--seed", "0"]
        )
        assert code == 0
        assert "multi-source-storm x cam-chord: ok" in capsys.readouterr().out

    def test_replay_rejects_unrecognized_json(self, tmp_path):
        from repro.faults.__main__ import main

        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"nonsense": true}\n')
        with pytest.raises(SystemExit, match="neither a scenario spec"):
            main(["replay", str(bogus)])


class TestUnknownKeys:
    """A key no field reads is an error, not a silently run default."""

    @pytest.mark.parametrize(
        "where",
        [(), ("topology",), ("topology", "latency"), ("workload",),
         ("workload", "churn"), ("faults",)],
        ids=lambda where: "/".join(where) or "spec",
    )
    def test_spec_rejects_a_planted_key(self, where):
        raw = LIBRARY["flash-crowd"].to_json_dict()
        target = raw
        for key in where:
            target = target[key]
        target["multicastz"] = 4
        with pytest.raises(ValueError, match="multicastz"):
            ScenarioSpec.from_json_dict(raw)

    @pytest.mark.parametrize("where", [(), ("members",)], ids=["cell", "members"])
    def test_cell_rejects_a_planted_key(self, where):
        raw = compile_cell(LIBRARY["flash-crowd"], "cam-chord", 0).to_json_dict()
        target = raw
        for key in where:
            target = target[key]
        target["groups"] = 3
        with pytest.raises(ValueError, match="groups"):
            CompiledCell.from_json_dict(raw)

    @pytest.mark.parametrize("name", scenario_names())
    def test_every_library_scenario_replays_from_its_json(self, name):
        spec = get_scenario(name)
        shown = json.loads(json.dumps(spec.to_json_dict(), indent=2, sort_keys=True))
        assert ScenarioSpec.from_json_dict(shown) == spec
        cell = compile_cell(spec, "cam-koorde", 0)
        assert CompiledCell.from_json_dict(cell.to_json_dict()) == cell


class TestShrinkCell:
    def test_minimizes_to_the_marked_event_inside_the_cells_topology(
        self, monkeypatch, tmp_path
    ):
        from repro.faults import __main__ as cli

        cell = compile_cell(LIBRARY["regional-partition"], "cam-chord", 0)
        events = cell.plan.events
        marked = events[len(events) // 2]
        assert len(events) > 1 and events.count(marked) == 1
        assert cell.coordinates is not None  # geographic: coordinates must truncate too

        def run_cell_failing_on_marked(candidate):
            failing = marked in candidate.plan.events
            outcome = SimpleNamespace(
                plan=candidate.plan,
                passed=not failing,
                violations=["marked event present"] if failing else [],
            )
            return SimpleNamespace(cell=candidate, outcome=outcome)

        monkeypatch.setattr(cli, "run_cell", run_cell_failing_on_marked)
        path = tmp_path / "min.json"
        cli._shrink(cli._Repro(cell.plan, cell=cell), str(path), quiet=True)
        minimized = CompiledCell.from_json_dict(json.loads(path.read_text()))

        assert minimized.plan.events == (marked,)
        assert not run_cell_failing_on_marked(minimized).outcome.passed
        size = minimized.plan.size
        assert size < cell.plan.size
        assert (minimized.scenario, minimized.system, minimized.seed) == (
            cell.scenario, cell.system, cell.seed,
        )
        assert minimized.latency == cell.latency
        assert minimized.members.space_bits == cell.members.space_bits
        assert minimized.members.identifiers == cell.members.identifiers[:size]
        assert minimized.members.capacities == cell.members.capacities[:size]
        assert minimized.members.bandwidths == cell.members.bandwidths[:size]
        assert minimized.coordinates == cell.coordinates[:size]
