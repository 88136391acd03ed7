"""Tests for the parallel experiment engine, caches and perf counters.

The headline guarantee is byte-for-byte equivalence: ``--jobs N`` must
produce exactly the serial output, because a sweep-decomposed ``run()``
*is* ``assemble(scale, seed, [run_point(...) for point in sweep])`` and
every point draws from its own RNG stream — and because members reach
a worker as a frozen request it rebuilds, never as bytes.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from array import array
from random import Random

import pytest

from repro import perf
from repro.capacity.distributions import UniformBandwidth, UniformCapacity
from repro.capacity.model import CapacityModel
from repro.experiments import registry
from repro.experiments.common import (
    SCALES,
    BandwidthMembers,
    CapacityMembers,
    ExperimentScale,
    bandwidth_draws,
    bandwidth_group,
    bandwidth_members,
    capacity_group,
    clear_caches,
    identifier_draws,
    members_snapshot,
    point_rng,
)
from repro.experiments.parallel import Task, plan_tasks, run_experiments
from repro.experiments.runner import main
from repro.idspace.ring import IdentifierSpace
from repro.multicast.session import SystemKind
from repro.overlay.base import build_snapshot, sample_identifiers
from repro.workloads.groups import GroupSpec
from tests.golden.sim_order import SRC

QUICK = SCALES["quick"]
TINY = ExperimentScale("tiny", 400, 2, 20, space_bits=12)


def run_child(script: str, stdin: bytes = b"") -> bytes:
    """Run ``script`` in a fresh interpreter; its raw stdout."""
    done = subprocess.run(
        [sys.executable, "-c", script],
        input=stdin, env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, check=True,
    )
    return done.stdout


class TestPointRng:
    def test_deterministic_and_independent(self):
        a = point_rng(0, "fig9", "cam-chord", 4)
        b = point_rng(0, "fig9", "cam-chord", 4)
        c = point_rng(0, "fig9", "cam-chord", 5)
        draws_a = [a.random() for _ in range(5)]
        assert draws_a == [b.random() for _ in range(5)]
        assert draws_a != [c.random() for _ in range(5)]

    def test_seed_separates_streams(self):
        assert point_rng(0, "x").random() != point_rng(1, "x").random()


class TestPlanTasks:
    def test_sweepable_fans_into_points(self):
        module = registry.load("fig7")
        assert registry.is_sweepable(module)
        tasks = plan_tasks(["fig7"], QUICK, seeds=[0, 1])
        points = len(module.sweep(QUICK))
        assert len(tasks) == 2 * points
        assert Task("fig7", 1, points - 1) in tasks

    def test_monolithic_stays_whole(self):
        monolithic = [
            name
            for name in registry.REGISTRY
            if not registry.is_sweepable(registry.load(name))
        ]
        assert monolithic, "expected at least one monolithic experiment"
        name = monolithic[0]
        tasks = plan_tasks([name], QUICK, seeds=[0])
        assert tasks == [Task(name, 0, None)]


class TestParallelEquivalence:
    """jobs > 1 output must equal the serial output byte for byte."""

    def test_extc_parallel_matches_serial(self):
        serial = run_experiments(["extC"], QUICK, seeds=[0], jobs=1)
        fanned = run_experiments(["extC"], QUICK, seeds=[0], jobs=4)
        assert serial[0].result.render() == fanned[0].result.render()

    def test_fig7_cli_parallel_matches_serial(self, tmp_path):
        serial_dir = tmp_path / "serial"
        fanned_dir = tmp_path / "fanned"
        assert main(["fig7", "--scale", "quick", "--out", str(serial_dir)]) == 0
        assert (
            main(["fig7", "--scale", "quick", "--jobs", "4", "--out", str(fanned_dir)])
            == 0
        )
        serial_bytes = (serial_dir / "fig7.txt").read_bytes()
        fanned_bytes = (fanned_dir / "fig7.txt").read_bytes()
        assert serial_bytes == fanned_bytes

    def test_replication_seeds_fan_out(self):
        serial = run_experiments(["extC"], QUICK, seeds=[0, 1], jobs=1)
        fanned = run_experiments(["extC"], QUICK, seeds=[0, 1], jobs=2)
        assert [run.seed for run in serial] == [0, 1]
        for one, other in zip(serial, fanned):
            assert one.result.render() == other.result.render()

    @pytest.mark.parametrize("figure", ["fig6", "fig7"])
    def test_rebuilt_members_match_serial(self, figure):
        clear_caches()
        serial = run_experiments([figure], TINY, seeds=[0], jobs=1)
        clear_caches()
        fanned = run_experiments([figure], TINY, seeds=[0], jobs=2)
        assert serial[0].result.render() == fanned[0].result.render()


class TestMemberRequests:
    """Members cross a process boundary as a frozen request only."""

    CAPACITY_SPEC = GroupSpec(
        size=50, space_bits=12, capacities=UniformCapacity(4, 10), min_capacity=4
    )

    def test_bandwidth_request_matches_group_snapshot(self):
        clear_caches()
        request = bandwidth_members("cam-chord", TINY, per_link_kbps=100.0, seed=3)
        built = members_snapshot(request)
        group = bandwidth_group("cam-chord", TINY, per_link_kbps=100.0, seed=3)
        assert group.snapshot is built  # same cache entry, not a rebuild

    def test_snapshot_shared_across_kinds_with_same_floor(self):
        clear_caches()
        chord = bandwidth_group("chord", TINY, per_link_kbps=100.0, seed=0)
        koorde = bandwidth_group("koorde", TINY, per_link_kbps=100.0, seed=0)
        # both baselines have min_capacity == 1 -> identical request
        assert chord.snapshot is koorde.snapshot

    def test_capacity_request_reproduces_generate_group(self):
        clear_caches()
        request = CapacityMembers(spec=self.CAPACITY_SPEC, seed=1)
        first = members_snapshot(request)
        assert members_snapshot(request) is first
        assert first.identifiers == request.build().identifiers

    def test_requests_are_hashable_and_picklable(self):
        request = bandwidth_members("cam-koorde", TINY, per_link_kbps=40.0, seed=2)
        assert isinstance(request, BandwidthMembers)
        assert pickle.loads(pickle.dumps(request)) == request
        assert hash(request) == hash(pickle.loads(pickle.dumps(request)))

    @pytest.mark.parametrize(
        "request_",
        [
            bandwidth_members("cam-koorde", TINY, per_link_kbps=40.0, seed=2),
            CapacityMembers(spec=CAPACITY_SPEC, seed=1),
        ],
        ids=["bandwidth", "capacity"],
    )
    def test_fresh_process_builds_identical_columns(self, request_):
        """What a ``--jobs N`` worker does with a task's members: the
        pickled request, resolved in another interpreter, yields the
        parent's columns byte for byte."""
        script = (
            "import pickle, sys\n"
            "from repro.experiments.common import members_snapshot\n"
            "snap = members_snapshot(pickle.load(sys.stdin.buffer))\n"
            "for column in (snap.identifiers, snap.capacities, snap.bandwidths):\n"
            "    sys.stdout.buffer.write(column.tobytes())\n"
        )
        clear_caches()
        mine = members_snapshot(request_)
        expected = b"".join(
            column.tobytes()
            for column in (mine.identifiers, mine.capacities, mine.bandwidths)
        )
        assert len(expected) == 3 * 8 * len(mine)
        assert run_child(script, pickle.dumps(request_)) == expected

    def test_jobs_run_never_imports_shared_memory(self):
        """No second way to move members: a fanned figure run leaves
        ``multiprocessing.shared_memory`` unimported."""
        script = (
            "import sys\n"
            "from repro.experiments.common import ExperimentScale\n"
            "from repro.experiments.parallel import run_experiments\n"
            "tiny = ExperimentScale('tiny', 400, 2, 20, space_bits=12)\n"
            "runs = run_experiments(['fig6'], tiny, jobs=2)\n"
            "assert runs[0].result.series\n"
            "print('multiprocessing.shared_memory' in sys.modules)\n"
        )
        assert run_child(script).strip() == b"False"


class TestCaches:
    @pytest.fixture(autouse=True)
    def fresh(self):
        clear_caches()
        yield
        clear_caches()

    def test_bandwidth_draws_memoized(self):
        law = UniformBandwidth()
        before = perf.snapshot()
        first = bandwidth_draws(law, 500, seed=3)
        second = bandwidth_draws(law, 500, seed=3)
        delta = perf.since(before)
        assert first is second
        assert type(first) is array and first.typecode == "d"
        assert list(first) == law.sample_many(500, Random(3))
        assert (delta.draw_cache_misses, delta.draw_cache_hits) == (1, 1)
        assert bandwidth_draws(law, 500, seed=4) is not first

    def test_identifier_draw_memoized_until_caches_clear(self):
        space = IdentifierSpace(14)
        first = identifier_draws(space, 500, seed=3)
        assert identifier_draws(space, 500, seed=3) is first
        assert first.typecode == "Q"
        assert list(first) == sample_identifiers(500, space.size, Random(3))
        assert identifier_draws(space, 500, seed=4) is not first
        clear_caches()
        assert identifier_draws(space, 500, seed=3) is not first

    @pytest.mark.parametrize(
        "scale", [TINY, ExperimentScale("dense", 300, 2, 20, space_bits=10)]
    )
    def test_bandwidth_memberships_share_the_ring_not_the_snapshot(self, scale):
        requests = [
            bandwidth_members(kind, scale, per_link_kbps=per_link)
            for kind, per_link in (
                (SystemKind.CAM_CHORD, 40.0),
                (SystemKind.CAM_KOORDE, 40.0),
                (SystemKind.CHORD, 100.0),
            )
        ]
        snapshots = [members_snapshot(request) for request in requests]
        assert len({id(snapshot) for snapshot in snapshots}) == 3
        first = snapshots[0]
        for snapshot in snapshots[1:]:
            # one ring per draw: only the capacity column is the snapshot's own
            for column in ("identifiers", "bandwidths", "names", "ring_index"):
                assert getattr(snapshot, column) is getattr(first, column), column
        assert len({id(snapshot.capacities) for snapshot in snapshots}) == 3
        for request, snapshot in zip(requests, snapshots):
            # the build with a fresh identifier draw places the members alike
            draws = list(bandwidth_draws(request.bandwidth, request.count, request.seed))
            model = CapacityModel(request.per_link_kbps, minimum=request.min_capacity)
            expected = build_snapshot(
                IdentifierSpace(request.space_bits),
                model.capacities(draws),
                bandwidths=draws,
                rng=Random(request.seed),
            )
            for column in ("identifiers", "capacities", "bandwidths", "names"):
                assert getattr(snapshot, column) == getattr(expected, column)
            assert snapshot.ring_index.directory == expected.ring_index.directory

    def test_capacity_group_memoized_and_rebuild_identical(self):
        tiny = SCALES["bench"]
        law = UniformCapacity(4, 10)
        group = capacity_group(SystemKind.CAM_CHORD, tiny, law, seed=0)
        assert capacity_group(SystemKind.CAM_CHORD, tiny, law, seed=0) is group
        clear_caches()
        rebuilt = capacity_group(SystemKind.CAM_CHORD, tiny, law, seed=0)
        assert rebuilt is not group
        assert list(rebuilt.snapshot.identifiers) == list(group.snapshot.identifiers)
        source = group.random_member(Random(1))
        resent = rebuilt.snapshot.node_at(source.ident)
        assert (
            group.multicast_from(source).messages_sent
            == rebuilt.multicast_from(resent).messages_sent
        )

    def test_snapshot_shared_across_kinds_with_same_floor(self):
        tiny = SCALES["bench"]
        law = UniformCapacity(4, 10)
        assert SystemKind.CHORD.min_capacity == SystemKind.KOORDE.min_capacity
        chord = capacity_group(SystemKind.CHORD, tiny, law, seed=0)
        koorde = capacity_group(SystemKind.KOORDE, tiny, law, seed=0)
        assert chord is not koorde
        assert chord.snapshot is koorde.snapshot


class TestPerfCounters:
    def test_add_sub_roundtrip(self):
        a = perf.PerfCounters(resolves=3, deliveries=10)
        b = perf.PerfCounters(resolves=1, deliveries=4, multicast_trees=1)
        total = a + b
        assert total.resolves == 4 and total.deliveries == 14
        assert (total - b) == a

    def test_counters_move_during_multicast(self):
        clear_caches()
        tiny = SCALES["bench"]
        group = capacity_group(
            SystemKind.CAM_CHORD, tiny, UniformCapacity(4, 10), seed=0
        )
        before = perf.snapshot()
        group.multicast_from(group.random_member(Random(0)))
        delta = perf.since(before)
        assert delta.multicast_trees == 1
        assert delta.kernel_trees == 1
        assert delta.deliveries == len(group.snapshot) - 1
        # The kernel resolves into its memoized slot tables, never
        # through the scalar resolve_index path.
        assert delta.resolves == 0
        assert delta.kernel_resolves > 0
        assert "trees=1" in delta.summary()


class TestPeakRss:
    def test_peak_rss_positive_or_absent(self):
        rss = perf.peak_rss()
        if rss is None:
            pytest.skip("resource module unavailable")
        assert rss > 0


class TestRunnerCli:
    def test_list_flag(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) == len(registry.REGISTRY)
        assert any(line.startswith("fig6 ") for line in lines)
        assert any(line.startswith("extI ") for line in lines)

    def test_footer_reports_totals(self, capsys):
        assert main(["extC", "--scale", "quick"]) == 0
        out = capsys.readouterr().out
        assert "# extC done: resolves=" in out
        assert "shm[" not in out
        assert out.splitlines()[-1] == "# total: 1 experiment(s) x 1 seed(s) (jobs=1)"

    def test_jobs_rejects_zero(self, capsys):
        with pytest.raises(SystemExit):
            main(["extC", "--jobs", "0"])

    def test_footer_counts_identical_across_repeat_invocations(self, capsys):
        """Regression: the perf counters are process-global, so a second
        main() call in the same interpreter used to start mid-count.
        The footer must attribute identical per-figure counts whether
        or not earlier figures ran in this process."""
        clear_caches()
        assert main(["extC", "--scale", "quick"]) == 0
        first = capsys.readouterr().out
        clear_caches()
        assert main(["extC", "--scale", "quick"]) == 0
        second = capsys.readouterr().out
        footer = lambda out: next(  # noqa: E731
            line for line in out.splitlines() if line.startswith("# extC done:")
        )
        assert footer(first) == footer(second)


class TestPerfScoped:
    def test_scoped_measures_only_its_block(self):
        clear_caches()
        tiny = SCALES["bench"]
        group = capacity_group(
            SystemKind.CAM_CHORD, tiny, UniformCapacity(4, 10), seed=0
        )
        group.multicast_from(group.random_member(Random(0)))  # outside work
        with perf.scoped() as scope:
            group.multicast_from(group.random_member(Random(1)))
        assert scope.delta.multicast_trees == 1
        assert scope.delta.deliveries == len(group.snapshot) - 1
