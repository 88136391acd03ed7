"""Static-vs-live parity: one MemberSpec, two worlds, the same tree."""

from __future__ import annotations

import pytest

from repro.systems import MemberSpec, SystemKind, all_descriptors, descriptor_for
from repro.systems.parity import check_parity
from repro.trace.tracer import TRACER

RING_SIZE = 64
SPACE_BITS = 12
UNIFORM_FANOUT = 4


@pytest.fixture(scope="module")
def spec() -> MemberSpec:
    return MemberSpec.generate(RING_SIZE, space_bits=SPACE_BITS, seed=11)


@pytest.fixture(
    scope="module",
    params=[d.name for d in all_descriptors()],
)
def report(request, spec):
    return check_parity(
        request.param, spec, uniform_fanout=UNIFORM_FANOUT, seed=11
    )


class TestParityAllSystems:
    def test_worlds_agree(self, report):
        assert report.ok, report.summary()

    def test_exactly_once_in_both_worlds(self, report, spec):
        members = set(spec.identifiers)
        # static: every member delivered, depth recorded once
        assert set(report.static_depths) == members
        # live: every member recorded exactly one first delivery
        assert set(report.live_depths) == members
        assert report.static_depths == report.live_depths

    def test_tree_systems_match_edge_for_edge(self, report):
        descriptor = descriptor_for(SystemKind(report.system))
        if not descriptor.builds_single_tree:
            pytest.skip("flood systems compare receivers and depths only")
        assert report.edges_compared
        assert report.static_edges == report.live_edges
        assert report.live_duplicates == 0
        # a single-parent tree spanning n members has n-1 edges
        assert len(report.live_edges) == len(report.members) - 1

    def test_source_at_depth_zero(self, report):
        assert report.static_depths[report.source] == 0
        assert report.live_depths[report.source] == 0


def test_parity_leaves_the_global_tracer_as_it_found_it():
    """The live run is read inside a capture of its own: an outer
    ``--trace`` keeps the events recorded before it (the harness used to
    reset the buffer: 1 -> 0), and with tracing off nothing is left
    behind (it used to leave the live run's events in the buffer)."""
    spec = MemberSpec.generate(8, space_bits=SPACE_BITS, seed=11)
    with TRACER.capture() as mark:
        TRACER.emit(0.0, "test", "before")
        assert check_parity("cam-chord", spec, seed=11).ok
        assert TRACER.events_since(mark)[0].kind == "before"
        assert TRACER.enabled
    assert not TRACER.enabled
    before = TRACER.mark()
    assert check_parity("cam-chord", spec, seed=11).ok
    assert TRACER.mark() == before
    assert not TRACER.enabled


class TestMemberSpec:
    def test_generate_is_deterministic(self):
        a = MemberSpec.generate(32, space_bits=12, seed=7)
        b = MemberSpec.generate(32, space_bits=12, seed=7)
        assert a == b
        assert MemberSpec.generate(32, space_bits=12, seed=8) != a

    def test_bandwidths_follow_capacity_rule(self):
        spec = MemberSpec.generate(32, space_bits=12, per_link_kbps=100.0, seed=7)
        for capacity, bandwidth in zip(spec.capacities, spec.bandwidths):
            assert bandwidth == capacity * 100.0

    def test_snapshot_clamps_to_floor(self):
        spec = MemberSpec(
            space_bits=10,
            identifiers=(1, 2, 3),
            capacities=(1, 2, 9),
            bandwidths=(100.0, 200.0, 900.0),
        )
        snapshot = spec.snapshot(min_capacity=4)
        assert [node.capacity for node in snapshot.nodes] == [4, 4, 9]

    def test_rejects_duplicate_identifiers(self):
        with pytest.raises(ValueError, match="duplicate"):
            MemberSpec(
                space_bits=10,
                identifiers=(5, 5),
                capacities=(4, 4),
                bandwidths=(400.0, 400.0),
            )

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            MemberSpec(
                space_bits=10,
                identifiers=(1, 2),
                capacities=(4,),
                bandwidths=(400.0, 400.0),
            )

    def test_rejects_out_of_space_identifier(self):
        with pytest.raises(ValueError, match="outside"):
            MemberSpec(
                space_bits=4,
                identifiers=(99,),
                capacities=(4,),
                bandwidths=(400.0,),
            )

    def test_same_spec_seeds_both_worlds(self):
        """The whole point: one spec places the same members at the
        same identifiers in the static snapshot and the live cluster."""
        from repro.protocol.cluster import Cluster

        spec = MemberSpec.generate(16, space_bits=10, seed=3)
        snapshot = spec.snapshot(min_capacity=2)
        cluster = Cluster("cam-chord", spec, seed=3)
        assert {node.ident for node in snapshot.nodes} == set(cluster.peers)
        for node in snapshot.nodes:
            assert cluster.peers[node.ident].capacity == node.capacity
