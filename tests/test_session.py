"""Tests for the MulticastGroup facade."""

from __future__ import annotations

from random import Random

import pytest

from repro.multicast.session import MulticastGroup, SystemKind
from repro.overlay.base import Node
from repro.overlay.cam_chord import CamChordOverlay
from repro.overlay.cam_koorde import CamKoordeOverlay
from repro.overlay.chord import ChordOverlay
from repro.overlay.koorde import KoordeOverlay
from repro.systems import all_descriptors
from tests.conftest import random_snapshot


def bandwidths(count: int, seed: int = 0) -> list[float]:
    rng = Random(seed)
    return [rng.uniform(400, 1000) for _ in range(count)]


class TestSystemKind:
    def test_capacity_awareness_flags(self):
        assert SystemKind.CAM_CHORD.capacity_aware
        assert SystemKind.CAM_KOORDE.capacity_aware
        assert not SystemKind.CHORD.capacity_aware
        assert not SystemKind.KOORDE.capacity_aware

    def test_min_capacities(self):
        assert SystemKind.CAM_CHORD.min_capacity == 2
        assert SystemKind.CAM_KOORDE.min_capacity == 4
        assert SystemKind.CHORD.min_capacity == 1
        assert SystemKind.KOORDE.min_capacity == 1


class TestBuild:
    def test_overlay_types(self):
        expected = {
            SystemKind.CAM_CHORD: CamChordOverlay,
            SystemKind.CAM_KOORDE: CamKoordeOverlay,
            SystemKind.CHORD: ChordOverlay,
            SystemKind.KOORDE: KoordeOverlay,
        }
        for kind, overlay_type in expected.items():
            group = MulticastGroup.build(
                kind, bandwidths(50), per_link_kbps=100, space_bits=12,
                uniform_fanout=4,
            )
            assert isinstance(group.overlay, overlay_type)
            assert group.kind is kind
            assert len(group) == 50

    def test_capacities_follow_bandwidths(self):
        group = MulticastGroup.build(
            SystemKind.CAM_CHORD, [450.0, 980.0], per_link_kbps=100, space_bits=12
        )
        caps = sorted(node.capacity for node in group.snapshot)
        assert caps == [4, 9]

    def test_min_capacity_clamp_for_cam_koorde(self):
        group = MulticastGroup.build(
            SystemKind.CAM_KOORDE, [100.0, 900.0], per_link_kbps=100, space_bits=12
        )
        caps = sorted(node.capacity for node in group.snapshot)
        assert caps == [4, 9]

    def test_deterministic_by_seed(self):
        groups = [
            MulticastGroup.build(
                SystemKind.CAM_CHORD, bandwidths(30), per_link_kbps=100,
                space_bits=12, seed=5,
            )
            for _ in range(2)
        ]
        idents = [[n.ident for n in g.snapshot] for g in groups]
        assert idents[0] == idents[1]

    def test_from_snapshot(self):
        snap = random_snapshot(12, 30, seed=1)
        group = MulticastGroup.from_snapshot(SystemKind.CAM_CHORD, snap)
        assert group.snapshot is snap


class TestMulticast:
    @pytest.mark.parametrize("kind", list(SystemKind))
    def test_full_coverage_every_system(self, kind):
        group = MulticastGroup.build(
            kind, bandwidths(120), per_link_kbps=100, space_bits=12,
            uniform_fanout=4, seed=2,
        )
        source = group.random_member(Random(0))
        tree = group.multicast_from(source)
        tree.verify_exactly_once({n.ident for n in group.snapshot})

    def test_chord_baseline_is_balanced(self):
        """SystemKind.CHORD uses the balanced splitter: out-degree is
        capped at the uniform fanout everywhere."""
        group = MulticastGroup.build(
            SystemKind.CHORD, bandwidths(300), per_link_kbps=100,
            space_bits=12, uniform_fanout=4, seed=3,
        )
        tree = group.multicast_from(group.random_member(Random(1)))
        assert max(tree.children_counts().values()) <= 4

    def test_non_member_source_rejected(self):
        """The kernel's one membership check answers for the facade,
        with the same message, on every registry system."""
        for descriptor in all_descriptors():
            group = MulticastGroup.build(
                descriptor, bandwidths(10), per_link_kbps=100, space_bits=12
            )
            ident = next(x for x in range(4096) if x not in group.snapshot)
            message = f"source {ident} is not a group member"
            with pytest.raises(KeyError, match=f"^'{message}'$"):
                group.multicast_from(Node(ident=ident, capacity=4))

    def test_lookup_delegates(self):
        group = MulticastGroup.build(
            SystemKind.CAM_CHORD, bandwidths(40), per_link_kbps=100, space_bits=12
        )
        start = group.random_member(Random(2))
        result = group.lookup(start, 123)
        assert result.responsible.ident == group.snapshot.resolve(123).ident
