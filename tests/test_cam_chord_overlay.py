"""CAM-Chord overlay: neighbor arithmetic and lookup correctness."""

from __future__ import annotations

import math
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.cam_chord import CamChordOverlay, level_and_sequence
from tests.conftest import make_snapshot, random_snapshot


class TestLevelAndSequence:
    def test_small_distances(self):
        # distances below the capacity live at level 0 with j = distance
        for d in range(1, 5):
            assert level_and_sequence(d, 5) == (0, d)

    def test_level_boundaries(self):
        assert level_and_sequence(4, 5) == (0, 4)
        assert level_and_sequence(5, 5) == (1, 1)
        assert level_and_sequence(24, 5) == (1, 4)
        assert level_and_sequence(25, 5) == (2, 1)

    def test_matches_float_formula_everywhere(self):
        """The integer arithmetic equals eqns (1)-(2) (floats are only
        trustworthy away from boundaries, so compare via invariants)."""
        for capacity in (2, 3, 7, 10):
            for distance in range(1, 3000):
                level, seq = level_and_sequence(distance, capacity)
                power = capacity**level
                assert power <= distance < power * capacity
                assert seq == distance // power
                assert 1 <= seq <= capacity - 1 or level == 0

    def test_sequence_bounds(self):
        for capacity in (2, 3, 4, 9):
            for distance in range(1, 2000):
                level, seq = level_and_sequence(distance, capacity)
                assert 1 <= seq < capacity

    def test_validation(self):
        with pytest.raises(ValueError):
            level_and_sequence(0, 3)
        with pytest.raises(ValueError):
            level_and_sequence(5, 1)


class TestNeighborTable:
    def test_capacity_two_is_classic_chord(self):
        snap = random_snapshot(10, 30, seed=3, capacity_range=(2, 2))
        overlay = CamChordOverlay(snap)
        node = snap.nodes[0]
        idents = sorted(overlay.neighbor_identifiers(node))
        expected = sorted(
            (node.ident + 2**i) % 1024 for i in range(10)
        )
        assert idents == expected

    def test_neighbor_count_scales_with_capacity(self):
        """|table| ~ (c-1) * ceil(log_c N): higher capacity, more ids."""
        snap = make_snapshot(19, [0, 100, 200], capacity=[2, 8, 64])
        overlay = CamChordOverlay(snap)
        counts = {
            n.capacity: len(overlay.neighbor_identifiers(n)) for n in snap
        }
        assert counts[2] == 19
        # capacity 8 over 2**19: six full levels of 7 identifiers plus a
        # truncated top level (only 1*8**6 < 2**19)
        assert counts[8] == 6 * 7 + 1
        # 64**4 > 2**19, so 4 levels but the top level is truncated
        assert counts[64] > counts[8] > counts[2]

    def test_rejects_capacity_below_two(self):
        snap = make_snapshot(8, [0, 10], capacity=1)
        with pytest.raises(ValueError, match="capacity >= 2"):
            CamChordOverlay(snap)

    def test_neighbors_distinct_and_never_self(self):
        snap = random_snapshot(12, 50, seed=9)
        overlay = CamChordOverlay(snap)
        for node in snap:
            neighbors = overlay.neighbors(node)
            idents = [n.ident for n in neighbors]
            assert len(idents) == len(set(idents))
            assert node.ident not in idents


class TestLookup:
    def test_every_key_from_every_start_small(self):
        snap = make_snapshot(7, [0, 5, 17, 40, 41, 90, 100, 127], capacity=3)
        overlay = CamChordOverlay(snap)
        for start in snap:
            for key in range(128):
                result = overlay.lookup(start, key)
                assert result.responsible.ident == snap.resolve(key).ident

    def test_single_node(self):
        snap = make_snapshot(7, [9], capacity=3)
        overlay = CamChordOverlay(snap)
        result = overlay.lookup(snap.node_at(9), 100)
        assert result.responsible.ident == 9
        assert result.hops == 0

    def test_hop_count_scaling(self):
        """Theorem 2: expected lookup length is O(log n / log c)."""
        rng = Random(4)
        snap = random_snapshot(19, 3000, seed=4, capacity_range=(8, 8))
        overlay = CamChordOverlay(snap)
        hops = []
        for _ in range(300):
            start = snap.random_node(rng)
            key = rng.randrange(2**19)
            hops.append(overlay.lookup(start, key).hops)
        mean = sum(hops) / len(hops)
        bound = 3 * math.log(3000) / math.log(8)  # generous constant
        assert mean <= bound

    def test_path_is_monotone_toward_key(self):
        snap = random_snapshot(14, 200, seed=6)
        overlay = CamChordOverlay(snap)
        rng = Random(1)
        for _ in range(50):
            start = snap.random_node(rng)
            key = rng.randrange(2**14)
            result = overlay.lookup(start, key)
            # The responsible node may sit just past the key, so check
            # monotonicity over the forwarding hops only.
            forwarding = result.path[:-1] if len(result.path) > 1 else result.path
            distances = [
                overlay.space.segment_size(node.ident, key) for node in forwarding
            ]
            # clockwise distance to the key strictly shrinks hop by hop
            assert all(a > b for a, b in zip(distances, distances[1:]))


@settings(max_examples=40, deadline=None)
@given(
    idents=st.sets(st.integers(min_value=0, max_value=1023), min_size=2, max_size=60),
    capacity=st.integers(min_value=2, max_value=12),
    key=st.integers(min_value=0, max_value=1023),
    start_index=st.integers(min_value=0),
)
def test_lookup_always_finds_responsible(idents, capacity, key, start_index):
    snap = make_snapshot(10, sorted(idents), capacity=capacity)
    overlay = CamChordOverlay(snap)
    start = snap.nodes[start_index % len(snap.nodes)]
    result = overlay.lookup(start, key)
    assert result.responsible.ident == snap.resolve(key).ident
