"""Property tests for the optimized snapshot hot paths.

``resolve_index`` / ``nodes_in_segment`` were rewritten around the
compact identifier array; each is checked here against a brute-force
reference on randomly generated rings.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.idspace.ring import IdentifierSpace
from repro.overlay.base import Node, RingSnapshot
from tests.conftest import make_snapshot

BITS = st.integers(min_value=3, max_value=10)


def ring(data, bits: int, min_size: int = 1) -> RingSnapshot:
    size = 1 << bits
    idents = data.draw(
        st.sets(st.integers(0, size - 1), min_size=min_size, max_size=32)
    )
    return make_snapshot(bits, sorted(idents))


def naive_resolve(snap: RingSnapshot, ident: int, size: int) -> Node:
    """Reference x-hat: first node clockwise at or after the identifier."""
    target = ident % size
    for node in snap.nodes:
        if node.ident >= target:
            return node
    return snap.nodes[0]


def naive_segment(
    snap: RingSnapshot, x: int, y: int, size: int, limit: int | None
) -> list[Node]:
    """Reference (x, y] walk: step the ring one identifier at a time."""
    if limit is not None and limit <= 0:
        return []
    out: list[Node] = []
    for step in range(1, ((y - x) % size) + 1):
        ident = (x + step) % size
        if snap.index_of(ident) is not None:
            out.append(snap.node_at(ident))
            if limit is not None and len(out) == limit:
                break
    return out


class TestResolveIndex:
    @settings(max_examples=80, deadline=None)
    @given(bits=BITS, data=st.data())
    def test_matches_naive_resolution(self, bits, data):
        snap = ring(data, bits)
        size = 1 << bits
        probe = data.draw(st.integers(min_value=-size, max_value=2 * size))
        index = snap.resolve_index(probe)
        assert snap.resolve(probe) == snap.nodes[index]
        assert snap.nodes[index] == naive_resolve(snap, probe, size)

    def test_identifiers_property_is_ring_order(self):
        snap = make_snapshot(5, [29, 4, 13, 0])
        assert list(snap.identifiers) == [0, 4, 13, 29]


class TestNodesInSegment:
    @settings(max_examples=80, deadline=None)
    @given(bits=BITS, data=st.data())
    def test_matches_naive_walk(self, bits, data):
        snap = ring(data, bits)
        size = 1 << bits
        x = data.draw(st.integers(0, size - 1))
        y = data.draw(st.integers(0, size - 1))
        limit = data.draw(st.one_of(st.none(), st.integers(0, 8)))
        assert snap.nodes_in_segment(x, y, limit) == naive_segment(
            snap, x, y, size, limit
        )

    def test_unlimited_scan_stops_after_one_wrap(self):
        """limit=None over an almost-full wrap returns every other member
        exactly once — the scan is bounded by construction, not by limit."""
        snap = make_snapshot(5, [0, 4, 8, 13, 18, 21, 26, 29])
        members = snap.nodes_in_segment(4, 3, limit=None)
        assert [node.ident for node in members] == [8, 13, 18, 21, 26, 29, 0]

    def test_single_node_full_wrap(self):
        snap = make_snapshot(5, [7])
        # (6, 5] walks the whole ring bar 6 and finds the lone member ...
        assert snap.nodes_in_segment(6, 5, limit=None) == [snap.node_at(7)]
        # ... while (7, 6] excludes 7 itself, and a zero span is empty.
        assert snap.nodes_in_segment(7, 6, limit=None) == []
        assert snap.nodes_in_segment(7, 7, limit=None) == []


class TestDerivedSnapshots:
    def test_from_columns_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one node"):
            RingSnapshot.from_columns(IdentifierSpace(5), [], [])
