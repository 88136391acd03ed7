"""Unit and property tests for the identifier-ring arithmetic."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.idspace.ring import (
    IdentifierSpace,
    segment_contains,
    segment_size,
)

SPACE = IdentifierSpace(8)  # N = 256: small enough for brute force


class TestSegmentSize:
    def test_empty_segment(self):
        assert segment_size(5, 5, 256) == 0

    def test_simple(self):
        assert segment_size(3, 10, 256) == 7

    def test_wraparound(self):
        assert segment_size(250, 4, 256) == 10

    def test_full_ring_minus_one(self):
        assert segment_size(5, 4, 256) == 255

    def test_space_method_matches(self):
        assert SPACE.segment_size(250, 4) == 10


class TestSegmentContains:
    def test_basic_membership(self):
        assert segment_contains(5, 3, 10, 256)
        assert segment_contains(10, 3, 10, 256)  # right end inclusive
        assert not segment_contains(3, 3, 10, 256)  # left end exclusive
        assert not segment_contains(11, 3, 10, 256)

    def test_wraparound_membership(self):
        assert segment_contains(255, 250, 4, 256)
        assert segment_contains(0, 250, 4, 256)
        assert segment_contains(4, 250, 4, 256)
        assert not segment_contains(250, 250, 4, 256)
        assert not segment_contains(5, 250, 4, 256)

    def test_empty_segment_contains_nothing(self):
        for z in range(256):
            assert not segment_contains(z, 7, 7, 256)


class TestIdentifierSpace:
    def test_size(self):
        assert IdentifierSpace(19).size == 2**19

    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            IdentifierSpace(0)

    def test_add_sub_wrap(self):
        assert SPACE.add(250, 10) == 4
        assert SPACE.sub(4, 10) == 250

    def test_contains(self):
        assert SPACE.contains(0)
        assert SPACE.contains(255)
        assert not SPACE.contains(256)
        assert not SPACE.contains(-1)

    def test_normalize(self):
        assert SPACE.normalize(256) == 0
        assert SPACE.normalize(-1) == 255

    def test_top_low_bits(self):
        x = 0b10110100
        assert SPACE.low_bits(x, 3) == 0b100
        assert SPACE.low_bits(x, 0) == 0
        assert SPACE.low_bits(x, 8) == x

    def test_top_bits_rejects_out_of_range_count(self):
        with pytest.raises(ValueError):
            SPACE.low_bits(1, 9)
        with pytest.raises(ValueError):
            SPACE.low_bits(1, -1)


# -- property tests -----------------------------------------------------

ids = st.integers(min_value=0, max_value=255)


@given(ids, ids, ids)
def test_segment_partition_property(x, y, z):
    """Every z != x is in exactly one of (x, y] and (y, x] when x != y."""
    if x == y:
        return
    in_first = segment_contains(z, x, y, 256)
    in_second = segment_contains(z, y, x, 256)
    if z == x:
        assert not in_first
        assert in_second  # x is the inclusive right end of (y, x]
    else:
        assert in_first != in_second


@given(ids, ids)
def test_segment_sizes_complementary(x, y):
    if x == y:
        assert segment_size(x, y, 256) == 0
    else:
        assert segment_size(x, y, 256) + segment_size(y, x, 256) == 256


@given(ids, ids)
def test_segment_size_matches_enumeration(x, y):
    members = [z for z in range(256) if segment_contains(z, x, y, 256)]
    assert len(members) == segment_size(x, y, 256)
