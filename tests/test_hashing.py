"""Tests for the member-to-identifier mapping."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.idspace.hashing import assign_identifiers, hash_to_identifier
from repro.idspace.ring import IdentifierSpace


class TestHashToIdentifier:
    def test_deterministic(self):
        space = IdentifierSpace(19)
        assert hash_to_identifier("host-1", space) == hash_to_identifier(
            "host-1", space
        )

    def test_in_range(self):
        space = IdentifierSpace(19)
        for i in range(100):
            assert space.contains(hash_to_identifier(f"host-{i}", space))

    def test_salt_changes_result(self):
        space = IdentifierSpace(19)
        plain = hash_to_identifier("host-1", space)
        salted = hash_to_identifier("host-1", space, salt=1)
        assert plain != salted  # SHA-1 collision here would be news


class TestAssignIdentifiers:
    def test_distinct_even_in_tiny_space(self):
        space = IdentifierSpace(4)  # N = 16: collisions guaranteed
        mapping = assign_identifiers([f"m{i}" for i in range(16)], space)
        assert len(set(mapping.values())) == 16

    def test_rejects_overfull_group(self):
        space = IdentifierSpace(3)
        with pytest.raises(ValueError, match="cannot map"):
            assign_identifiers([f"m{i}" for i in range(9)], space)

    def test_rejects_duplicate_names(self):
        space = IdentifierSpace(8)
        with pytest.raises(ValueError, match="duplicate"):
            assign_identifiers(["a", "a"], space)

    def test_deterministic_mapping(self):
        space = IdentifierSpace(10)
        names = [f"host-{i}" for i in range(50)]
        assert assign_identifiers(names, space) == assign_identifiers(names, space)

    def test_empty_group(self):
        assert assign_identifiers([], IdentifierSpace(8)) == {}


@given(st.integers(min_value=1, max_value=200))
def test_assignment_is_injective(count):
    space = IdentifierSpace(16)
    mapping = assign_identifiers([f"h{i}" for i in range(count)], space)
    assert len(set(mapping.values())) == count
