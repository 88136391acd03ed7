"""Identifier-space primitives shared by every overlay.

The paper (Section 2) defines a circular identifier space ``[0, N-1]``
with ``N = 2**b``, segments ``(x, y]`` that move clockwise and segment
sizes ``(y - x) mod N``.  This package implements that arithmetic
exactly, plus the SHA-1 based member-to-identifier mapping.
"""

from repro.idspace.ring import (
    IdentifierSpace,
    segment_contains,
    segment_size,
)
from repro.idspace.hashing import hash_to_identifier, assign_identifiers

__all__ = [
    "IdentifierSpace",
    "segment_contains",
    "segment_size",
    "hash_to_identifier",
    "assign_identifiers",
]
