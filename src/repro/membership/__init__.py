"""Shared membership representation for the million-member scale tier.

One contiguous buffer per sweep point (:mod:`repro.membership.buffer`)
plus the publish/install/acquire exchange the parallel engine moves it
through (:mod:`repro.membership.exchange`).
"""

from repro.membership.buffer import (
    BufferHandle,
    InlineHandle,
    MemberBuffer,
    ShmHandle,
)

__all__ = [
    "BufferHandle",
    "InlineHandle",
    "MemberBuffer",
    "ShmHandle",
]
