"""The CAM-Chord MULTICAST routine (Section 3.4).

``x.MULTICAST(msg, k)`` delivers ``msg`` to every member in the
clockwise segment ``(x, k]``: ``x`` picks up to ``c_x`` neighbors that
split ``(x, k]`` into subregions as even as possible and hands each
chosen neighbor the subregion it is responsible for.  The collective
recursive execution traces an implicit, roughly balanced,
degree-varying multicast tree in which no node exceeds its capacity.

Two engineering notes beyond the paper's pseudo code:

* On a sparse ring several neighbor *identifiers* can resolve to the
  same physical node, or resolve past the end of the remaining region.
  Each child send is therefore guarded by "resolved node lies in
  ``(x, k']``".  The guard fails exactly when the identifier span
  ``[x_{i,m}, k']`` contains no member, so skipping it loses nobody —
  and it is what makes the exactly-once delivery invariant hold
  unconditionally (property-tested in
  ``tests/test_multicast_invariants.py``).
* The paper's pseudo code floors the running position ``l`` when
  spreading spare capacity over level-``(i-1)`` neighbors, but its own
  worked example (x with capacity 3 forwarding to ``x_{2,2}``,
  Figure 3) requires the ceiling: floor would pick ``x_{2,1}``.  We
  follow the worked example.

The child-selection core is a pure function over a *resolver*, which
the live protocol peers (local, possibly stale neighbor tables) run hop
by hop.  The structural simulation runs the same selection as runs of
rows in the flat-array kernel; both take the spare-capacity slots from
:func:`~repro.overlay.cam_chord.spare_sequences`.
"""

from __future__ import annotations

from typing import Callable

from repro.idspace.ring import segment_contains, segment_size
from repro.overlay.base import Node
from repro.overlay.cam_chord import level_and_sequence, spare_sequences

#: Maps a neighbor identifier (with its level and sequence number) to
#: the identifier of the node believed responsible for it, or None when
#: the caller has no usable link for that slot.
NeighborResolver = Callable[[int, int, int], "int | None"]


def select_child_regions(
    ident: int,
    capacity: int,
    bits: int,
    limit: int,
    resolver: NeighborResolver,
) -> list[tuple[int, int]]:
    """One execution of the MULTICAST child selection (lines 4-15).

    Returns ``(child_ident, subregion_limit)`` pairs: each child becomes
    responsible for ``(child_ident, subregion_limit]``.  The subregions
    are pairwise disjoint and, together with the children themselves,
    exactly cover the members of ``(ident, limit]`` — provided the
    resolver answers with the true responsible nodes.  With stale
    resolver answers (live protocol under churn) the same code runs,
    and any coverage gap becomes a measured delivery loss.
    """
    size = 1 << bits
    distance = segment_size(ident, limit, size)
    if distance == 0:
        return []
    level, sequence = level_and_sequence(distance, capacity)

    selected: list[tuple[int, int]] = []
    remaining_limit = limit

    def consider(lvl: int, seq: int) -> None:
        """Guarded child send: assign (child, remaining_limit] and shrink
        the remaining region to (ident, neighbor_identifier - 1].

        The region shrinks only when a child was actually selected.  On
        a global snapshot the distinction is invisible — a skipped
        span provably holds no member, so whether it is cut off or
        rolled into the next child's region, the resulting tree is the
        same.  A live peer's resolver, however, answers ``None`` for a
        slot it has *no link* for, and members may well live in that
        span: leaving the limit untouched hands the span to the next
        selected child instead of silently dropping it.
        """
        nonlocal remaining_limit
        neighbor_ident = (ident + seq * capacity**lvl) % size
        child = resolver(lvl, seq, neighbor_ident)
        if child is not None and segment_contains(child, ident, remaining_limit, size):
            selected.append((child, remaining_limit))
            remaining_limit = (neighbor_ident - 1) % size

    # Lines 6-9: level-i neighbors preceding k, highest sequence first.
    for seq in range(sequence, 0, -1):
        consider(level, seq)

    # Lines 10-14: spread the spare capacity over level-(i-1) neighbors,
    # as evenly separated as possible (ceiling; see module docstring).
    if level >= 1:
        for seq in reversed(spare_sequences(capacity, sequence)):
            consider(level - 1, seq)

    # Line 15: the successor x_{0,1} picks up whatever remains.
    consider(0, 1)
    return selected


def cam_chord_multicast(overlay, source: Node):
    """Run a full multicast from ``source`` and return the implicit tree.

    Accepts a :class:`CamChordOverlay` (capacity-aware) or a plain
    :class:`~repro.overlay.chord.ChordOverlay` (uniform fanout — the
    Figure 6 "Chord" baseline).

    Equivalent to the paper's ``x.MULTICAST(msg, x - 1)``: the initial
    region is the whole ring except the source.  Executed by the
    flat-array kernel (:mod:`repro.multicast.kernel`): breadth-first
    over member indices, each region a run of rows, so only a slot that
    holds a child is looked at (at most n - 1 directory probes a tree)
    and no member with an empty region is visited; edge-for-edge
    identical to a breadth-first dict recorder over
    :func:`select_child_regions` (``tests/test_kernel.py``).  Raises
    ``KeyError`` when ``source`` is not a member.
    """
    from repro.multicast.kernel import region_split_tree

    return region_split_tree(overlay, source)
