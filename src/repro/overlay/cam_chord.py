"""CAM-Chord: the capacity-aware Chord extension of Section 3.

Node ``x`` with capacity ``c_x`` keeps neighbors responsible for the
identifiers ``(x + j * c_x**i) mod N`` for ``j in [1..c_x-1]`` and
``i in [0..ceil(log N / log c_x) - 1]``.  ``i`` is the *level* and
``j`` the *sequence number*.  With ``c_x == 2`` this degenerates to the
classic Chord finger table, which is why the plain-Chord baseline
shares this module's arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from math import ceil

from repro.overlay.base import LookupResult, Node, Overlay, RingSnapshot


def level_and_sequence(distance: int, capacity: int) -> tuple[int, int]:
    """Equations (1)-(2): level ``i`` and sequence ``j`` of an identifier.

    For an identifier ``k`` at clockwise distance ``distance = (k - x)
    mod N >= 1`` from node ``x`` with capacity ``capacity >= 2``:

    * ``i = floor(log(distance) / log(capacity))``
    * ``j = floor(distance / capacity**i)``

    so that ``x + j * capacity**i`` is the neighbor identifier of ``x``
    counter-clockwise closest to ``k``.  Computed with exact integer
    arithmetic — float logs misplace identifiers near level boundaries.
    """
    if distance < 1:
        raise ValueError(f"distance must be >= 1, got {distance}")
    if capacity < 2:
        raise ValueError(f"capacity must be >= 2, got {capacity}")
    level = 0
    power = 1  # capacity ** level
    while power * capacity <= distance:
        power *= capacity
        level += 1
    return level, distance // power


@lru_cache(maxsize=4096)
def spare_sequences(capacity: int, sequence: int) -> tuple[int, ...]:
    """Section 3.4 lines 10-14: the level-``(i-1)`` sequence numbers
    over which a node at level ``i``, sequence ``sequence`` spreads its
    spare capacity, ascending.

    The running position steps down from ``capacity`` by ``capacity /
    (capacity - sequence)`` and each slot takes its ceiling (the
    paper's pseudo code floors, but its Figure 3 worked example needs
    the ceiling).  The step exceeds 1, so the slots are strictly
    increasing; a caller that walks them highest first iterates the
    tuple reversed.
    """
    position = float(capacity)
    step = capacity / (capacity - sequence)
    out = []
    for _ in range(capacity - sequence - 1):
        position -= step
        out.append(ceil(position))
    return tuple(reversed(out))


def slot_identifiers(ident: int, capacity: int, bits: int) -> list[tuple[int, int, int]]:
    """All neighbor slots of a node: ``(level, sequence, identifier)``.

    Slots enumerate ``(x + j * c**i) mod N`` for ``j in [1..c-1]`` and
    every level whose offsets stay within one turn of the ring.  Used
    by both the snapshot overlay and the live protocol peers (whose
    neighbor *tables* are keyed by these slots).
    """
    if capacity < 2:
        raise ValueError(f"capacity must be >= 2, got {capacity}")
    size = 1 << bits
    out: list[tuple[int, int, int]] = []
    power = 1
    level = 0
    while power < size:
        for sequence in range(1, capacity):
            offset = sequence * power
            if offset >= size:
                break
            out.append((level, sequence, (ident + offset) % size))
        power *= capacity
        level += 1
    return out


def neighbor_levels(capacity: int, space_bits: int) -> int:
    """Number of neighbor levels: the smallest ``L`` with ``c**L >= N``."""
    if capacity < 2:
        raise ValueError(f"capacity must be >= 2, got {capacity}")
    size = 1 << space_bits
    levels = 0
    power = 1
    while power < size:
        power *= capacity
        levels += 1
    return levels


class CamChordOverlay(Overlay):
    """CAM-Chord over a membership snapshot.

    ``fanout`` is the node's own capacity; lookups follow the greedy
    closest-preceding-neighbor rule of Section 3.2 and terminate in
    ``O(log n / log c)`` hops (Theorem 2).
    """

    #: Smallest capacity for which the neighbor table covers the ring.
    MIN_CAPACITY = 2

    def __init__(self, snapshot: RingSnapshot) -> None:
        super().__init__(snapshot)
        # Validate over the flat capacity column: O(n) machine words,
        # no node materialization.
        capacities = snapshot.capacities
        if min(capacities) < self.MIN_CAPACITY:
            index = next(
                i for i, c in enumerate(capacities) if c < self.MIN_CAPACITY
            )
            raise ValueError(
                f"CAM-Chord requires capacity >= {self.MIN_CAPACITY}, "
                f"node {snapshot.identifiers[index]} has {capacities[index]}"
            )

    def fanout(self, node: Node) -> int:
        return node.capacity

    def neighbor_identifiers(self, node: Node) -> list[int]:
        """All ``x + j * c**i`` identifiers within one turn of the ring."""
        return [
            identifier
            for _, _, identifier in slot_identifiers(
                node.ident, node.capacity, self.space.bits
            )
        ]

    def neighbor_identifier(self, node: Node, level: int, sequence: int) -> int:
        """The identifier ``x_{i,j} = (x + j * c_x**i) mod N``."""
        if level < 0:
            raise ValueError(f"level must be >= 0, got {level}")
        if not 0 <= sequence < node.capacity:
            raise ValueError(
                f"sequence must be in [0, {node.capacity}), got {sequence}"
            )
        return self.space.add(node.ident, sequence * node.capacity**level)

    def lookup(self, start: Node, key: int) -> LookupResult:
        """Section 3.2 LOOKUP: greedy descent through neighbor levels."""
        space = self.space
        snapshot = self.snapshot
        current = start
        hops = 0
        path = [start]
        while True:
            if len(snapshot) == 1:
                return LookupResult(current, hops, path)
            predecessor = snapshot.predecessor(current)
            if space.in_segment(key, predecessor.ident, current.ident):
                # ``current`` itself is responsible (k in (pred(x), x]).
                return LookupResult(current, hops, path)
            successor = snapshot.successor(current)
            if space.in_segment(key, current.ident, successor.ident):
                path.append(successor)
                return LookupResult(successor, hops, path)
            distance = space.segment_size(current.ident, key)
            level, sequence = level_and_sequence(distance, current.capacity)
            ident = self.neighbor_identifier(current, level, sequence)
            neighbor = snapshot.resolve(ident)
            if space.in_segment(key, current.ident, neighbor.ident):
                # No member between the neighbor identifier and ``key``:
                # the resolved neighbor is responsible for ``key``.
                path.append(neighbor)
                return LookupResult(neighbor, hops, path)
            if neighbor.ident == current.ident:
                raise AssertionError(
                    f"lookup stalled at node {current.ident} for key {key}"
                )
            current = neighbor
            hops += 1
            path.append(neighbor)
