"""CAM-Koorde: the capacity-aware de Bruijn overlay of Section 4.

Node ``x`` has exactly ``c_x`` neighbors, in three groups (all
arithmetic modulo ``N = 2**b``):

* **basic** (mandatory, 4 links): predecessor, successor, and the
  nodes responsible for ``x/2`` and ``2**(b-1) + x/2``;
* **second**: with ``s = floor(log2(c_x - 4))`` and ``t = 2**s`` when
  ``s > 1`` (``t = 0`` otherwise), the nodes responsible for
  ``i * 2**(b-s) + x/2**s`` for ``i in [0..t-1]``;
* **third**: with ``s' = s + 1`` and ``t' = c_x - 4 - t``, the nodes
  responsible for ``i * 2**(b-s') + x/2**s'`` for ``i in [0..t'-1]``.

Unlike Koorde — which shifts *left* so neighbor identifiers differ in
their low-order bits and cluster on the ring — CAM-Koorde shifts
*right* and varies the high-order bits, spreading a node's neighbors
evenly around the ring.  That spread is what makes flooding-based
multicast produce balanced implicit trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.overlay.base import LookupResult, Node, Overlay, RingSnapshot


@dataclass(frozen=True)
class NeighborGroups:
    """The identifier groups of one CAM-Koorde node.

    ``basic_shift`` holds the two de Bruijn identifiers of the basic
    group (``x/2`` and ``2**(b-1) + x/2``); the predecessor/successor
    half of the basic group is membership-relative and therefore not an
    identifier list.
    """

    basic_shift: tuple[int, int]
    second: tuple[int, ...] = field(default=())
    third: tuple[int, ...] = field(default=())

    def all_identifiers(self) -> list[int]:
        """Every de Bruijn identifier, basic group first."""
        return [*self.basic_shift, *self.second, *self.third]


def _group_sizes(capacity: int) -> tuple[int, int, int]:
    """``(s, t, t')`` of Section 4.1: the second group's shift and the
    second and third groups' sizes (the third group shifts by s + 1)."""
    extra = capacity - 4
    shift = max(extra, 1).bit_length() - 1  # s = floor(log2(c - 4))
    second_count = (1 << shift) if shift > 1 else 0  # t
    return shift, second_count, extra - second_count


@lru_cache(maxsize=512)
def cam_koorde_shift_groups(capacity: int, bits: int) -> tuple[tuple[int, int], ...]:
    """Section 4.1 for every node of one capacity: one ``(shift,
    count)`` pair per group — basic, second, third — standing for the
    neighbor identifiers ``(i << (bits - shift)) + (x >> shift)`` of
    node ``x``, ``i`` in ``[0..count-1]``: an evenly strided run.

    Requires ``capacity >= 4`` (the basic group is mandatory); checked
    once per distinct ``(capacity, bits)``.  Shifts are capped at
    ``bits``, so a capacity beyond the space's width still names
    identifiers on the ring (its run laps it every ``2**shift``).
    """
    if capacity < 4:
        raise ValueError(f"CAM-Koorde requires capacity >= 4, got {capacity}")
    if bits < 2:
        raise ValueError(f"CAM-Koorde needs an identifier space of >= 2 bits")
    shift, second_count, third_count = _group_sizes(capacity)
    return (
        (1, 2),
        (min(shift, bits), second_count),
        (min(shift + 1, bits), third_count),
    )


def cam_koorde_neighbor_groups(ident: int, capacity: int, bits: int) -> NeighborGroups:
    """Compute the Section 4.1 neighbor identifier groups of ``ident``,
    each identifier reduced into the space.

    The construction is validated against the paper's Figure 4 example
    (node 36, capacity 10, ``b = 6``) in the test suite.
    """
    groups = cam_koorde_shift_groups(capacity, bits)
    size = 1 << bits
    if not 0 <= ident < size:
        raise ValueError(f"identifier {ident} outside space of {size}")
    return NeighborGroups(
        *(
            tuple((i << (bits - shift)) % size + (ident >> shift) for i in range(count))
            for shift, count in groups
        )
    )


class CamKoordeOverlay(Overlay):
    """CAM-Koorde over a membership snapshot.

    ``fanout`` is the node's capacity; lookups follow the ps-common-bit
    greedy routine of Section 4.2 with a visited-set safeguard (the
    greedy rule alone is not loop-free on sparse rings, so real
    deployments carry the path in the request — we do the same).
    """

    #: The basic neighbor group needs four links.
    MIN_CAPACITY = 4

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
                f"CAM-Koorde requires capacity >= {self.MIN_CAPACITY}, "
                f"node {snapshot.identifiers[index]} has {capacities[index]}"
            )

    def fanout(self, node: Node) -> int:
        return node.capacity

    def neighbor_groups(self, node: Node) -> NeighborGroups:
        """The node's Section 4.1 identifier groups."""
        return cam_koorde_neighbor_groups(node.ident, node.capacity, self.space.bits)

    def neighbor_identifiers(self, node: Node) -> list[int]:
        return self.neighbor_groups(node).all_identifiers()

    def neighbors(self, node: Node) -> list[Node]:
        """Ring neighbors plus resolved shift-group neighbors, distinct
        (cached: the membership snapshot is immutable)."""
        cached = self._neighbor_cache.get(node.ident)
        if cached is not None:
            return cached
        out: list[Node] = []
        seen: set[int] = set()
        for candidate in (
            self.snapshot.predecessor(node),
            self.snapshot.successor(node),
            *(self.snapshot.resolve(i) for i in self.neighbor_identifiers(node)),
        ):
            if candidate.ident != node.ident and candidate.ident not in seen:
                seen.add(candidate.ident)
                out.append(candidate)
        self._neighbor_cache[node.ident] = out
        return out

    def lookup(self, start: Node, key: int) -> LookupResult:
        """Section 4.2 LOOKUP via an imaginary-identifier chain.

        The routine "forwards the lookup request along a chain of
        neighbors whose identifiers share progressively more ps-common
        bits with k", and — critically for sparse rings — "the request
        is forwarded to y-hat, which in turn calculates its neighbor
        identifier that *should* be the next on the forwarding path":
        the chain is computed over identifiers, Koorde-style, while the
        request physically visits the nodes responsible for them.
        Matching the greedy rule against *resolved node* identifiers
        instead would stall once the match length reaches ~log2(n),
        because resolution perturbs an identifier's low-order bits.

        Each step prepends the next chunk of ``key``'s bits (just above
        the current ps-common run) to the right-shifted imaginary
        identifier; the chunk width is the widest the current node's
        neighbor groups support (third group: ``s + 1`` bits when the
        chunk value is below ``t'``; second group: ``s`` bits; basic
        group: one bit, always available).  After at most ``b``
        injected bits the imaginary identifier *is* ``key`` and the
        responsible node has been reached.
        """
        space = self.space
        snapshot = self.snapshot
        bits = space.bits
        current = start
        hops = 0
        path = [start]
        if len(snapshot) == 1:
            return LookupResult(current, hops, path)

        imaginary, matched = self._best_imaginary_start(current, key)
        while True:
            predecessor = snapshot.predecessor(current)
            if space.in_segment(key, predecessor.ident, current.ident):
                return LookupResult(current, hops, path)
            successor = snapshot.successor(current)
            if space.in_segment(key, current.ident, successor.ident):
                path.append(successor)
                return LookupResult(successor, hops, path)
            if matched >= bits:  # pragma: no cover - defensive
                raise AssertionError(
                    f"imaginary chain exhausted without reaching {key}"
                )
            width, value = self._injection_chunk(current, key, matched)
            imaginary = ((value << (bits - width)) | (imaginary >> width)) % space.size
            matched += width
            nxt = snapshot.resolve(imaginary)
            if nxt.ident != current.ident:
                current = nxt
                hops += 1
                path.append(nxt)

    def _best_imaginary_start(self, node: Node, key: int) -> tuple[int, int]:
        """Pick the identifier in ``(pred(node), node]`` whose prefix
        matches the longest suffix of ``key`` (fewest bits left to
        inject).  Analogue of Koorde's best-imaginary-node trick."""
        space = self.space
        bits = space.bits
        predecessor = self.snapshot.predecessor(node)
        first = space.add(predecessor.ident, 1)
        segment = space.segment_size(predecessor.ident, node.ident)
        for matched in range(bits - 1, 0, -1):
            block_start = space.low_bits(key, matched) << (bits - matched)
            block_size = 1 << (bits - matched)
            # Does [block_start, block_start + block_size) intersect the
            # ring segment [first, first + segment)?
            offset = (block_start - first) % space.size
            if offset < segment:
                return space.normalize(block_start + 0), matched
            if (first - block_start) % space.size < block_size:
                return first, matched
        return node.ident, 0

    def _injection_chunk(self, node: Node, key: int, matched: int) -> tuple[int, int]:
        """Widest bit chunk of ``key`` (just above the ``matched``-bit
        suffix) that ``node``'s neighbor groups can inject.

        Returns ``(width, value)``.  The basic group (identifiers
        ``x/2`` and ``2**(b-1) + x/2``) always supports one bit of
        either value, so a chunk always exists.
        """
        bits = self.space.bits
        remaining = bits - matched
        shift, second_count, third_count = _group_sizes(node.capacity)
        third_width = min(shift + 1, bits)  # s'
        if third_count > 0 and third_width <= remaining:
            value = (key >> matched) & ((1 << third_width) - 1)
            if value < third_count:
                return third_width, value
        if second_count > 0 and shift <= remaining:
            return shift, (key >> matched) & ((1 << shift) - 1)
        return 1, (key >> matched) & 1
