"""Membership snapshot and the common overlay interface.

A :class:`RingSnapshot` is an immutable view of the group at one
instant, stored as parallel columns in ring order.  Identifier
resolution (``x-hat`` in the paper: the node responsible for an
identifier) is a binary search over the identifier column; tree
extraction, which resolves millions of identifiers per figure, goes
through the snapshot's :class:`RingIndex` instead — one O(n) derived
structure that answers a resolution in one probe.  This is what makes
the paper's scale tractable in pure Python.
"""

from __future__ import annotations

import sys
from abc import ABC, abstractmethod
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, islice, repeat
from operator import ge, rshift
from random import Random
from typing import Iterable, Iterator, Sequence

from repro import perf
from repro.idspace.ring import IdentifierSpace


@dataclass(frozen=True)
class Node:
    """One group member.

    ``capacity`` is the paper's ``c_x``: the maximum number of direct
    multicast children the node accepts.  ``bandwidth_kbps`` is its
    upload bandwidth ``B_x``; the throughput model divides it evenly
    among the node's tree children.
    """

    ident: int
    capacity: int
    bandwidth_kbps: float = 0.0
    name: str = ""

    def __post_init__(self) -> None:
        if self.ident < 0:
            raise ValueError(f"identifier must be >= 0, got {self.ident}")
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if self.bandwidth_kbps < 0:
            raise ValueError(f"bandwidth must be >= 0, got {self.bandwidth_kbps}")

    def __repr__(self) -> str:  # compact: snapshots hold 1e5 of these
        return f"Node({self.ident}, c={self.capacity})"


def _node_columns(nodes: Iterable[Node]) -> tuple[list, list, list, list]:
    """Split nodes into the snapshot's four columns, order unchanged."""
    members = list(nodes)
    return (
        [node.ident for node in members],
        [node.capacity for node in members],
        [node.bandwidth_kbps for node in members],
        [node.name for node in members],
    )


def _capacity_column(capacities: Sequence[int], count: int) -> array:
    """A snapshot's capacity column: ``count`` values, each at least 1."""
    if len(capacities) != count:
        raise ValueError("member columns must have equal length")
    if min(capacities) < 1:
        raise ValueError(f"capacity must be >= 1, got {min(capacities)}")
    return array("q", capacities)


class RingSnapshot:
    """An immutable membership view with O(log n) identifier resolution.

    The members are four parallel columns in ring order — identifiers
    (``Q``), capacities (``q``), upload bandwidths (``d``) and host
    names — and nothing else.  The bisect in :meth:`resolve_index`
    scans a contiguous machine-word buffer, tree extraction and the
    fused metric passes read the columns directly, and peak memory is
    O(n) machine words, which is what carries the same code from the
    paper's n = 100,000 to the n = 10^6 tier.  :class:`Node` is a view
    of one row, built when a caller asks for it (``node_at``,
    ``resolve``, ``successor`` ...) and equal by value every time;
    :attr:`nodes` caches the full tuple the first time it is read.
    """

    def __init__(self, space: IdentifierSpace, nodes: Iterable[Node]) -> None:
        self._set_columns(space, *_node_columns(nodes))

    @classmethod
    def from_columns(
        cls,
        space: IdentifierSpace,
        idents: Sequence[int],
        capacities: Sequence[int],
        bandwidths: Sequence[float] | None = None,
        names: Sequence[str] | None = None,
    ) -> "RingSnapshot":
        """A snapshot of members given as parallel columns, in any order.

        Rejects exactly what the :class:`Node` path rejects.  Omitted
        ``bandwidths`` are 0.0 and omitted ``names`` are ``""``, like
        the :class:`Node` defaults.  Every column is copied into the
        snapshot's own flat ``array``, whatever sequence type came in.
        """
        snapshot = cls.__new__(cls)
        snapshot._set_columns(space, idents, capacities, bandwidths, names)
        return snapshot

    def _set_columns(
        self,
        space: IdentifierSpace,
        idents: Sequence[int],
        capacities: Sequence[int],
        bandwidths: Sequence[float] | None,
        names: Sequence[str] | None,
    ) -> None:
        """Validate the columns, put them in ring order and store them."""
        count = len(idents)
        if count == 0:
            raise ValueError("a ring snapshot needs at least one node")
        if bandwidths is None:
            bandwidths = array("d", bytes(8 * count))
        if names is None:
            names = ("",) * count
        if not len(capacities) == len(bandwidths) == len(names) == count:
            raise ValueError("member columns must have equal length")
        if any(map(ge, idents, islice(idents, 1, None))):
            # not in ring order yet: one argsort, applied to every column
            order = sorted(range(count), key=idents.__getitem__)
            idents, capacities, bandwidths, names = (
                list(map(column.__getitem__, order))
                for column in (idents, capacities, bandwidths, names)
            )
            for prev, here in zip(idents, idents[1:]):
                if prev == here:
                    raise ValueError(f"duplicate identifier on the ring: {here}")
        for ident in (idents[0], idents[-1]):
            if not space.contains(ident):
                raise ValueError(
                    f"identifier {ident} outside space of {space.size}"
                )
        capacities = _capacity_column(capacities, count)
        if min(bandwidths) < 0:
            raise ValueError(f"bandwidth must be >= 0, got {min(bandwidths)}")
        self._space = space
        self._idents = array("Q", idents)
        self._capacities = capacities
        self._bandwidths = array("d", bandwidths)
        self._names = tuple(names)
        self._nodes: tuple[Node, ...] | None = None
        self._ring_index: RingIndex | None = None

    def with_capacities(self, capacities: Sequence[int]) -> "RingSnapshot":
        """These members with another capacity column, in ring order.

        Every other column and the :attr:`ring_index` are this
        snapshot's own objects, so memberships that differ only in
        their capacities (Figure 6's systems over one draw) share one
        ring.  Rejects what the constructors reject in a capacity
        column: a length other than the membership's, a value below 1.
        """
        snapshot = RingSnapshot.__new__(RingSnapshot)
        snapshot._space = self._space
        snapshot._idents = self._idents
        snapshot._capacities = _capacity_column(capacities, len(self._idents))
        snapshot._bandwidths = self._bandwidths
        snapshot._names = self._names
        snapshot._nodes = None
        snapshot._ring_index = self.ring_index
        return snapshot

    @property
    def space(self) -> IdentifierSpace:
        """The identifier space this membership lives in."""
        return self._space

    def __len__(self) -> int:
        return len(self._idents)

    def __iter__(self) -> Iterator[Node]:
        # transient nodes: iterating does not materialize the tuple
        return map(self.node_for_index, range(len(self._idents)))

    #: ``ident in snapshot`` would fall back to ``__iter__`` and compare
    #: an int with each Node (always False): ask ``index_of`` instead
    __contains__ = None

    @property
    def nodes(self) -> Sequence[Node]:
        """All members in identifier order.

        The tuple is built on first access and cached — O(n) objects,
        which hot paths (kernel, fused metrics) never pay for because
        they read :attr:`identifiers` / :attr:`capacities` /
        :attr:`bandwidths` instead.
        """
        if self._nodes is None:
            self._nodes = tuple(self)
        return self._nodes

    @property
    def identifiers(self) -> Sequence[int]:
        """All member identifiers in ring order (compact, read-only)."""
        return self._idents

    @property
    def capacities(self) -> Sequence[int]:
        """All member capacities in ring order (compact, read-only)."""
        return self._capacities

    @property
    def bandwidths(self) -> Sequence[float]:
        """All member upload bandwidths (kbps) in ring order (compact,
        read-only); 0.0 for members built without one."""
        return self._bandwidths

    @property
    def names(self) -> Sequence[str]:
        """All member host names in ring order (``""`` where a member
        was built without one)."""
        return self._names

    @property
    def ring_index(self) -> "RingIndex":
        """The successor directory of this membership, built on first
        access and cached like :attr:`nodes` — overlays over one
        snapshot (Chord and Koorde in Figure 6) share it, and so do the
        snapshots :meth:`with_capacities` derives."""
        if self._ring_index is None:
            self._ring_index = RingIndex(self._space, self._idents)
        return self._ring_index

    def node_for_index(self, index: int) -> Node:
        """The member at one position of the ring-ordered columns."""
        return Node(
            self._idents[index],
            self._capacities[index],
            self._bandwidths[index],
            self._names[index],
        )

    def index_of(self, ident: int) -> int | None:
        """Index (row) of the member with exactly ``ident``, or None."""
        idents = self._idents
        position = bisect_left(idents, ident)
        if position < len(idents) and idents[position] == ident:
            return position
        return None

    def node_at(self, ident: int) -> Node:
        """Return the member with exactly this identifier."""
        position = self.index_of(ident)
        if position is None:
            raise KeyError(f"no node with identifier {ident}")
        return self.node_for_index(position)

    def resolve_index(self, ident: int) -> int:
        """Index (into :attr:`nodes`) of the node responsible for ``ident``.

        The index form lets tree extraction and neighbor resolution go
        straight from identifier to node position without a second
        dict hop through :meth:`node_at`.
        """
        perf.COUNTERS.resolves += 1
        position = bisect_left(self._idents, ident % self._space.size)
        if position == len(self._idents):
            return 0
        return position

    def resolve(self, ident: int) -> Node:
        """The paper's ``x-hat``: the node responsible for ``ident``.

        That is the node at ``ident`` itself or, failing that, the first
        node clockwise after it (``successor(ident)``).
        """
        return self.node_for_index(self.resolve_index(ident))

    def successor(self, node: Node) -> Node:
        """The next member strictly clockwise of ``node``."""
        position = bisect_left(self._idents, node.ident)
        return self.node_for_index((position + 1) % len(self._idents))

    def predecessor(self, node: Node) -> Node:
        """The previous member strictly counter-clockwise of ``node``."""
        position = bisect_left(self._idents, node.ident)
        return self.node_for_index((position - 1) % len(self._idents))

    def random_node(self, rng: Random) -> Node:
        """Uniformly random member."""
        return self.node_for_index(rng.randrange(len(self._idents)))

    def nodes_in_segment(self, x: int, y: int, limit: int | None = None) -> list[Node]:
        """Members whose identifiers lie in the clockwise segment
        ``(x, y]``, in clockwise order, optionally capped at ``limit``.

        Used by proximity neighbor selection (Section 5.2): a node may
        pick any member of a neighbor window, so the window contents
        must be enumerable.
        """
        size = self._space.size
        span = (y - x) % size
        if span == 0:
            return []
        start = (x + 1) % size
        end = y % size
        idents = self._idents
        total = len(idents)
        # Both segment boundaries become index ranges via bisect, so the
        # scan touches exactly the members inside (x, y] and — by
        # construction — never walks the ring more than one full wrap,
        # even for pathological spans covering the whole ring minus the
        # probe start.
        low = bisect_left(idents, start)
        high = bisect_right(idents, end)
        if start <= end:
            indices: Iterable[int] = range(low, high)
        else:  # the segment wraps past zero: [start, N) then [0, end]
            indices = (*range(low, total), *range(0, high))
        take = self.node_for_index
        out = [take(index) for index in indices]
        if limit is not None:
            del out[limit:]
        return out


class RingIndex:
    """What tree extraction asks of a membership, in O(n) words.

    ``directory`` is a successor directory over the identifiers' top
    bits: the smallest power of two >= 4 n buckets (never more than the
    space holds), bucket ``b`` covering ``[b << shift, (b + 1) <<
    shift)``, and ``directory[b]`` the number of members below it —
    which is the index of the first member at or after its start, or
    ``n`` past the last one (the ring wraps to member 0).  A probe
    starts there and advances while the member is still short of the
    identifier: under one step expected, none on a ring as dense as
    the experiments' 0.19 (the directory is then one slot per
    identifier).  One closing entry makes ``directory[b]:
    directory[b + 1]`` the members of bucket ``b``.
    """

    __slots__ = ("idents", "shift", "directory")

    def __init__(self, space: IdentifierSpace, idents: Sequence[int]) -> None:
        buckets = min(space.size, 1 << (4 * len(idents) - 1).bit_length())
        self.idents = idents
        self.shift = shift = space.bits - buckets.bit_length() + 1
        tally = array("I", [0]) * buckets
        for ident in idents:
            tally[ident >> shift] += 1
        self.directory = array("I", accumulate(tally, initial=0))

    def probe(self, ident: int) -> int:
        """Index of the member responsible for ``ident`` (in the space)."""
        idents = self.idents
        count = len(idents)
        position = self.directory[ident >> self.shift]
        while position < count and idents[position] < ident:
            position += 1
        return position if position < count else 0


@dataclass
class LookupResult:
    """Outcome of one LOOKUP: the responsible node plus the route taken.

    ``hops`` counts overlay forwarding steps (0 when the starting node
    answered locally).  ``path`` includes the starting node and, when
    the lookup succeeded, ends at ``responsible``.
    """

    responsible: Node
    hops: int
    path: list[Node] = field(default_factory=list)


class Overlay(ABC):
    """Common interface of the four overlay networks."""

    def __init__(self, snapshot: RingSnapshot) -> None:
        self._snapshot = snapshot
        # The snapshot is immutable, so resolved neighbor sets are too;
        # flooding visits every node once per tree and experiments build
        # several trees per overlay, making this cache a large win.
        self._neighbor_cache: dict[int, list[Node]] = {}

    @property
    def snapshot(self) -> RingSnapshot:
        """The membership view this overlay is defined over."""
        return self._snapshot

    @property
    def space(self) -> IdentifierSpace:
        """The identifier space."""
        return self._snapshot.space

    @abstractmethod
    def fanout(self, node: Node) -> int:
        """The multicast fan-out budget of ``node``.

        For the capacity-aware overlays this is ``node.capacity``; for
        the capacity-oblivious baselines it is the uniform system-wide
        degree, independent of the node.
        """

    @abstractmethod
    def neighbor_identifiers(self, node: Node) -> list[int]:
        """The *identifiers* ``node`` keeps links toward (with duplicates
        as the construction produces them)."""

    def neighbors(self, node: Node) -> list[Node]:
        """Distinct resolved neighbor nodes, excluding ``node`` itself
        (cached: the membership snapshot is immutable)."""
        cached = self._neighbor_cache.get(node.ident)
        if cached is not None:
            return cached
        snapshot = self._snapshot
        members = snapshot.nodes
        resolve_index = snapshot.resolve_index
        seen: set[int] = set()
        out: list[Node] = []
        for ident in self.neighbor_identifiers(node):
            resolved = members[resolve_index(ident)]
            if resolved.ident == node.ident or resolved.ident in seen:
                continue
            seen.add(resolved.ident)
            out.append(resolved)
        self._neighbor_cache[node.ident] = out
        return out

    @abstractmethod
    def lookup(self, start: Node, key: int) -> LookupResult:
        """Find the node responsible for identifier ``key``."""


def build_snapshot(
    space: IdentifierSpace,
    capacities: Sequence[int],
    bandwidths: Sequence[float] | None = None,
    rng: Random | None = None,
) -> RingSnapshot:
    """Place ``len(capacities)`` nodes at random distinct identifiers.

    The identifier draw models the SHA-1 mapping of Section 2 (uniform
    without collisions).  ``rng`` defaults to a fixed seed so snapshots
    are reproducible unless the caller opts out.
    """
    rng = rng if rng is not None else Random(0)
    count = len(capacities)
    if count > space.size:
        raise ValueError(
            f"cannot place {count} nodes in a space of {space.size} identifiers"
        )
    idents = sample_identifiers(count, space.size, rng)
    return RingSnapshot.from_columns(space, idents, capacities, bandwidths)


def sample_identifiers(count: int, size: int, rng: Random) -> list[int]:
    """Draw ``count`` distinct identifiers uniformly from ``[0, size)``.

    A sparse draw is ``rng.randrange(size)`` until ``count`` distinct
    identifiers are taken.  For a plain :class:`Random` and a size of
    at most 32 bits, ``randrange`` is one 32-bit word shifted right by
    ``32 - size.bit_length()``, redrawn while it is ``>= size``; so
    the words are drawn in bulk, ``count - len(taken)`` at a time (each
    adds at most one identifier, so no batch draws past the last one
    the loop would), and the result and the rng's final state are the
    loop's.
    """
    if count * 4 >= size:
        # Dense ring: sampling without replacement via shuffle semantics.
        return rng.sample(range(size), count)
    taken: set[int] = set()
    bits = size.bit_length()
    if type(rng) is Random and bits <= 32:
        shift = 32 - bits
        while len(taken) < count:
            need = count - len(taken)
            block = rng.getrandbits(32 * need).to_bytes(4 * need, sys.byteorder)
            words = map(rshift, array("I", block), repeat(shift))
            taken.update(filter(size.__gt__, words))
    else:
        while len(taken) < count:
            taken.add(rng.randrange(size))
    return sorted(taken)
