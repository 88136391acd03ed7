"""Flat-array multicast kernel: one-pass tree construction over indices.

The paper's evaluation is dominated by building implicit multicast
trees (Figures 6-11) and accounting deliveries over them.  The tree of
one (snapshot, source, system) triple is *fully determined* by the
membership snapshot — "no explicit tree is built" (Section 3.4), but
the union of forwarding decisions is a pure function of the frozen
ring.  This module computes that function as flat passes over machine
arrays instead of millions of per-node object operations:

* every member is addressed by its **member index** (its position in
  the snapshot's sorted identifier array), so the tree is four 32-bit
  ``array('i')`` columns — ``parent_index``, ``depth`` and
  ``child_count``, plus the breadth-first ``order`` the dissemination
  delivered in — 16 bytes per member;
* every neighbor question is asked of the sorted ring as a **run of
  rows**, not a list of points; what is left over is one probe of the
  snapshot's **ring index** (:class:`~repro.overlay.base.RingIndex`,
  built once per membership, shared by every overlay over it and by
  every capacity column derived over the same members).  A
  CAM-Chord region ``(x, k]`` *is* the rows after ``x`` up to the last
  member at or before ``k``, and since a node's slot offsets descend,
  that last row's offset names the next slot holding a child: no slot
  is tried in vain, a leaf costs nothing, a tree at most n - 1 probes.
  Koorde's pointers are ``degree`` consecutive rows from one probed
  start; a CAM-Koorde shift group is a strided slice of the successor
  table wherever that table is no larger than the reads (a slice reads
  in C, a probe loops in Python; a table that small costs less to fill
  than it saves).  A flood builds each row when it reaches the member
  and stores no adjacency (a probed row is probed again every visit);
* a child rule with no run formulation (El-Ansary's broadcast,
  proximity neighbor selection) is handed to :func:`select_tree`,
  which asks it for each node's children and stores them the same way;
* the result is a :class:`FlatTree`, the one tree type of the
  structural world, and every tree is booked and traced by one
  :func:`_finish`.  The metrics (:mod:`repro.metrics`) read the arrays
  directly, in C-level passes (``Counter``, ``sum``, ``max``,
  ``compress``) that skip the unreached rows by value, not by walking
  ``order``; the ``parent`` / ``depth`` dicts materialize only when a
  consumer actually subscripts them (parity diffing, delay sums, the
  transfer scheduler), in delivery order.

Live protocol peers build no tree object: their trees emerge from
simulated message exchanges and are read back from the trace
(:mod:`repro.trace.causal`) or counted by the delivery monitor.

Every builder is property-tested edge-for-edge, in delivery order,
against plain dict recorders in ``tests/test_kernel.py``.
"""

from __future__ import annotations

import weakref
from array import array
from bisect import bisect_right
from collections import Counter, OrderedDict, deque
from functools import lru_cache
from itertools import chain, repeat
from operator import sub
from typing import Callable

from repro import perf
from repro.overlay.base import Node, Overlay, RingIndex, RingSnapshot
from repro.overlay.cam_chord import CamChordOverlay, spare_sequences
from repro.overlay.cam_koorde import cam_koorde_shift_groups
from repro.overlay.koorde import KoordeOverlay
from repro.trace.tracer import TRACER

#: sentinel in the parent/depth arrays: this member never received.
UNREACHED = -1


class DuplicateDeliveryError(AssertionError):
    """A node received the same multicast message twice.

    For the region-splitting systems this is an algorithm-invariant
    violation (the split is supposed to partition ``(x, k]``); the
    builder raises rather than silently double-counting.
    """


class FlatTree:
    """One implicit multicast tree as flat arrays, lazily dict-viewable.

    Array layout (all indexed by member index, ``n`` entries):

    * ``parent_index[i]`` — member index of the node that forwarded to
      ``i`` (the source maps to itself, unreached members to ``-1``);
    * ``depth[i]`` — overlay hops from the source (``-1`` unreached);
    * ``child_count[i]`` — out-degree of ``i`` in the tree;
    * ``order`` — member indices in delivery (breadth-first) order,
      source first: exactly the insertion order the legacy recorder's
      dicts would have, which is what keeps the materialized views —
      and everything downstream of their iteration order — identical.

    Every builder delivers a node's children one after another, in the
    order the parents were delivered, so a forwarder's children are one
    run of ``order``: the source's are the ``child_count`` rows after
    it, and each later forwarder's run follows the runs of those
    delivered before it (the service plane's schedule templates read
    children this way; ``tests/test_kernel.py`` pins it per builder).
    """

    __slots__ = (
        "source_ident",
        "messages_sent",
        "snapshot",
        "parent_index",
        "depth_array",
        "child_count",
        "order",
        "_parent_map",
        "_depth_map",
    )

    def __init__(
        self,
        snapshot: RingSnapshot,
        source_ident: int,
        parent_index: array,
        depth_array: array,
        child_count: array,
        order: array,
    ) -> None:
        self.snapshot = snapshot
        self.source_ident = source_ident
        self.parent_index = parent_index
        self.depth_array = depth_array
        self.child_count = child_count
        self.order = order
        self.messages_sent = len(order) - 1
        self._parent_map: dict[int, int | None] | None = None
        self._depth_map: dict[int, int] | None = None

    # -- index helpers --------------------------------------------------

    def member_index(self, ident: int) -> int | None:
        """Member index of ``ident``, or None when not a member."""
        return self.snapshot.index_of(ident)

    # -- lazy object views ----------------------------------------------

    @property
    def parent(self) -> dict[int, int | None]:
        """Receiver ident -> parent ident (source -> None), materialized
        on first access in delivery order."""
        if self._parent_map is None:
            idents = self.snapshot.identifiers
            parent_index = self.parent_index
            mapping: dict[int, int | None] = {}
            for index in self.order:
                parent = parent_index[index]
                mapping[idents[index]] = None if parent == index else idents[parent]
            self._parent_map = mapping
        return self._parent_map

    @property
    def depth(self) -> dict[int, int]:
        """Receiver ident -> hops from the source, in delivery order."""
        if self._depth_map is None:
            idents = self.snapshot.identifiers
            depths = self.depth_array
            self._depth_map = {idents[index]: depths[index] for index in self.order}
        return self._depth_map

    # -- tree vocabulary (fused array passes) ----------------------------

    @property
    def receiver_count(self) -> int:
        """Number of nodes that received the message, source included."""
        return len(self.order)

    def children_counts(self) -> Counter[int]:
        """Out-degree of every receiver (leaves included with 0), in
        delivery order — the legacy recorder's Counter, reproduced."""
        perf.COUNTERS.array_passes += 1
        idents = self.snapshot.identifiers
        counts = self.child_count
        return Counter({idents[index]: counts[index] for index in self.order})

    def path_length_histogram(self) -> Counter[int]:
        """The Figure 9/10 statistic: #nodes reached at each hop count,
        in ascending hop order (the order delivery reaches them)."""
        perf.COUNTERS.array_passes += 1
        counts = Counter(self.depth_array)
        counts.pop(UNREACHED, None)
        return Counter(dict(sorted(counts.items())))

    def average_path_length(self) -> float:
        """Mean hops from the source over all receivers except itself."""
        perf.COUNTERS.array_passes += 1
        others = len(self.order) - 1
        if others == 0:
            return 0.0
        # each unreached row adds UNREACHED (-1) to the sum
        unreached = len(self.depth_array) - len(self.order)
        return (sum(self.depth_array) + unreached) / others

    def max_path_length(self) -> int:
        """Tree depth: the longest source-to-member path."""
        perf.COUNTERS.array_passes += 1
        return max(self.depth_array)

    def path_to_source(self, ident: int) -> list[int]:
        """The delivery path from ``ident`` back to the source."""
        index = self.member_index(ident)
        if index is None or self.depth_array[index] < 0:
            raise KeyError(f"node {ident} never received the message")
        idents = self.snapshot.identifiers
        parent_index = self.parent_index
        path = [idents[index]]
        while parent_index[index] != index:
            index = parent_index[index]
            path.append(idents[index])
        return path

    def verify_exactly_once(self, member_idents: set[int]) -> None:
        """Assert the Section 3.4 invariant: every member received the
        message exactly once (exact-once holds by construction — the
        arrays cannot record a second parent — so only coverage and
        membership are checked)."""
        idents = self.snapshot.identifiers
        if len(self.order) == len(idents):  # every row, once each
            if len(member_idents) == len(idents) and member_idents.issuperset(idents):
                return
            received = set(idents)
        else:
            received = {idents[index] for index in self.order}
        missing = member_idents - received
        extra = received - member_idents
        if missing:
            sample = sorted(missing)[:5]
            raise AssertionError(
                f"{len(missing)} members never received the message, e.g. {sample}"
            )
        if extra:
            sample = sorted(extra)[:5]
            raise AssertionError(
                f"{len(extra)} non-members received the message, e.g. {sample}"
            )


# -- per-overlay kernel state ------------------------------------------------


class _FloodState:
    """What one flood overlay's rows are built from, once per state
    lifetime.  Koorde's pointers are ``degree`` consecutive members, so
    a row is one entry of ``starts``; a CAM-Koorde row reads one
    ``(by, members, stride)`` run per Section 4.1 group of its capacity
    (``runs``) as a strided slice of the successor ``table`` or, where
    there is none, one probe per element.  A row is in
    ``overlay.neighbors`` order but keeps the node itself and repeated
    neighbors: the flood takes a member's first visit, the same tree.
    """

    __slots__ = ("degree", "starts", "runs", "table")

    def __init__(self, overlay: Overlay) -> None:
        snapshot = overlay.snapshot
        size = snapshot.space.size
        index = snapshot.ring_index
        self.degree, self.starts, self.runs, self.table = 0, None, None, None
        if isinstance(overlay, KoordeOverlay):
            self.degree = degree = overlay.degree
            probes = [index.probe(degree * x % size) for x in snapshot.identifiers]
            self.starts = array("I", probes)
            perf.COUNTERS.kernel_resolves += len(probes)
            return
        # CAM-Koorde: the reads are booked once, whichever side answers them
        bits = snapshot.space.bits
        reads = 0
        self.runs = runs = {}
        for capacity, holders in Counter(snapshot.capacities).items():
            each, runs[capacity] = _shift_runs(capacity, bits)
            reads += holders * each
        self.table = _successor_table(index, size, reads)
        perf.COUNTERS.kernel_resolves += reads


@lru_cache(maxsize=512)
def _shift_runs(capacity: int, bits: int) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """The reads, and a ``(by, members, stride)`` run per non-empty §4.1
    group, of one capacity: member ``x`` reads ``(x >> by) + k * stride``,
    ``k < members``, cut at ``2**by``, past which the run repeats."""
    groups = cam_koorde_shift_groups(capacity, bits)
    runs = tuple((by, min(span, 1 << by), 1 << (bits - by)) for by, span in groups if span)
    return sum(run[1] for run in runs), runs


def _successor_table(index: RingIndex, size: int, reads: int) -> array | None:
    """``table[x]``, for every identifier ``x``: the row responsible for
    it, the ``n -> 0`` wrap already taken (one allocation).  On a dense
    ring that is the directory; else it is built, row ``j`` once per
    identifier in ``(x[j - 1], x[j]]`` (n fills, no search), only when
    its ``size`` entries are no more than the ``reads`` it answers —
    None otherwise."""
    idents = index.idents
    last = idents[-1] + 1  # identifiers past the last member wrap to row 0
    wrap = repeat(0, size - last)
    if index.shift == 0:
        table = index.directory[:size]
        table[last:] = array("I", wrap)
    elif size <= reads:
        gaps = map(sub, idents, chain((-1,), idents))
        rows = chain.from_iterable(map(repeat, range(len(idents)), gaps))
        table = array("I", chain(rows, wrap))
    else:
        return None
    return table


@lru_cache(maxsize=256)
def _ladder(fanout: int, size: int) -> tuple[int, ...]:
    """The powers ``(1, c, c**2, ...)`` of one fanout below ``size``."""
    out = []
    power = 1
    while power < size:
        out.append(power)
        power *= fanout
    return tuple(out)


class _StateCache:
    """Bounded LRU of per-overlay memoized flood state.

    Earlier revisions stashed the state as an attribute on the overlay
    itself, giving it the overlay's lifetime — a long campaign holding
    many overlays (the keyed group cache alone keeps 32) accumulated
    every neighbor table ever built.  This cache bounds that: least
    recently used states are dropped (``kernel_state_evictions``) and
    rebuilt on next use; states of dead overlays vanish with them via
    the weak-reference callback.

    Keys are ``id(overlay)`` guarded by a weakref identity check, so
    overlays need not be hashable and a recycled id can never be
    mistaken for its dead predecessor.
    """

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: OrderedDict[int, tuple[weakref.ref, _FloodState]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, overlay: Overlay) -> _FloodState:
        key = id(overlay)
        entry = self._entries.get(key)
        if entry is not None:
            ref, state = entry
            if ref() is overlay:
                self._entries.move_to_end(key)
                return state
            del self._entries[key]  # recycled id of a collected overlay
        state = _FloodState(overlay)
        entries = self._entries

        def _on_death(_ref, key=key, entries=entries):
            entries.pop(key, None)

        entries[key] = (weakref.ref(overlay, _on_death), state)
        if len(entries) > self.capacity:
            entries.popitem(last=False)
            perf.COUNTERS.kernel_state_evictions += 1
        return state


#: Most memoized flood states retained; sweeps touch their overlays
#: consecutively, so 8 covers every observed reuse pattern.
_STATE_CAPACITY = 8

_FLOOD_STATES = _StateCache(_STATE_CAPACITY)
_flood_state = _FLOOD_STATES.get


# -- one-pass tree construction ----------------------------------------------


#: one-entry rows the tree arrays are repeated from (the ``array``
#: constructor costs several times the repetition)
_UNREACHED_ROW = array("i", [UNREACHED])
_ZERO_ROW = array("i", [0])


def _rooted(snapshot: RingSnapshot, source: Node) -> tuple[int, array, array, array, array]:
    """The row of ``source``, which must be a member, and the four
    arrays of a tree that has reached only it."""
    row = snapshot.index_of(source.ident)
    if row is None:
        raise KeyError(f"source {source.ident} is not a group member")
    count = len(snapshot)
    parent_index = _UNREACHED_ROW * count
    depths = _UNREACHED_ROW * count
    parent_index[row] = row
    depths[row] = 0
    return row, parent_index, depths, _ZERO_ROW * count, array("i", [row])


def flood_tree(overlay: Overlay, source: Node) -> FlatTree:
    """Flood from ``source``: breadth-first over the overlay's rows.

    Forwarding decisions are those of a breadth-first flood over
    ``overlay.neighbors`` — a row reproduces that order exactly, and
    the first visit wins — with each delivery two array stores.  The
    delivery ``order`` is the queue, and a row is built when reached.
    """
    snapshot = overlay.snapshot
    source_index, parent_index, depths, child_count, order = _rooted(snapshot, source)
    state = _flood_state(overlay)
    count = len(snapshot)
    idents, capacities = snapshot.identifiers, snapshot.capacities
    degree, starts, runs, table = state.degree, state.starts, state.runs, state.table
    deliver = order.append
    row = array("I", (0, 0))  # a CAM-Koorde row, refilled on every visit
    for i in order:  # grows as the walk delivers
        if starts is None:
            # CAM-Koorde: predecessor, successor, then the group runs
            x = idents[i]
            del row[2:]
            row[0], row[1] = (i - 1) % count, (i + 1) % count
            for by, members, stride in runs[capacities[i]]:
                first = x >> by
                stop = first + members * stride
                if table is None:
                    row.extend(map(snapshot.ring_index.probe, range(first, stop, stride)))
                else:
                    row += table[first:stop:stride]
        else:
            # Koorde: predecessor, successor, then ``degree`` members from
            # the one responsible for k * x, skipped whole once all reached
            start = starts[i]
            walk = range(start, start + degree)
            if walk.stop > count:  # the walk wraps past member n - 1
                walk = [j % count for j in walk]
            elif UNREACHED not in depths[start : walk.stop]:
                walk = ()
            row = ((i - 1) % count, (i + 1) % count, *walk)
        hop = depths[i] + 1
        children = 0
        for j in row:
            if depths[j] >= 0:
                continue
            depths[j] = hop
            parent_index[j] = i
            deliver(j)
            children += 1
        if children:
            child_count[i] = children
            if len(order) == count:
                break  # every member is reached: no later row delivers

    return _finish(snapshot, source.ident, parent_index, depths, child_count, order)


def region_split_tree(overlay: Overlay, source: Node) -> FlatTree:
    """The CAM-Chord MULTICAST (Section 3.4) as one flat pass over runs
    of rows.

    A queued node ``(row, limit, last)`` owns the region ``(x, limit]``,
    whose members are exactly the rows ``row + 1 .. last`` (mod n).
    Child selection replays
    :func:`repro.multicast.cam_chord.select_child_regions` — same slot
    order, same spare-capacity ceiling, same resolved-child guard —
    minus the slots that hold no child: offsets descend and a slot is
    accepted iff a member lies in ``[x + offset, x + remaining]``, iff
    ``offset <= reach``, the offset of row ``last``; so the next child
    sits in the first slot at or below ``reach`` (DESIGN.md 5.10).  It
    takes the rows after it, the parent keeps those before it, and a
    child with none is never queued.  A region of one row — when popped,
    or once the higher slots are placed — needs no slot at all: its row
    is the next and last child.  At most n - 1 probes per tree.
    """
    snapshot = overlay.snapshot
    source_index, parent_index, depths, child_count, order = _rooted(snapshot, source)
    idents = snapshot.identifiers
    count = len(idents)
    size = snapshot.space.size
    index = snapshot.ring_index
    shift, directory = index.shift, index.directory
    if isinstance(overlay, CamChordOverlay):
        fanouts = snapshot.capacities
    else:  # plain Chord: the uniform finger base
        fanouts = array("i", [overlay.base]) * count

    probes = 0
    queue = deque()
    if count > 1:  # else the source's region, the rest of the ring, is empty
        queue.append(
            (source_index, (source.ident - 1) % size, (source_index - 1) % count)
        )
    pop = queue.popleft
    push = queue.append
    deliver = order.append
    while queue:
        i, limit, last = pop()
        hop = depths[i] + 1
        after = i + 1 if i + 1 < count else 0
        children = 0
        if last != after:
            ident = idents[i]
            remaining = (limit - ident) % size
            fanout = fanouts[i]
            ladder = _ladder(fanout, size)
            level = bisect_right(ladder, remaining) - 1
            unit = ladder[level]
            if level:  # at level 0 the unit is 1: every reach is on the rung
                below = ladder[level - 1]
                spread = spare_sequences(fanout, remaining // unit)
            while True:
                reach = (idents[last] - ident) % size
                if reach >= unit:  # a level-i rung, highest sequence first
                    offset = reach // unit * unit
                else:
                    # spare capacity spread over level i-1 (ceiling; see the
                    # cam_chord module docstring), else the successor slot
                    slot = bisect_right(spread, reach // below)
                    offset = spread[slot - 1] * below if slot else 1
                if offset == reach:
                    child = last
                elif offset == 1:
                    child = after
                else:
                    neighbor_ident = (ident + offset) % size
                    child = directory[neighbor_ident >> shift]
                    while child < count and idents[child] < neighbor_ident:
                        child += 1
                    if child == count:
                        child = 0
                    probes += 1
                if parent_index[child] != UNREACHED:
                    raise _duplicate(idents, child, parent_index[child], i)
                parent_index[child] = i
                depths[child] = hop
                deliver(child)
                if child != last:
                    push((child, limit, last))
                children += 1
                limit = (ident + offset - 1) % size
                last = (child or count) - 1
                if last == after or last == i:
                    break
        if last != i:
            # one row left — the popped region, or what the placed
            # children left of it: the next and last child, whichever
            # slot holds it
            if parent_index[last] != UNREACHED:
                raise _duplicate(idents, last, parent_index[last], i)
            parent_index[last] = i
            depths[last] = hop
            deliver(last)
            children += 1
        child_count[i] = children

    perf.COUNTERS.kernel_resolves += probes
    return _finish(snapshot, source.ident, parent_index, depths, child_count, order)


def select_tree(
    snapshot: RingSnapshot,
    source: Node,
    select: Callable[[Node, int], list[tuple[Node, int]]],
) -> FlatTree:
    """The tree of a region-splitting child rule, breadth-first.

    The source owns ``(x, x - 1]``, the rest of the ring, and
    ``select(node, limit)`` names the children of a node that owns
    ``(node, limit]``, each with the subregion it takes over.  This is
    the builder for rules with no run formulation (El-Ansary's
    broadcast, proximity neighbor selection); a member handed a second
    parent raises :class:`DuplicateDeliveryError`.
    """
    row, parent_index, depths, child_count, order = _rooted(snapshot, source)
    index_of = snapshot.index_of
    queue = deque([(row, source, (source.ident - 1) % snapshot.space.size)])
    while queue:
        i, node, limit = queue.popleft()
        hop = depths[i] + 1
        for child, sublimit in select(node, limit):
            j = index_of(child.ident)
            if parent_index[j] != UNREACHED:
                raise _duplicate(snapshot.identifiers, j, parent_index[j], i)
            parent_index[j] = i
            depths[j] = hop
            child_count[i] += 1
            order.append(j)
            queue.append((j, child, sublimit))
    return _finish(snapshot, source.ident, parent_index, depths, child_count, order)


def _duplicate(idents, child: int, first: int, second: int) -> DuplicateDeliveryError:
    """Row ``child`` handed the message by rows ``first`` and ``second``."""
    return DuplicateDeliveryError(
        f"node {idents[child]} received the message twice "
        f"(parents {idents[first]} and {idents[second]})"
    )


def _finish(
    snapshot: RingSnapshot,
    source_ident: int,
    parent_index: array,
    depths: array,
    child_count: array,
    order: array,
) -> FlatTree:
    """Wrap finished arrays, book the counters, emit the tree event."""
    tree = FlatTree(snapshot, source_ident, parent_index, depths, child_count, order)
    perf.COUNTERS.kernel_trees += 1
    perf.COUNTERS.deliveries += tree.messages_sent
    if TRACER.mc and "tree" in TRACER.mc:
        # Structural trees have no clock and up to 100k edges — one
        # summary event per tree keeps tracing affordable at scale.
        TRACER.emit(0.0, "mc", "tree", source=source_ident, edges=tree.messages_sent)
    return tree
