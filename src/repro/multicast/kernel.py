"""Flat-array multicast kernel: one-pass tree construction over indices.

The paper's evaluation is dominated by building implicit multicast
trees (Figures 6-11) and accounting deliveries over them.  The tree of
one (snapshot, source, system) triple is *fully determined* by the
membership snapshot — "no explicit tree is built" (Section 3.4), but
the union of forwarding decisions is a pure function of the frozen
ring.  This module computes that function as flat passes over machine
arrays instead of millions of per-node object operations:

* every member is addressed by its **member index** (its position in
  the snapshot's sorted identifier array), so the tree is three
  ``array('l')`` buffers — ``parent_index``, ``depth`` and
  ``child_count`` — plus the breadth-first ``order`` the dissemination
  delivered in;
* identifier resolution is one probe of the snapshot's **ring index**
  (:class:`~repro.overlay.base.RingIndex`, built once per membership
  and shared by every overlay over it): the successor directory turns
  an identifier into a member index in one array read plus, on a
  sparse ring, under one comparison step.  Floods probe each neighbor
  identifier once per overlay, into a CSR adjacency a second source
  reuses; region splitters probe each slot they evaluate and remember
  nothing — the index's gap column tells them in one comparison that a
  region holds no member, so a leaf (7 in 10 members at the paper's
  fanouts) costs no probe at all and a tree costs ~3 n of them;
* the result is a :class:`FlatTree`, a lazy view that speaks the full
  :class:`~repro.multicast.delivery.MulticastResult` vocabulary.  The
  hot metrics (:mod:`repro.metrics`) read the arrays directly in fused
  single passes; the ``parent`` / ``depth`` dicts materialize only when
  a consumer actually subscripts them (parity diffing, causal
  forensics, the transfer scheduler) and in exact delivery order, so
  the object view is byte-for-byte the tree the legacy recorder built.

The ``record_delivery``-built object trees remain the data plane of
the *traced/live* path (protocol peers, the reliable-multicast service,
proximity ablations): there the tree emerges from simulated message
exchanges, not from a snapshot, and cannot be precomputed.

Equivalence with the legacy recorders is property-tested edge-for-edge
for all four registry systems in ``tests/test_kernel.py``.
"""

from __future__ import annotations

import weakref
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, OrderedDict, deque
from math import ceil

from repro import perf
from repro.multicast.delivery import DuplicateDeliveryError
from repro.overlay.base import Node, Overlay, RingSnapshot
from repro.overlay.cam_chord import CamChordOverlay
from repro.overlay.cam_koorde import CamKoordeOverlay, cam_koorde_shift_offsets
from repro.overlay.chord import ChordOverlay
from repro.overlay.koorde import KoordeOverlay
from repro.trace.tracer import TRACER

#: sentinel in the parent/depth arrays: this member never received.
UNREACHED = -1


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
        idents = self.snapshot.identifiers
        position = bisect_left(idents, ident)
        if position < len(idents) and idents[position] == ident:
            return position
        return None

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

    # -- MulticastResult vocabulary (fused array passes) ----------------

    def was_delivered(self, ident: int) -> bool:
        """True when the node received the message."""
        index = self.member_index(ident)
        return index is not None and self.depth_array[index] >= 0

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

    def internal_nodes(self) -> list[int]:
        """Identifiers of nodes with at least one child."""
        perf.COUNTERS.array_passes += 1
        idents = self.snapshot.identifiers
        counts = self.child_count
        return [idents[index] for index in self.order if counts[index] > 0]

    def path_length_histogram(self) -> Counter[int]:
        """The Figure 9/10 statistic: #nodes reached at each hop count."""
        perf.COUNTERS.array_passes += 1
        depths = self.depth_array
        return Counter(depths[index] for index in self.order)

    def average_path_length(self) -> float:
        """Mean hops from the source over all receivers except itself."""
        perf.COUNTERS.array_passes += 1
        others = len(self.order) - 1
        if others == 0:
            return 0.0
        depths = self.depth_array
        total = 0
        for index in self.order:
            total += depths[index]
        return total / others

    def max_path_length(self) -> int:
        """Tree depth: the longest source-to-member path."""
        perf.COUNTERS.array_passes += 1
        depths = self.depth_array
        return max(depths[index] for index in self.order)

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

#: Members per chunk of the streaming CSR/fanout builders: the
#: snapshot's identifier and capacity ``array`` columns are prefetched
#: chunk-wise into plain lists, so the inner loops index native ints.
_CHUNK = 8192


class _FloodState:
    """CSR adjacency of one flood overlay: every neighbor identifier is
    probed to a member index exactly once per state lifetime.

    Construction streams over the snapshot's identifier/capacity
    columns in chunks — no node tuple, no per-member dict — so peak
    memory stays the O(n) output arrays even on a million-member
    snapshot.
    """

    __slots__ = ("offsets", "targets")

    def __init__(self, overlay: Overlay) -> None:
        snapshot = overlay.snapshot
        idents = snapshot.identifiers
        capacities = snapshot.capacities
        count = len(idents)
        size = snapshot.space.size
        bits = snapshot.space.bits
        index = snapshot.ring_index
        probe, shift, directory = index.probe, index.shift, index.directory
        offsets = array("l", [0]) * (count + 1)
        targets = array("l")
        probes = 0
        koorde = isinstance(overlay, KoordeOverlay)
        cam_koorde = isinstance(overlay, CamKoordeOverlay)
        degree = overlay.degree if koorde else 0
        for start in range(0, count, _CHUNK):
            chunk = idents[start : start + _CHUNK].tolist()
            chunk_capacities = capacities[start : start + _CHUNK].tolist()
            for i, node_ident in enumerate(chunk, start):
                # One insertion-ordered dict per row is the dedup; the
                # node itself goes in first and comes out at the end.
                row = {i: None}
                if koorde or cam_koorde:
                    # predecessor and successor lead the neighbor list
                    # (membership-relative, nothing to probe).
                    row[(i - 1) % count] = row[(i + 1) % count] = None
                if koorde:
                    # Koorde's pointers are k *consecutive members*
                    # starting at the node responsible for k*x: one
                    # probe, then a successor walk.
                    j = probe((degree * node_ident) % size)
                    walk = range(j, j + degree)
                    if walk.stop > count:  # the walk wraps past member n - 1
                        walk = [k % count for k in walk]
                    row.update(dict.fromkeys(walk))
                    probes += 1
                elif cam_koorde:
                    pairs = cam_koorde_shift_offsets(chunk_capacities[i - start], bits)
                    for by, offset in pairs:
                        ident = offset + (node_ident >> by)
                        j = directory[ident >> shift]
                        while j < count and idents[j] < ident:
                            j += 1
                        row[j if j < count else 0] = None
                    probes += len(pairs)
                else:
                    wanted = overlay.neighbor_identifiers(snapshot.node_for_index(i))
                    row.update(dict.fromkeys(probe(x % size) for x in wanted))
                    probes += len(wanted)
                del row[i]
                targets.extend(row)
                offsets[i + 1] = len(targets)
        self.offsets = offsets
        self.targets = targets
        perf.COUNTERS.kernel_resolves += probes


class _SplitState:
    """What a region-splitting overlay adds to its snapshot's ring
    index: the fanout column and the power ladders ``c**level``, one
    per distinct fanout.

    The fanout column comes straight from the snapshot's capacity
    array for the capacity-aware splitter and is a constant fill for
    the uniform baseline — neither materializes nodes.
    """

    __slots__ = ("fanouts", "_powers")

    def __init__(self, overlay: Overlay) -> None:
        snapshot = overlay.snapshot
        if isinstance(overlay, CamChordOverlay):
            self.fanouts = array("l", snapshot.capacities)
        elif isinstance(overlay, ChordOverlay):
            self.fanouts = array("l", [overlay.base]) * len(snapshot)
        else:
            self.fanouts = array("l", [overlay.fanout(node) for node in snapshot])
        self._powers: dict[int, tuple[int, ...]] = {}

    def powers(self, fanout: int, size: int) -> tuple[int, ...]:
        """The ladder ``(1, c, c**2, ...)`` of powers below ``size``."""
        ladder = self._powers.get(fanout)
        if ladder is None:
            out = []
            power = 1
            while power < size:
                out.append(power)
                power *= fanout
            ladder = tuple(out)
            self._powers[fanout] = ladder
        return ladder


class _StateCache:
    """Bounded LRU of per-overlay memoized kernel state.

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
        self._entries: OrderedDict[int, tuple[weakref.ref, object]] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, overlay: Overlay, factory):
        key = id(overlay)
        entry = self._entries.get(key)
        if entry is not None:
            ref, state = entry
            if ref() is overlay:
                self._entries.move_to_end(key)
                return state
            del self._entries[key]  # recycled id of a collected overlay
        state = factory(overlay)
        entries = self._entries

        def _on_death(_ref, key=key, entries=entries):
            entries.pop(key, None)

        entries[key] = (weakref.ref(overlay, _on_death), state)
        if len(entries) > self.capacity:
            entries.popitem(last=False)
            perf.COUNTERS.kernel_state_evictions += 1
        return state

    def clear(self) -> None:
        self._entries.clear()


#: Most memoized states retained per tree family; sweeps touch their
#: overlays consecutively, so 8 covers every observed reuse pattern.
_STATE_CAPACITY = 8

_FLOOD_STATES = _StateCache(_STATE_CAPACITY)
_SPLIT_STATES = _StateCache(_STATE_CAPACITY)


def _flood_state(overlay: Overlay) -> _FloodState:
    return _FLOOD_STATES.get(overlay, _FloodState)


def _split_state(overlay: Overlay) -> _SplitState:
    return _SPLIT_STATES.get(overlay, _SplitState)


# -- one-pass tree construction ----------------------------------------------


def flood_tree(overlay: Overlay, source: Node) -> FlatTree:
    """Flood from ``source``: breadth-first over the CSR adjacency.

    Forwarding decisions are identical to
    :func:`repro.multicast.cam_koorde.flood_multicast` with no fanout
    cap — the CSR rows reproduce ``overlay.neighbors`` order exactly —
    but each delivery is two array stores instead of two dict inserts.
    """
    snapshot = overlay.snapshot
    state = _flood_state(overlay)
    count = len(snapshot)
    source_index = bisect_left(snapshot.identifiers, source.ident)

    parent_index = array("l", [UNREACHED]) * count
    depths = array("l", [UNREACHED]) * count
    child_count = array("l", [0]) * count
    order = array("l", [source_index])
    parent_index[source_index] = source_index
    depths[source_index] = 0

    offsets = state.offsets
    targets = state.targets
    queue = deque([source_index])
    pop = queue.popleft
    push = queue.append
    deliver = order.append
    while queue:
        i = pop()
        hop = depths[i] + 1
        children = 0
        for j in targets[offsets[i] : offsets[i + 1]]:
            if depths[j] >= 0:
                continue
            depths[j] = hop
            parent_index[j] = i
            deliver(j)
            push(j)
            children += 1
        if children:
            child_count[i] = children

    return _finish(snapshot, source.ident, parent_index, depths, child_count, order)


def region_split_tree(overlay: Overlay, source: Node) -> FlatTree:
    """The CAM-Chord MULTICAST (Section 3.4) as one flat pass.

    Child selection per node replays
    :func:`repro.multicast.cam_chord.select_child_regions` exactly —
    same slot order, same spare-capacity ceiling, same resolved-child
    guard — with every slot answered by one probe of the snapshot's
    successor directory.  The gap column spares the rest: a child whose
    region holds no member is delivered but never queued, and a node
    stops scanning slots once what is left of its region is shorter
    than the gap to its own successor (every further guard would fail).
    """
    snapshot = overlay.snapshot
    state = _split_state(overlay)
    idents = snapshot.identifiers
    count = len(idents)
    size = snapshot.space.size
    index = snapshot.ring_index
    shift, directory, gaps = index.shift, index.directory, index.gaps
    fanouts = state.fanouts
    source_index = bisect_left(snapshot.identifiers, source.ident)

    parent_index = array("l", [UNREACHED]) * count
    depths = array("l", [UNREACHED]) * count
    child_count = array("l", [0]) * count
    order = array("l", [source_index])
    parent_index[source_index] = source_index
    depths[source_index] = 0

    probes = 0
    queue = deque()
    if count > 1:  # else the source's region, the rest of the ring, is empty
        queue.append((source_index, (source.ident - 1) % size))
    pop = queue.popleft
    push = queue.append
    deliver = order.append
    while queue:
        i, limit = pop()
        ident = idents[i]
        gap = gaps[i]
        remaining = (limit - ident) % size
        fanout = fanouts[i]
        ladder = state.powers(fanout, size)
        level = bisect_right(ladder, remaining) - 1
        sequence = remaining // ladder[level]

        # Candidate slots in the paper's order: level-i neighbors
        # preceding k (highest sequence first), spread-out level-(i-1)
        # neighbors (ceiling; see cam_chord module docstring), then the
        # successor slot (0, 1) picking up whatever remains.
        slots = [(level, seq) for seq in range(sequence, 0, -1)]
        if level >= 1:
            position = float(fanout)
            step = fanout / (fanout - sequence)
            for _ in range(fanout - sequence - 1):
                position -= step
                slots.append((level - 1, ceil(position)))
        slots.append((0, 1))

        hop = depths[i] + 1
        children = 0
        sublimit = limit
        for slot_level, slot_sequence in slots:
            neighbor_ident = (ident + slot_sequence * ladder[slot_level]) % size
            child = directory[neighbor_ident >> shift]
            while child < count and idents[child] < neighbor_ident:
                child += 1
            if child == count:
                child = 0
            probes += 1
            child_ident = idents[child]
            offset = (child_ident - ident) % size
            if 0 < offset <= remaining:
                if parent_index[child] != UNREACHED:
                    raise DuplicateDeliveryError(
                        f"node {child_ident} received the message twice "
                        f"(parents {idents[parent_index[child]]} and {ident})"
                    )
                parent_index[child] = i
                depths[child] = hop
                deliver(child)
                if (sublimit - child_ident) % size > gaps[child]:
                    push((child, sublimit))
                children += 1
                sublimit = (neighbor_ident - 1) % size
                remaining = (sublimit - ident) % size
                if remaining <= gap:
                    break
        child_count[i] = children

    perf.COUNTERS.kernel_resolves += probes
    return _finish(snapshot, source.ident, parent_index, depths, child_count, order)


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
    perf.COUNTERS.multicast_trees += 1
    perf.COUNTERS.kernel_trees += 1
    perf.COUNTERS.deliveries += tree.messages_sent
    if TRACER.enabled:
        # Structural trees have no clock and up to 100k edges — one
        # summary event per tree keeps tracing affordable at scale.
        TRACER.emit(0.0, "mc", "tree", source=source_ident, edges=tree.messages_sent)
    return tree
