"""Timed, packet-level message transfer over an implicit multicast tree.

Section 6.1 *models* sustainable throughput analytically: each node
divides its upload bandwidth evenly among its tree children, and the
session rate is the smallest allocation anywhere.  This module checks
that model against an explicit store-and-forward simulation: the
message is cut into packets, every node forwards packet ``i`` to each
child as soon as (a) the packet has fully arrived and (b) the child's
share of the uplink is free — the per-packet pipelining Section 4.3
describes ("a node does not have to wait for the entire message to
arrive before forwarding it").

For a message much longer than the tree is deep, the measured session
rate converges to the analytic bottleneck; for short messages the
propagation term dominates.  Experiment extH sweeps both regimes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import inf
from typing import Callable, Hashable, Mapping

from repro.multicast.kernel import FlatTree
from repro.overlay.base import RingSnapshot

#: per-hop one-way latency in seconds: (parent_ident, child_ident) -> s
HopLatency = Callable[[int, int], float]


class UplinkBudget:
    """One serialization ledger per host uplink, shared across groups.

    A host that belongs to three multicast groups sits on three
    overlays, but it owns exactly *one* physical uplink — the Section 2
    deployment model.  The budget tracks, per host key, the instant its
    uplink next frees up; every transmission any group wants the host
    to make must :meth:`reserve` a slot, and a reservation that cannot
    start immediately is a **deferral** (the backpressure signal the
    service plane reports per group).

    Keys are arbitrary hashables (the service plane uses host names,
    the transfer simulation uses ring identifiers).  All methods are
    deterministic: the ledger never draws randomness, so event-driven
    callers replay identically.
    """

    __slots__ = ("_free_at", "_deferrals", "_reservations")

    def __init__(self) -> None:
        self._free_at: dict[Hashable, float] = {}
        self._deferrals: dict[Hashable, int] = {}
        self._reservations: dict[Hashable, int] = {}

    def free_at(self, host: Hashable) -> float:
        """When the host's uplink next goes idle (0.0 if never used)."""
        return self._free_at.get(host, 0.0)

    def backlog(self, host: Hashable, now: float) -> float:
        """Seconds of queued serialization ahead of a reservation at
        ``now`` — the queue-depth measure in time units."""
        return max(0.0, self.free_at(host) - now)

    def reserve(
        self, host: Hashable, now: float, duration: float
    ) -> tuple[float, float]:
        """Claim ``duration`` seconds of uplink at the earliest instant
        ``>= now``; returns ``(start, done)``.

        ``start > now`` means the slot was deferred behind traffic the
        host is already serializing (for this group or any other).
        """
        start, end, _ = self.reserve_run(host, now, duration, 1)
        return start, end

    def reserve_run(
        self, host: Hashable, now: float, duration: float, count: int
    ) -> tuple[float, float, int]:
        """Claim ``count`` back-to-back slots of ``duration`` seconds
        from the earliest instant ``>= now`` — what ``count`` single
        :meth:`reserve` calls at the same ``now`` would claim, float
        for float, since each of those would start where the previous
        one ended.  Returns ``(start, end, deferred)``: when the first
        slot starts, when the last one ends, and how many of the slots
        start after ``now``.  Slot ``i`` ends at ``start`` plus
        ``duration`` added ``i + 1`` times, one addition at a time (a
        product would round differently); a caller that needs every end
        repeats those additions.  The one writer of the ledger.
        """
        if count < 1:
            raise ValueError(f"a run needs at least one slot, got {count}")
        start = self._free_at.get(host, 0.0)
        if start > now:
            deferred = count
        else:
            start = now
            # the later slots start at the previous slot's end, which
            # is past ``now`` unless the duration vanishes next to it
            deferred = count - 1 if now + duration > now else 0
        end = start
        for _ in range(count):
            end += duration
        # a NaN or infinite argument shows in the last end; nothing is
        # written yet
        if not (duration >= 0 and end < inf):
            raise ValueError(f"need finite now={now} and duration={duration} >= 0")
        self._free_at[host] = end
        if deferred:
            deferrals = self._deferrals
            deferrals[host] = deferrals.get(host, 0) + deferred
        reservations = self._reservations
        reservations[host] = reservations.get(host, 0) + count
        return start, end, deferred

    def deferrals(self, host: Hashable | None = None) -> int:
        """Deferred reservations for one host (or the whole ledger)."""
        if host is not None:
            return self._deferrals.get(host, 0)
        return sum(self._deferrals.values())

    def reservations(self, host: Hashable | None = None) -> int:
        """Total reservations for one host (or the whole ledger)."""
        if host is not None:
            return self._reservations.get(host, 0)
        return sum(self._reservations.values())


@dataclass(frozen=True)
class TransferResult:
    """Outcome of one timed tree transfer.

    ``completion_time`` maps each member to the instant its *last*
    packet arrived (the source maps to 0.0).  ``session_completion``
    is the slowest member's completion; ``measured_throughput_kbps``
    is the end-to-end rate the slowest member experienced.
    """

    message_kbits: float
    packet_count: int
    completion_time: Mapping[int, float]
    first_packet_time: Mapping[int, float]

    @property
    def session_completion(self) -> float:
        """When the last member finished receiving."""
        return max(self.completion_time.values())

    @property
    def measured_throughput_kbps(self) -> float:
        """Worst member's effective receive rate, message/(completion)."""
        if self.session_completion <= 0:
            return float("inf")
        return self.message_kbits / self.session_completion

    def member_throughput_kbps(self, ident: int) -> float:
        """One member's effective receive rate."""
        elapsed = self.completion_time[ident]
        if elapsed <= 0:
            return float("inf")
        return self.message_kbits / elapsed

    def startup_delay(self, ident: int) -> float:
        """When the member's *first* packet arrived (stream start-up)."""
        return self.first_packet_time[ident]


def simulate_tree_transfer(
    tree: FlatTree,
    snapshot: RingSnapshot,
    message_kbits: float,
    packet_count: int = 32,
    hop_latency: HopLatency | None = None,
    budget: UplinkBudget | None = None,
    start_time: float = 0.0,
    host_key: Callable[[int], Hashable] | None = None,
) -> TransferResult:
    """Pipeline ``message_kbits`` through ``tree`` and time every member.

    Per the Section 6.1 allocation, a node with ``d`` children and
    upload bandwidth ``B`` sends to each child over a dedicated
    ``B/d``-kbps share; packet ``i`` leaves for a child once the packet
    has arrived *and* the previous packet to that child has finished
    serializing.  Packets traverse the tree breadth-first (parents
    strictly before children), so one pass computes all times exactly
    — the computation is deterministic, no event queue needed.

    With a ``budget``, the private per-child share is replaced by the
    shared-uplink model: every packet transmission reserves the *whole*
    uplink for ``packet_kbits / B`` seconds from the host's shared
    :class:`UplinkBudget` ledger (packet-major, children in tree
    order), so a host forwarding in several trees defers behind its own
    earlier traffic.  ``start_time`` places the send on the shared
    clock and ``host_key`` maps a ring identifier to the ledger key
    (identity by default; the service plane keys by host name, since
    one host holds a different identifier in every group).  Successive
    calls against one budget model *batched* sends — the event-driven
    service plane (:mod:`repro.multicast.plane`) interleaves at true
    event granularity instead.
    """
    if not 0 < message_kbits < inf:
        raise ValueError(f"message size must be finite and > 0, got {message_kbits}")
    if packet_count < 1:
        raise ValueError(f"packet count must be >= 1, got {packet_count}")
    latency = hop_latency if hop_latency is not None else (lambda a, b: 0.0)
    key = host_key if host_key is not None else (lambda ident: ident)
    packet_kbits = message_kbits / packet_count

    children: dict[int, list[int]] = {ident: [] for ident in tree.parent}
    for child, parent in tree.parent.items():
        if parent is not None:
            children[parent].append(child)

    # arrival[v][i] = when packet i has fully arrived at v
    source = tree.source_ident
    arrival: dict[int, list[float]] = {source: [start_time] * packet_count}
    completion: dict[int, float] = {source: start_time}
    first: dict[int, float] = {source: start_time}

    queue: deque[int] = deque([source])
    while queue:
        parent = queue.popleft()
        kids = children[parent]
        if not kids:
            continue
        node = snapshot.node_at(parent)
        if node.bandwidth_kbps <= 0:
            raise ValueError(
                f"node {parent} has no bandwidth; timed transfer needs "
                "per-node bandwidths"
            )
        parent_arrivals = arrival[parent]
        if budget is not None:
            # shared-uplink model: whole uplink per transmission, FIFO
            # through the host's cross-group ledger, packet-major so
            # every child's stream starts as early as possible
            serialize = packet_kbits / node.bandwidth_kbps
            host = key(parent)
            times = {child: [0.0] * packet_count for child in kids}
            for index in range(packet_count):
                for child in kids:
                    _, done = budget.reserve(
                        host, parent_arrivals[index], serialize
                    )
                    times[child][index] = done + latency(parent, child)
            for child in kids:
                arrival[child] = times[child]
                completion[child] = times[child][-1]
                first[child] = times[child][0]
                queue.append(child)
            continue
        share = node.bandwidth_kbps / len(kids)
        serialize = packet_kbits / share
        for child in kids:
            delay = latency(parent, child)
            times = [0.0] * packet_count
            previous_done = 0.0
            for index in range(packet_count):
                start = max(parent_arrivals[index], previous_done)
                previous_done = start + serialize
                times[index] = previous_done + delay
            arrival[child] = times
            completion[child] = times[-1]
            first[child] = times[0]
            queue.append(child)

    return TransferResult(
        message_kbits=message_kbits,
        packet_count=packet_count,
        completion_time=completion,
        first_packet_time=first,
    )


def delivery_timeline(
    tree: FlatTree,
    snapshot: RingSnapshot,
    message_kbits: float,
    hop_latency: HopLatency | None = None,
    budget: UplinkBudget | None = None,
    start_time: float = 0.0,
    host_key: Callable[[int], Hashable] | None = None,
) -> dict[int, float]:
    """Per-member delivery times for one message-granularity transfer.

    The service plane's dissemination model — store-and-forward at
    message granularity over a shared uplink ledger — is exactly the
    ``packet_count=1`` case of :func:`simulate_tree_transfer`.  This
    wrapper runs it in one pass and returns ``ident -> absolute
    delivery time`` (the source maps to ``start_time``).

    Against a **fresh** budget the result is the send's *uncontended
    schedule*: within one tree every host forwards from a single
    parent position, so its reservations are self-contained and the
    times are byte-identical to what the event-driven plane commits
    for an isolated send — which is what makes the timeline the oracle
    the plane's isolated-send tests compare against.  With a
    shared, pre-loaded budget the timeline instead shows how the send
    would defer behind traffic already serialized on those uplinks.
    """
    shared = budget if budget is not None else UplinkBudget()
    result = simulate_tree_transfer(
        tree,
        snapshot,
        message_kbits,
        packet_count=1,
        hop_latency=hop_latency,
        budget=shared,
        start_time=start_time,
        host_key=host_key,
    )
    return dict(result.completion_time)
