"""Forwarding-load accounting: the Section 5.1 argument, quantified.

The paper contrasts two architectures for any-source multicast:

* **tree building** — one shared tree per group on a global overlay.
  Internal nodes forward *every* message (load ``O(k M)`` for fanout
  ``k`` and total traffic ``M``); leaves forward nothing.  With
  ``k > 2`` the majority of nodes are leaves, so the load is
  concentrated on a minority.
* **flooding** (the CAM approach) — one *implicit* tree per source.
  Each node is internal in some trees and a leaf in others, so with
  well-distributed sources every node forwards ``O(M)``.

This module measures both models on concrete trees so the claim can be
checked quantitatively (experiment Ext B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro import perf
from repro.multicast.kernel import FlatTree


@dataclass(frozen=True)
class ForwardingLoad:
    """Distribution of per-node forwarded traffic for one workload.

    ``per_node`` maps member identifier to forwarded kilobits.  The
    summary statistics quantify how evenly the work is spread:
    ``coefficient_of_variation`` (std/mean) and ``max_over_mean`` are
    small when every member carries a similar share.
    """

    per_node: Mapping[int, float]

    @property
    def total(self) -> float:
        """Total forwarded traffic across the group."""
        return sum(self.per_node.values())

    @property
    def mean(self) -> float:
        """Mean per-node forwarded traffic."""
        if not self.per_node:
            return 0.0
        return self.total / len(self.per_node)

    @property
    def idle_fraction(self) -> float:
        """Fraction of members that forwarded nothing at all."""
        if not self.per_node:
            return 0.0
        idle = sum(1 for load in self.per_node.values() if load == 0)
        return idle / len(self.per_node)

    @property
    def max_over_mean(self) -> float:
        """Peak-to-average load ratio (1.0 is perfectly even)."""
        mean = self.mean
        if mean == 0:
            return 0.0
        return max(self.per_node.values()) / mean

    @property
    def coefficient_of_variation(self) -> float:
        """Standard deviation divided by the mean."""
        mean = self.mean
        if mean == 0 or not self.per_node:
            return 0.0
        variance = sum((load - mean) ** 2 for load in self.per_node.values()) / len(
            self.per_node
        )
        return math.sqrt(variance) / mean


def flooding_load(
    results: Iterable[FlatTree], message_kbits: float = 1.0
) -> ForwardingLoad:
    """Aggregate forwarding load when every source uses its own implicit
    tree (the CAM / flooding architecture).

    Each node forwards ``children * message_kbits`` per message it
    relays.  Nodes that appear in any tree are accounted even when they
    forwarded nothing, so :attr:`ForwardingLoad.idle_fraction` is
    meaningful.  Accumulated straight off the kernel arrays, in
    delivery order.
    """
    per_node: dict[int, float] = {}
    get = per_node.get
    for result in results:
        perf.COUNTERS.array_passes += 1
        idents = result.snapshot.identifiers
        counts = result.child_count
        for index in result.order:
            ident = idents[index]
            per_node[ident] = get(ident, 0.0) + counts[index] * message_kbits
    return ForwardingLoad(per_node=per_node)


def single_tree_load(
    shared_tree: FlatTree,
    message_count: int,
    message_kbits: float = 1.0,
) -> ForwardingLoad:
    """Forwarding load when ``message_count`` messages (from any
    sources) all travel over one shared tree rooted at the tree's
    source — the tree-building architecture of Section 5.1.

    Every internal node relays every message; the root-ward trip of a
    non-root sender is ignored (it only adds O(depth) unicast hops and
    does not change the asymmetric internal-vs-leaf picture).
    """
    if message_count < 0:
        raise ValueError(f"message_count must be >= 0, got {message_count}")
    per_node = {
        ident: count * message_count * message_kbits
        for ident, count in shared_tree.children_counts().items()
    }
    return ForwardingLoad(per_node=per_node)
