"""The tree-building architecture of Section 5.1, for comparison.

"In the approach of tree building, nodes from different multicast
groups participate in a single overlay network, and each group forms a
multicast tree on top of the overlay network by using reverse path
forwarding."  (This is the Scribe/Bayeux family the paper contrasts
its flooding approach with.)

Construction: the group key hashes to a *rendezvous* node (the tree
root).  Every member routes a JOIN toward the key; the reverse of its
lookup path becomes its branch, stopping at the first node that is
already on the tree.  Any source unicasts its message to the root,
which disseminates down the shared tree.

Two properties the paper's Section 5.1 analysis predicts — and this
module lets experiments measure — distinguish it from the CAM
approach:

* forwarding load concentrates on interior nodes while leaf members
  (the majority for fanout > 2) forward nothing;
* node degrees follow routing convergence, **not** capacities: a node
  near the root aggregates the branches of everyone behind it, so its
  out-degree routinely exceeds its capacity ("the multicast tree is
  constrained by the node capacities but the global overlay is not" —
  the open problem the paper's Section 5.1 closes with).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.overlay.base import Node, Overlay, RingSnapshot


@dataclass
class SharedTree:
    """One group's shared multicast tree on a global overlay.

    ``parent`` maps member identifiers to their tree parent (root maps
    to ``None``); ``depth`` is the distance to the root.
    """

    root_ident: int
    parent: dict[int, int | None] = field(default_factory=dict)
    depth: dict[int, int] = field(default_factory=dict)

    def children_counts(self) -> dict[int, int]:
        """Out-degree of every tree node."""
        counts: dict[int, int] = {ident: 0 for ident in self.parent}
        for child, parent in self.parent.items():
            if parent is not None:
                counts[parent] += 1
        return counts

    def capacity_violations(self, snapshot: RingSnapshot) -> dict[int, int]:
        """Nodes whose tree out-degree exceeds their capacity, with the
        excess — the §5.1 "disparity" made concrete."""
        violations: dict[int, int] = {}
        for ident, count in self.children_counts().items():
            capacity = snapshot.node_at(ident).capacity
            if count > capacity:
                violations[ident] = count - capacity
        return violations

    def forwarding_load(
        self, message_count: int, message_kbits: float = 1.0
    ) -> Mapping[int, float]:
        """Kilobits each member relays when ``message_count`` messages
        (from arbitrary sources) all traverse the shared tree downward.

        The root-ward unicast legs are excluded, as in the paper's
        Section 5.1 accounting (they are ordinary unicast traffic).
        """
        return {
            ident: count * message_count * message_kbits
            for ident, count in self.children_counts().items()
        }


def build_shared_tree(overlay: Overlay, group_key: int) -> SharedTree:
    """Reverse-path-forwarding construction over every member.

    Each member's JOIN follows the overlay's LOOKUP route toward the
    group key; the traversed nodes are grafted onto the tree in root-to-
    member order (so parents always exist before their children), and a
    branch stops growing where it meets the existing tree.
    """
    snapshot = overlay.snapshot
    root = snapshot.resolve(group_key)
    tree = SharedTree(root_ident=root.ident)
    tree.parent[root.ident] = None
    tree.depth[root.ident] = 0
    for member in snapshot:
        if member.ident in tree.parent:
            continue
        route = _join_route(overlay, member, group_key, root)
        # route runs member -> ... -> root; graft from the root end down
        for position in range(len(route) - 2, -1, -1):
            node = route[position]
            towards_root = route[position + 1]
            if node.ident in tree.parent:
                continue
            tree.parent[node.ident] = towards_root.ident
            tree.depth[node.ident] = tree.depth[towards_root.ident] + 1
    return tree


def _join_route(
    overlay: Overlay, member: Node, group_key: int, root: Node
) -> list[Node]:
    """The member's lookup path toward the rendezvous, ending at the
    root (appended if the route stopped one short of it)."""
    result = overlay.lookup(member, group_key)
    route = list(result.path)
    if route[-1].ident != root.ident:
        route.append(root)
    if route[0].ident != member.ident:  # pragma: no cover - lookup contract
        route.insert(0, member)
    return route
