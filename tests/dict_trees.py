"""Dict-built multicast trees: the oracle the flat-array kernel answers to.

The kernel (:mod:`repro.multicast.kernel`) builds every tree as flat
arrays over member rows.  The recorders here build the same trees the
plain way — a ``parent`` and a ``depth`` dict, one insert per delivery,
in delivery order — straight from a system's child rule or neighbor
relation.  :func:`derived` computes from the two dicts what a
:class:`~repro.multicast.kernel.FlatTree` reports about itself, and
:func:`hand_tree` draws a small ``FlatTree`` by hand for metric tests.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque

from repro.metrics.tree_stats import TreeStats
from repro.multicast.cam_chord import select_child_regions
from repro.multicast.kernel import DuplicateDeliveryError, FlatTree, select_tree

Parent = dict[int, int | None]
Depth = dict[int, int]


def select_children(overlay, node, limit):
    """CAM-Chord (or plain Chord, fanout = base) child selection over the
    global snapshot: the live peers' rule, every slot answered by the
    member truly responsible for it."""
    snapshot = overlay.snapshot
    regions = select_child_regions(
        node.ident,
        overlay.fanout(node),
        overlay.space.bits,
        limit,
        lambda level, sequence, identifier: snapshot.resolve(identifier).ident,
    )
    return [(snapshot.node_at(child), sublimit) for child, sublimit in regions]


def region_split(overlay, source, select=select_children) -> tuple[Parent, Depth]:
    """Breadth-first region split from ``source``, which owns the rest of
    the ring: ``select(overlay, node, limit)`` names a node's children
    with their subregions."""
    parent: Parent = {source.ident: None}
    depth: Depth = {source.ident: 0}
    queue = deque([(source, overlay.space.sub(source.ident, 1))])
    while queue:
        node, limit = queue.popleft()
        for child, sublimit in select(overlay, node, limit):
            if child.ident in parent:
                raise DuplicateDeliveryError(f"node {child.ident} received twice")
            parent[child.ident] = node.ident
            depth[child.ident] = depth[node.ident] + 1
            queue.append((child, sublimit))
    return parent, depth


def flood(overlay, source) -> tuple[Parent, Depth]:
    """Breadth-first flood over ``overlay.neighbors``: first visit wins."""
    parent: Parent = {source.ident: None}
    depth: Depth = {source.ident: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in overlay.neighbors(node):
            if neighbor.ident not in parent:
                parent[neighbor.ident] = node.ident
                depth[neighbor.ident] = depth[node.ident] + 1
                queue.append(neighbor)
    return parent, depth


def derived(parent: Parent, depth: Depth) -> dict:
    """Children counts (delivery order, leaves at 0), path-length
    histogram, mean / max path length and the
    :class:`TreeStats` of the tree the two dicts describe."""
    children = Counter({ident: 0 for ident in parent})
    for ident in parent.values():
        if ident is not None:
            children[ident] += 1
    fanouts = [count for count in children.values() if count]
    histogram = Counter(depth.values())
    others = len(depth) - 1
    mean = sum(depth.values()) / others if others else 0.0
    return {
        "children": children,
        "histogram": histogram,
        "mean": mean,
        "max": max(depth.values()),
        "stats": TreeStats(
            receivers=len(parent),
            average_path_length=mean,
            max_path_length=max(depth.values()),
            histogram=dict(sorted(histogram.items())),
            internal_count=len(fanouts),
            leaf_count=len(parent) - len(fanouts),
            average_children=sum(fanouts) / len(fanouts) if fanouts else 0.0,
            max_children=max(fanouts, default=0),
        ),
    }


def path_to_source(parent: Parent, ident: int) -> list[int]:
    path = [ident]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path


def hand_tree(snapshot, source: int, edges=()) -> FlatTree:
    """The kernel's tree of hand-drawn ``(parent, child)`` edges over
    ``snapshot``, delivered breadth-first from ``source``."""
    kids = defaultdict(list)
    for up, child in edges:
        kids[up].append(snapshot.node_at(child))
    return select_tree(
        snapshot,
        snapshot.node_at(source),
        lambda node, limit: [(child, limit) for child in kids[node.ident]],
    )
