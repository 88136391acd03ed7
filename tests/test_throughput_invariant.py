"""The paper's headline throughput guarantee, as a property test.

For a CAM system with ``c_x = floor(B_x / p)`` (no clamping active),
every internal node allocates ``B_x / d_x >= B_x / c_x >= p`` per
child link — so the sustainable session throughput can never fall
below the configured per-link rate, no matter how the tree came out,
who the source is, or how capacities are distributed.  This is the
property that capacity-obliviousness loses (Figure 6).
"""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.throughput import allocated_link_bandwidths, sustainable_throughput
from repro.multicast.session import MulticastGroup, SystemKind


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    per_link=st.sampled_from([25.0, 50.0, 100.0]),
    size=st.integers(min_value=10, max_value=300),
    kind=st.sampled_from([SystemKind.CAM_CHORD, SystemKind.CAM_KOORDE]),
)
def test_cam_throughput_never_below_p(seed, per_link, size, kind):
    rng = Random(seed)
    # bandwidths >= 400 and p <= 100 keep the min-capacity clamp inactive
    bandwidths = [rng.uniform(400, 1000) for _ in range(size)]
    group = MulticastGroup.build(
        kind, bandwidths, per_link_kbps=per_link, space_bits=12, seed=seed
    )
    source = group.random_member(rng)
    tree = group.multicast_from(source)
    assert sustainable_throughput(tree, group.snapshot) >= per_link


def test_clamped_capacity_can_break_the_guarantee():
    """Documented limit: if the overlay's minimum capacity forces a node
    above ``floor(B_x / p)``, its links get less than ``p`` — the clamp
    trades the guarantee for connectivity."""
    # two slow nodes (100 kbps) among fast ones, p = 100: CAM-Koorde
    # clamps them to capacity 4, so their links carry only ~25 kbps.
    rng = Random(3)
    bandwidths = [100.0, 100.0] + [rng.uniform(800, 1000) for _ in range(60)]
    group = MulticastGroup.build(
        SystemKind.CAM_KOORDE, bandwidths, per_link_kbps=100, space_bits=12, seed=3
    )
    # multicast *from* a clamped node: a flood source always serves all
    # its neighbors, so its 100 kbps spread over 4 links is the bottleneck
    slow = next(n for n in group.snapshot if n.bandwidth_kbps == 100.0)
    tree = group.multicast_from(slow)
    assert sustainable_throughput(tree, group.snapshot) < 100.0


@pytest.mark.parametrize("kind", [SystemKind.CHORD, SystemKind.KOORDE])
def test_oblivious_baseline_breaks_the_guarantee(kind):
    """The contrast the paper draws: with a uniform fanout the slowest
    node's links drop below the rate a CAM system would sustain."""
    rng = Random(4)
    bandwidths = [rng.uniform(400, 1000) for _ in range(400)]
    group = MulticastGroup.build(
        kind, bandwidths, per_link_kbps=100, space_bits=12,
        uniform_fanout=8, seed=4,
    )
    tree = group.multicast_from(group.random_member(rng))
    # some ~400 kbps node serves ~8 children: ~50 kbps links
    assert sustainable_throughput(tree, group.snapshot) < 100.0


@pytest.mark.parametrize("kind", [SystemKind.CAM_CHORD, SystemKind.CAM_KOORDE])
def test_bound_holds_wherever_no_forwarder_was_lifted(kind):
    """Figure 6's ``p = 140`` over 400-1000 kbps.  CAM-Chord's floor of 2
    lifts no member (``floor(400 / 140) = 2``), so it stays at or above
    ``p``.  CAM-Koorde's floor of 4 lifts every member under 560 kbps,
    and every forwarder allocating less than ``p`` is one of those."""
    per_link = 140.0
    rng = Random(5)
    bandwidths = [rng.uniform(400, 1000) for _ in range(500)]
    group = MulticastGroup.build(
        kind, bandwidths, per_link_kbps=per_link, space_bits=12, seed=5
    )
    snap = group.snapshot
    lifted = {
        ident
        for ident, capacity, bandwidth in zip(
            snap.identifiers, snap.capacities, snap.bandwidths
        )
        if capacity > bandwidth // per_link
    }
    assert bool(lifted) == (kind is SystemKind.CAM_KOORDE)
    starved_anywhere = set()
    for source in (snap.node_for_index(0), snap.node_for_index(250)):
        tree = group.multicast_from(source)
        allocations = allocated_link_bandwidths(tree, snap)
        starved = {ident for ident, rate in allocations.items() if rate < per_link}
        assert starved <= lifted
        assert (sustainable_throughput(tree, snap) >= per_link) == (not starved)
        starved_anywhere |= starved
    # the bound fails here for CAM-Koorde: it is no claim of that system
    assert bool(starved_anywhere) == (kind is SystemKind.CAM_KOORDE)
