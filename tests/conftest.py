"""Shared test fixtures and helpers."""

from __future__ import annotations

from random import Random

import pytest

from repro.idspace.ring import IdentifierSpace
from repro.overlay.base import Node, RingSnapshot


def make_snapshot(
    bits: int,
    idents: list[int],
    capacity: int | list[int] = 3,
    bandwidth: float | list[float] = 0.0,
) -> RingSnapshot:
    """Build a snapshot with explicit identifiers (paper examples)."""
    count = len(idents)
    capacities = [capacity] * count if isinstance(capacity, int) else list(capacity)
    bandwidths = (
        [bandwidth] * count if isinstance(bandwidth, (int, float)) else list(bandwidth)
    )
    nodes = [
        Node(ident=ident, capacity=capacities[i], bandwidth_kbps=bandwidths[i])
        for i, ident in enumerate(idents)
    ]
    return RingSnapshot(IdentifierSpace(bits), nodes)


def random_snapshot(
    bits: int,
    count: int,
    seed: int,
    capacity_range: tuple[int, int] = (4, 10),
    bandwidth_range: tuple[float, float] = (400.0, 1000.0),
) -> RingSnapshot:
    """A random snapshot with uniform capacities and bandwidths."""
    rng = Random(seed)
    size = 1 << bits
    idents = rng.sample(range(size), count)
    nodes = [
        Node(
            ident=ident,
            capacity=rng.randint(*capacity_range),
            bandwidth_kbps=rng.uniform(*bandwidth_range),
        )
        for ident in idents
    ]
    return RingSnapshot(IdentifierSpace(bits), nodes)


def assert_plan_deterministic(plan, **run_kwargs):
    """Run one fault plan twice and demand identical outcomes.

    The seed-determinism contract of :mod:`repro.faults`: every byte of
    a plan's execution derives from the plan's own fields, so two runs
    in one process (sharing the global message-id counter, the tracer
    and any other process state) still produce the same violation set,
    delivery ratios and duplicate counts.  ``run_kwargs`` forward to
    ``run_plan`` (mode/settle/stale_backup — the failover paths hold to
    the same contract).  Returns the first outcome so callers can go on
    to assert about its content.
    """
    from repro.faults import run_plan

    first = run_plan(plan, **run_kwargs)
    second = run_plan(plan, **run_kwargs)
    assert first.violations == second.violations
    assert first.delivery_ratios == second.delivery_ratios
    assert first.duplicates_per_message == second.duplicates_per_message
    assert first.final_membership == second.final_membership
    assert first.member_gaps == second.member_gaps
    assert first.recovered == second.recovered
    return first


@pytest.fixture
def figure2_snapshot() -> RingSnapshot:
    """The paper's Figure 2 topology: N=32, eight nodes, capacity 3.

    Node identifiers are expressed relative to x = 0.
    """
    return make_snapshot(5, [0, 4, 8, 13, 18, 21, 26, 29], capacity=3)


@pytest.fixture
def figure4_snapshot() -> RingSnapshot:
    """The paper's Figure 4 topology: N=64, sixteen nodes, capacity 10."""
    idents = [1, 4, 9, 12, 18, 21, 25, 30, 35, 36, 37, 41, 46, 50, 57, 61]
    return make_snapshot(6, idents, capacity=10)
