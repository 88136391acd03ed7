"""Tests for shared-memory membership buffers and the scale tier.

The headline guarantees:

* a :class:`MemberBuffer` round-trips a snapshot *exactly* — same
  identifiers, capacities, bandwidths, same nodes — through both the
  shared-memory path and the by-value fallback;
* ``--jobs N`` output stays byte-identical to serial with shared
  buffers AND with the by-value fallback (segment creation failing
  with ``OSError``, as on a host without usable ``/dev/shm``);
* the shm counters attribute cleanly: the parent balances creates
  against detaches, workers count each physical attach exactly once
  inside a task delta, so pool-summed deltas never double-count.
"""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.capacity.distributions import UniformCapacity
from repro.experiments.common import (
    BandwidthMembers,
    CapacityMembers,
    ExperimentScale,
    bandwidth_group,
    bandwidth_members,
    clear_caches,
    members_snapshot,
)
from repro.experiments.parallel import run_experiments
from repro.idspace.ring import IdentifierSpace
from repro.membership import InlineHandle, MemberBuffer, ShmHandle
from repro.membership import exchange
from repro.multicast import kernel
from repro.overlay.base import build_snapshot
from repro.overlay.cam_chord import CamChordOverlay
from repro.workloads.groups import GroupSpec
from tests.conftest import no_shared_memory

TINY = ExperimentScale("tiny", 400, 2, 20, space_bits=12)


@pytest.fixture
def force_fallback(monkeypatch):
    """Segment creation fails the way it does without ``/dev/shm``."""
    monkeypatch.setattr(MemberBuffer, "_create_shared", no_shared_memory)


def _build_snapshot(capacities, bandwidths, seed=0):
    return build_snapshot(
        IdentifierSpace(12),
        capacities,
        bandwidths=bandwidths,
        rng=Random(seed),
    )


def _assert_round_trip(original, restored):
    assert len(restored) == len(original)
    assert restored.space.bits == original.space.bits
    assert list(restored.identifiers) == list(original.identifiers)
    assert list(restored.capacities) == list(original.capacities)
    assert list(restored.bandwidths) == list(original.bandwidths)
    assert restored.nodes == original.nodes


class TestMemberBufferRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        capacities=st.lists(st.integers(1, 20), min_size=1, max_size=40),
        with_bandwidths=st.booleans(),
        seed=st.integers(0, 3),
    )
    def test_property_round_trip_shared_and_fallback(
        self, capacities, with_bandwidths, seed
    ):
        bandwidths = (
            [100.0 * c for c in capacities] if with_bandwidths else None
        )
        original = _build_snapshot(capacities, bandwidths, seed)
        for fallback in (False, True):
            with pytest.MonkeyPatch.context() as patch:
                if fallback:
                    patch.setattr(MemberBuffer, "_create_shared", no_shared_memory)
                owner = MemberBuffer.from_snapshot(original)
            try:
                assert owner.shared == (not fallback)
                _assert_round_trip(original, owner.snapshot())
                attached = MemberBuffer.attach(owner.handle())
                try:
                    _assert_round_trip(original, attached.snapshot())
                finally:
                    attached.destroy()
            finally:
                owner.destroy()

    def test_handle_kinds(self, force_fallback):
        snapshot = _build_snapshot([4, 5, 6], [400.0, 500.0, 600.0])
        fallback = MemberBuffer.from_snapshot(snapshot)
        assert isinstance(fallback.handle(), InlineHandle)
        assert not fallback.shared
        fallback.destroy()  # no-op, must not raise

    def test_shared_handle_and_idempotent_destroy(self):
        snapshot = _build_snapshot([4, 5, 6], [400.0, 500.0, 600.0])
        buffer = MemberBuffer.from_snapshot(snapshot)
        if not buffer.shared:
            pytest.skip("shared memory unavailable on this platform")
        handle = buffer.handle()
        assert isinstance(handle, ShmHandle)
        assert handle.count == 3
        before = perf.snapshot()
        buffer.destroy()
        buffer.destroy()
        assert perf.since(before).shm_detaches == 1

    def test_snapshot_is_cached_per_buffer(self):
        snapshot = _build_snapshot([4, 4, 4], None)
        buffer = MemberBuffer.from_snapshot(snapshot)
        try:
            assert buffer.snapshot() is buffer.snapshot()
        finally:
            buffer.destroy()


class TestMemberRequests:
    def test_bandwidth_request_matches_group_snapshot(self):
        clear_caches()
        request = bandwidth_members("cam-chord", TINY, per_link_kbps=100.0, seed=3)
        built = members_snapshot(request)
        group = bandwidth_group("cam-chord", TINY, per_link_kbps=100.0, seed=3)
        assert group.snapshot is built  # same cache entry, not a rebuild

    def test_snapshot_shared_across_kinds_with_same_floor(self):
        clear_caches()
        chord = bandwidth_group("chord", TINY, per_link_kbps=100.0, seed=0)
        koorde = bandwidth_group("koorde", TINY, per_link_kbps=100.0, seed=0)
        # both baselines have min_capacity == 1 -> identical request
        assert chord.snapshot is koorde.snapshot

    def test_capacity_request_reproduces_generate_group(self):
        clear_caches()
        spec = GroupSpec(
            size=50, space_bits=12, capacities=UniformCapacity(4, 10), min_capacity=4
        )
        first = members_snapshot(CapacityMembers(spec=spec, seed=1))
        second = members_snapshot(CapacityMembers(spec=spec, seed=1))
        assert first is second
        assert first.identifiers == CapacityMembers(spec, 1).build().identifiers

    def test_requests_are_hashable_and_picklable(self):
        import pickle

        request = bandwidth_members("cam-koorde", TINY, per_link_kbps=40.0, seed=2)
        assert isinstance(request, BandwidthMembers)
        assert pickle.loads(pickle.dumps(request)) == request
        assert hash(request) == hash(pickle.loads(pickle.dumps(request)))


class TestParallelParity:
    """Serial vs --jobs 2, shared buffers on and fallback forced."""

    def _parity(self, figure):
        clear_caches()
        serial = run_experiments([figure], TINY, seeds=[0], jobs=1)
        clear_caches()
        fanned = run_experiments([figure], TINY, seeds=[0], jobs=2)
        assert serial[0].result.render() == fanned[0].result.render()

    def test_fig6_parity_with_shared_buffers(self):
        self._parity("fig6")

    def test_fig7_parity_with_shared_buffers(self):
        self._parity("fig7")

    def test_fig6_parity_with_fallback_forced(self, force_fallback):
        before = perf.snapshot()
        self._parity("fig6")
        delta = perf.since(before)
        assert delta.shm_creates == 0
        assert delta.shm_fallbacks > 0  # the fanned run published inline

    def test_fig7_parity_with_fallback_forced(self, force_fallback):
        self._parity("fig7")


class TestCounterAttribution:
    def test_parent_balances_creates_and_detaches(self):
        clear_caches()
        before = perf.snapshot()
        runs = run_experiments(["fig6"], TINY, seeds=[0], jobs=2)
        parent = perf.since(before)
        if parent.shm_fallbacks:
            pytest.skip("shared memory unavailable on this platform")
        assert parent.shm_creates > 0
        assert parent.shm_creates == parent.shm_detaches
        # the parent publishes but never attaches: worker attaches must
        # not leak into the parent's own counter stream
        assert parent.shm_attaches == 0
        # summed task deltas carry the worker attaches, each counted
        # once: at least one worker attached, no worker attached any
        # buffer twice (<= workers x buffers)
        attaches = runs[0].counters.shm_attaches
        assert 1 <= attaches <= 2 * parent.shm_creates

    def test_exchange_attach_counted_once_per_worker(self):
        snapshot = _build_snapshot([4, 5, 6], [400.0, 500.0, 600.0])
        exchange.publish("req", snapshot)
        try:
            handles = exchange.export_handles()
            exchange.install(handles)  # simulate the worker initializer
            before = perf.snapshot()
            first = exchange.acquire("req")
            second = exchange.acquire("req")
            delta = perf.since(before)
            assert first is second
            if delta.shm_fallbacks == 0:
                assert delta.shm_attaches == 1  # second acquire was a dict hit
        finally:
            exchange.install({})
            exchange.release_all()

    def test_acquire_unpublished_returns_none(self):
        assert exchange.acquire(("nope", 1)) is None


class TestKernelStateCache:
    def test_state_reused_for_same_overlay(self):
        snapshot = _build_snapshot([4] * 30, None)
        overlay = CamChordOverlay(snapshot)
        state = kernel._split_state(overlay)
        assert kernel._split_state(overlay) is state

    def test_capacity_eviction_counts(self):
        overlays = []
        for seed in range(kernel._STATE_CAPACITY + 2):
            snapshot = _build_snapshot([4] * 20, None, seed=seed)
            overlays.append(CamChordOverlay(snapshot))
        before = perf.snapshot()
        for overlay in overlays:
            kernel._split_state(overlay)
        delta = perf.since(before)
        assert delta.kernel_state_evictions >= 2
        assert len(kernel._SPLIT_STATES) <= kernel._STATE_CAPACITY

    def test_dead_overlay_entry_dropped_without_eviction(self):
        import gc

        snapshot = _build_snapshot([4] * 20, None, seed=99)
        overlay = CamChordOverlay(snapshot)
        kernel._split_state(overlay)
        population = len(kernel._SPLIT_STATES)
        before = perf.snapshot()
        del overlay
        gc.collect()
        assert len(kernel._SPLIT_STATES) == population - 1
        assert perf.since(before).kernel_state_evictions == 0


class TestPeakRss:
    def test_peak_rss_positive_or_absent(self):
        rss = perf.peak_rss()
        if rss is None:
            pytest.skip("resource module unavailable")
        assert rss > 0
        assert perf.peak_rss_mb() == pytest.approx(rss / (1024 * 1024), abs=0.06)
