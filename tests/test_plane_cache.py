"""Epoch-cached dissemination schedules: golden outputs and invalidation.

The schedule template is the plane's only send path, and it must
produce exactly what one engine event per delivery would.  These tests
pin that down four ways:

* **Golden outputs.**  The full extN quick matrix, a contended-uplink
  scenario and a bounded-``run(until)`` scenario must reproduce the
  digests in ``tests/golden/plane_observables.json`` — receipts with
  their delivery order, sequence audits, ``mc.*`` trace JSONL, report
  rows, host load and deferral count, recorded from the deleted
  event-per-delivery walker (see :mod:`tests.golden.plane_observables`
  for provenance and the one regeneration step).
* **Invariants that need no twin.**  A Hypothesis op sequence (send,
  ``send_later``, bounded runs, join, leave) checks causality along
  every ``mc.deliver`` parent edge, uplink exclusivity per host, the
  quiesce oracles, and that an isolated send lands on the analytic
  :func:`~repro.sim.transfer.delivery_timeline`.
* **Invalidation.**  A Hypothesis-driven op sequence checks the
  membership-epoch contract: every join/leave/create bumps the epoch,
  no send ever delivers through a stale tree to a departed member,
  and a leave-then-rejoin opens a fresh ledger stint.
* **Attribution.**  The ``schedule_cache_*`` / ``wavefront_commits``
  counters and the extN per-cell cache stats.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import perf
from repro.experiments.common import SCALES
from repro.experiments.ext_service import run_point
from repro.multicast.plane import ServicePlane
from repro.sim.transfer import UplinkBudget, delivery_timeline
from repro.trace.tracer import TRACER
from tests.golden import plane_observables as golden
from tests.sequence_ledger import Mirror, assert_same_audit

#: the subprocess test imports ``tests.golden`` from here
REPO_ROOT = Path(__file__).resolve().parent.parent


def make_plane(
    hosts: int = 20,
    kbps: float = 400.0,
    space_bits: int = 14,
    hop_latency: float = 0.0,
) -> ServicePlane:
    plane = ServicePlane(space_bits=space_bits, hop_latency=hop_latency)
    for index in range(hosts):
        plane.register_host(f"h{index}", kbps)
    return plane


class TestCachedUncachedEquivalence:
    """The three fixed inputs that once ran on both send paths, now
    judged against the digests the event-per-delivery path left."""

    def test_extn_quick_matrix_is_byte_identical(self):
        # the full quick matrix: group counts x churn rates, including
        # churned cells where epochs move mid-dissemination
        expected = golden.load()
        cells = [
            (key, thunk)
            for key, thunk in golden.scenarios()
            if key.startswith("extn_quick/")
        ]
        assert len(cells) == 4
        for key, thunk in cells:
            assert thunk() == expected[key], f"divergence at {key}"

    def test_contended_uplink_fallback_is_byte_identical(self):
        # one slow host shared by every group: the budget saturates,
        # deliveries defer, and the wavefront must interleave with the
        # backpressure exactly as event-per-delivery execution does
        observed = golden.contended_uplink()
        assert observed == golden.load()["contended_uplink"]
        assert observed["deferrals"] > 0  # it genuinely backpressured

    def test_bounded_run_interleaves_identically(self):
        # run(until) bounds the wavefront's look-ahead: mid-run state
        # must match event-per-delivery execution at every cut
        observed = golden.bounded_run()
        assert len(observed) == 6
        assert observed == golden.load()["bounded_run"]

    def test_completion_followup_stops_at_each_completion(self):
        # a completion callback originates the next send while another
        # group has deliveries tied at that instant: the wavefront's
        # cached horizon must stop exactly where a per-delivery re-read
        # of the engine's next event time did
        observed = golden.completion_followup()
        assert observed == golden.load()["completion_followup"]

    @pytest.mark.parametrize("hash_seed", ["1", "4242"])
    def test_golden_digests_do_not_depend_on_hash_seed(self, hash_seed):
        # set/dict iteration order must never leak into an observable
        script = (
            "import json; from tests.golden import plane_observables as g; "
            "print(json.dumps([g.contended_uplink(), g.bounded_run()]))"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            capture_output=True, text=True, check=True,
        )
        expected = golden.load()
        assert json.loads(done.stdout) == [
            expected["contended_uplink"], expected["bounded_run"],
        ]


class TestScheduleInvariants:
    """What any interleaving must satisfy, judged from receipts and
    ``mc.deliver`` parent edges alone — no second implementation."""

    LATENCY = 0.003
    EPS = 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=2**31 - 1),
            min_size=1, max_size=30,
        )
    )
    # found by this test: two back-to-back sends whose wavefront fires
    # an ulp after the last delivery's own time — completing the send
    # then tried to schedule its resolution in the past
    @example([1_762_946_376, 2416, 2416])
    def test_causality_and_uplink_exclusivity(self, codes):
        plane = ServicePlane(space_bits=14, hop_latency=self.LATENCY)
        pool = [f"h{i}" for i in range(8)]
        for index, name in enumerate(pool):
            plane.register_host(name, 100.0 * (1 + index % 4))
        # two groups over overlapping hosts: uplinks are shared
        members = {"a": pool[:5], "b": pool[3:7]}
        for name, hosts in members.items():
            plane.create_group(name, list(hosts))
        service = plane.service
        # sources of scheduled sends stay put: a send_later whose source
        # has left by fire time is an error, not an interleaving
        pinned: dict[str, set[str]] = {"a": set(), "b": set()}
        host_of: dict[int, dict[int, str]] = {}  # mid -> ident -> host

        def originated(receipt):
            host_of[receipt.mid] = {
                service.member_ident(receipt.group, name): name
                for name in receipt.members
            }

        TRACER.enable()
        try:
            for code in codes:
                op, pick = code % 6, code // 6
                group = "ab"[pick % 2]
                hosts = members[group]
                if op == 0:  # join (sends instead when the pool is in)
                    outside = [name for name in pool if name not in hosts]
                    if outside:
                        joiner = outside[pick // 2 % len(outside)]
                        plane.join(group, joiner)
                        hosts.append(joiner)
                        continue
                elif op == 1:  # leave (keeps at least one member)
                    free = [h for h in hosts if h not in pinned[group]]
                    if len(hosts) > 1 and free:
                        leaver = free[pick // 2 % len(free)]
                        plane.leave(group, leaver)
                        hosts.remove(leaver)
                        continue
                elif op == 2:  # a bounded run cuts the wavefront
                    plane.run(plane.now + (pick % 50) / 100.0)
                    continue
                source = hosts[pick // 2 % len(hosts)]
                kbits = 4.0 * (1 + pick % 5)
                if op == 3:  # freezes membership at fire time
                    pinned[group].add(source)
                    plane.send_later(
                        (pick % 40) / 50.0, group, source, kbits
                    ).add_callback(lambda placed: originated(placed.value))
                else:
                    originated(plane.send(group, source, kbits))
            plane.drain()
            events = TRACER.events()
        finally:
            TRACER.disable()
            TRACER.clear()
        plane.verify_quiesced()

        receipts = {receipt.mid: receipt for receipt in plane.receipts()}
        bandwidth = service.hosts
        uplink: dict[str, list[tuple[float, float]]] = {}
        for event in events:
            if event.name != "mc.deliver" or event.data["parent"] is None:
                continue
            receipt = receipts[event.data["mid"]]
            names = host_of[receipt.mid]
            child = names[event.data["ident"]]
            parent = names[event.data["parent"]]
            arrived = receipt.delivered[child]
            assert event.time == arrived
            serialize = receipt.message_kbits / bandwidth[parent]
            assert arrived >= (
                receipt.delivered[parent] + serialize + self.LATENCY - self.EPS
            ), f"{child} got mid {receipt.mid} before {parent} could send it"
            sent = arrived - self.LATENCY
            uplink.setdefault(parent, []).append((sent - serialize, sent))
        for host, slots in uplink.items():
            slots.sort()
            for (_, busy_until), (start, _) in zip(slots, slots[1:]):
                assert start >= busy_until - self.EPS, (
                    f"{host} serialized two transmissions at once"
                )

        # quiesced, every uplink is idle: one more send is isolated and
        # must land exactly on the analytic timeline
        group, source = "a", members["a"][0]
        receipt = plane.send(group, source, 8.0)
        plane.drain()
        overlay = service.group(group)
        names = {
            service.member_ident(group, name): name
            for name in receipt.members
        }
        timeline = delivery_timeline(
            overlay.multicast_from(
                overlay.snapshot.node_at(service.member_ident(group, source))
            ),
            overlay.snapshot,
            8.0,
            hop_latency=lambda a, b: self.LATENCY,
            budget=UplinkBudget(),
            start_time=receipt.origin_time,
            host_key=lambda ident: names[ident],
        )
        assert receipt.delivered == {
            names[ident]: when for ident, when in timeline.items()
        }


class TestEpochInvalidation:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2**31 - 1), min_size=1, max_size=40))
    def test_membership_ops_bump_epoch_and_freeze_membership(self, codes):
        with TRACER.capture():
            self._bump_and_freeze(codes)

    def _bump_and_freeze(self, codes):
        plane = make_plane(hosts=8)
        mirror = Mirror(plane)
        pool = [f"h{i}" for i in range(8)]
        members = ["h0", "h1", "h2"]
        mirror.create("g", list(members))
        service = plane.service
        epoch = service.membership_epoch("g")
        admissions = {name: 1 for name in members}
        for code in codes:
            op = code % 3
            if op == 0:  # join (falls through to send when full)
                candidates = [name for name in pool if name not in members]
                if candidates:
                    joiner = candidates[(code // 3) % len(candidates)]
                    mirror.join("g", joiner)
                    members.append(joiner)
                    admissions[joiner] = admissions.get(joiner, 0) + 1
                    bumped = service.membership_epoch("g")
                    assert bumped > epoch, "join must open a new epoch"
                    epoch = bumped
                    continue
                op = 2
            if op == 1:  # leave (keeps at least one member)
                if len(members) > 1:
                    leaver = members[(code // 3) % len(members)]
                    mirror.leave("g", leaver)
                    members.remove(leaver)
                    bumped = service.membership_epoch("g")
                    assert bumped > epoch, "leave must open a new epoch"
                    epoch = bumped
                    continue
                op = 2
            if op == 2:  # send: frozen membership == current members
                source = members[(code // 3) % len(members)]
                receipt = mirror.send("g", source, 4.0)
                assert set(receipt.members) == set(members), (
                    "a send must freeze exactly the current epoch's "
                    "membership — never a stale tree's"
                )
                assert service.membership_epoch("g") == epoch, (
                    "sends must not bump the epoch"
                )
        assert_same_audit(plane, mirror)  # in flight: every send owes
        plane.drain()
        plane.verify_quiesced()  # leavers still complete in-flight sends
        for receipt in plane.receipts():
            assert set(receipt.delivered) == set(receipt.members), (
                "deliveries must cover the frozen membership exactly: "
                "no departed member may receive through a stale tree"
            )
        # the reference ledger opened a fresh stint at every rejoin,
        # and the receipts owe exactly what its stints owe
        assert_same_audit(plane, mirror)
        ledger = mirror.ledgers["g"][-1]
        for name, stints in ledger._cursors.items():
            assert len(stints) == admissions[name], (
                f"{name}: every leave-then-rejoin must open a fresh stint"
            )

    def test_drop_group_invalidates_cached_templates(self):
        plane = make_plane()
        plane.create_group("g", ["h0", "h1", "h2", "h3"])
        with perf.scoped() as scope:
            plane.send("g", "h0")
            plane.send("g", "h1")
            plane.drain()
            plane.drop_group("g")
        assert scope.delta.schedule_cache_misses == 2
        assert scope.delta.schedule_cache_invalidations == 2


class TestSendTemplate:
    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from(["cam-chord", "chord", "cam-koorde", "koorde"]),
        size=st.integers(min_value=1, max_value=24),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_kids_and_charges_are_the_trees(self, kind, size, seed):
        """A template reads each forwarder's children as a run of the
        tree's ``order``: ``order[firsts[row] : firsts[row] +
        child_count[row]]`` is exactly the rows ``parent_index`` names
        as ``row``'s children, in delivery order; the parent and depth
        columns a traced send reads are the tree's; and the charges are
        the tree's forwarders with their child counts, in the order
        ``children_counts`` lists them."""
        rng = Random(seed)
        plane = ServicePlane(space_bits=14)
        pool = [f"h{index}" for index in range(24)]
        for name in pool:
            plane.register_host(name, rng.uniform(200.0, 1200.0))
        members = rng.sample(pool, size)
        plane.create_group("g", members, kind=kind)
        for source in members:
            plane.send("g", source)
            template = plane._groups["g"][-1].context.templates[source]
            overlay = plane.service.group("g")
            tree = overlay.multicast_from(
                overlay.snapshot.node_at(plane.service.member_ident("g", source))
            )
            parent_index = tree.parent_index
            order = template.order
            firsts = template.firsts
            counts = template.child_count
            assert list(order) == list(tree.order)
            assert list(counts) == list(tree.child_count)
            assert (template.source_row, template.source_ident) == (
                tree.order[0], tree.source_ident,
            )
            assert template.edges == tree.messages_sent
            assert [
                list(order[firsts[row] : firsts[row] + counts[row]])
                for row in range(len(parent_index))
            ] == [
                [child for child in tree.order[1:] if parent_index[child] == row]
                for row in range(len(parent_index))
            ]
            parents, depths = template.parents_and_depths()
            assert list(parents) == list(parent_index)
            assert list(depths) == list(tree.depth_array)
            host_of = dict(zip(tree.snapshot.identifiers, tree.snapshot.names))
            charges = [
                (host_of[ident], count)
                for ident, count in tree.children_counts().items()
                if count
            ]
            assert template.forwarders == [host for host, _ in charges]
            assert template.fanouts == [count for _, count in charges]
        plane.drain()
        plane.verify_quiesced()


class TestCounters:
    def test_hit_miss_accounting(self):
        plane = make_plane()
        plane.create_group("g", ["h0", "h1", "h2", "h3"])
        with perf.scoped() as scope:
            plane.send("g", "h0")
            plane.send("g", "h0")  # same (epoch, source): hit
            plane.send("g", "h1")  # new source: miss
            plane.drain()
        delta = scope.delta
        assert delta.schedule_cache_misses == 2
        assert delta.schedule_cache_hits == 1
        assert delta.wavefront_commits >= 1

    def test_membership_change_invalidates(self):
        plane = make_plane()
        plane.create_group("g", ["h0", "h1", "h2", "h3"])
        plane.send("g", "h0")
        plane.drain()
        plane.join("g", "h4")
        with perf.scoped() as scope:
            plane.send("g", "h0")  # stale epoch: invalidate + rebuild
            plane.drain()
        assert scope.delta.schedule_cache_invalidations == 1
        assert scope.delta.schedule_cache_misses == 1
        assert scope.delta.schedule_cache_hits == 0


class TestExperimentAttribution:
    def test_extn_row_carries_cache_stats(self):
        row = run_point(SCALES["bench"], 0, (12, 0.0))
        cache = row["sched_cache"]
        lookups = cache["hits"] + cache["misses"]
        # one template lookup per send — no more, no fewer
        assert lookups == row["sends"]
        assert cache["misses"] > 0
        assert cache["wavefront_commits"] > 0
        assert cache["hit_rate"] == round(cache["hits"] / lookups, 4)

    def test_replayed_reports_compare_equal(self):
        def once():
            plane = make_plane()
            plane.create_group("g", ["h0", "h1", "h2", "h3"])
            plane.send("g", "h0")
            plane.drain()
            return plane.report()

        one, other = once(), once()
        assert one == other
