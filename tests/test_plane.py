"""Tests for the event-driven multi-group service plane."""

from __future__ import annotations

import gc
import tracemalloc
from array import array
from heapq import heappush
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.multicast import kernel as kernel_module
from repro.multicast import plane as plane_module
from repro.multicast.plane import (
    GroupStats,
    SendReceipt,
    ServicePlane,
    _SendState,
    _SendTemplate,
)
from repro.trace.tracer import TRACER
from tests.sequence_ledger import Mirror, SequenceLedger, _Cursor, assert_same_audit


def make_plane(
    hosts: int = 20, kbps: float = 400.0, space_bits: int = 14
) -> ServicePlane:
    plane = ServicePlane(space_bits=space_bits)
    for index in range(hosts):
        plane.register_host(f"h{index}", kbps)
    return plane


def plant(plane: ServicePlane, when: float, state: _SendState, k: int) -> None:
    """Queue a second copy of the delivery of row ``state.order[k]``,
    due at ``when`` behind every entry already keyed there: a one-row
    forwarding run."""
    heappush(plane._pending, (when, plane._pending_seq, state, k, k + 1, 0.0, 0.0))
    plane._pending_seq += 1


class TestSequenceLedger:
    """The reference cursors' own rules."""

    def test_contiguous_delivery_is_clean(self):
        ledger = SequenceLedger()
        ledger.admit("a")
        for _ in range(3):
            seq = ledger.issue()
            assert ledger.record("a", seq) == "ok"
        audit = ledger.audit()
        assert audit.clean
        assert ledger.issued == 3

    def test_gap_is_named_exactly(self):
        ledger = SequenceLedger()
        ledger.admit("a")
        ledger.issue(); ledger.issue(); ledger.issue()
        ledger.record("a", 1)
        ledger.record("a", 3)
        audit = ledger.audit()
        assert audit.gaps == {"a": (2,)}
        ledger.record("a", 2)
        assert ledger.audit().clean

    def test_out_of_order_is_not_a_gap(self):
        # overlapping sends complete out of order; the cursor's ahead
        # set absorbs them without false gaps
        ledger = SequenceLedger()
        ledger.admit("a")
        for _ in range(4):
            ledger.issue()
        for seq in (3, 1, 4, 2):
            assert ledger.record("a", seq) == "ok"
        assert ledger.audit().clean

    def test_duplicate_detected_across_overlap(self):
        ledger = SequenceLedger()
        ledger.admit("a")
        ledger.issue(); ledger.issue()
        assert ledger.record("a", 2) == "ok"
        assert ledger.record("a", 2) == "dup"  # still in the ahead set
        assert ledger.record("a", 1) == "ok"
        assert ledger.record("a", 1) == "dup"  # behind the cursor now
        assert ledger.audit().dups == 2

    def test_joiner_obligated_from_next_seq(self):
        ledger = SequenceLedger()
        ledger.admit("old")
        ledger.issue()  # seq 1: only old is obligated
        ledger.admit("young")  # obligated from 2 on
        ledger.issue()
        ledger.record("old", 1); ledger.record("old", 2)
        ledger.record("young", 2)
        assert ledger.audit().clean
        # a stray delivery of seq 1 to the joiner is out of obligation
        assert ledger.record("young", 1) == "unexpected"
        assert ledger.audit().unexpected == 1

    def test_leaver_stays_accountable(self):
        ledger = SequenceLedger()
        ledger.admit("a"); ledger.admit("b")
        ledger.issue()
        ledger.retire("b")  # leaves after seq 1 was issued
        ledger.issue()  # b is NOT obligated for seq 2
        ledger.record("a", 1); ledger.record("a", 2)
        audit = ledger.audit()
        assert audit.gaps == {"b": (1,)}  # the in-flight send still owed
        ledger.record("b", 1)
        assert ledger.audit().clean
        assert ledger.record("b", 2) == "unexpected"

    def test_rejoin_gets_a_fresh_stint(self):
        ledger = SequenceLedger()
        ledger.admit("a")
        ledger.issue()
        ledger.record("a", 1)
        ledger.retire("a")
        ledger.issue()  # seq 2 while away: not owed
        ledger.admit("a")  # rejoin: obligated from 3
        ledger.issue()
        ledger.record("a", 3)
        assert ledger.audit().clean
        assert ledger.record("a", 2) == "unexpected"
        with pytest.raises(ValueError, match="already tracked"):
            ledger.admit("a")

    def test_delivery_between_stints_is_unexpected(self):
        # seq 2 was issued while "a" was away: it falls after the first
        # stint's last obligation and before the second stint's first
        ledger = SequenceLedger()
        ledger.admit("a")
        ledger.issue()
        ledger.retire("a")
        ledger.issue()
        ledger.admit("a")
        ledger.issue()
        assert ledger.record("a", 2) == "unexpected"
        assert ledger.record("a", 0) == "unexpected"  # before any stint
        assert ledger.record("nobody", 1) == "unexpected"
        assert [ledger.record("a", seq) for seq in (3, 1, 1)] == [
            "ok", "ok", "dup",
        ]
        audit = ledger.audit()
        assert (audit.gaps, audit.dups, audit.unexpected) == ({}, 1, 3)

    def test_double_retire_rejected(self):
        ledger = SequenceLedger()
        ledger.admit("a")
        ledger.retire("a")
        with pytest.raises(ValueError, match="not actively tracked"):
            ledger.retire("a")


class TestPlaneSends:
    def test_single_send_completes_everyone(self):
        plane = make_plane()
        plane.create_group("g", [f"h{i}" for i in range(10)])
        receipt = plane.send("g", "h0", message_kbits=16.0)
        assert not receipt.complete  # nothing ran yet
        plane.drain()
        assert receipt.complete
        receipt.verify_complete()
        assert set(receipt.delivered) == set(receipt.members)
        plane.verify_quiesced()

    def test_interleaved_groups_share_one_clock(self):
        plane = make_plane()
        plane.create_group("a", [f"h{i}" for i in range(8)])
        plane.create_group("b", [f"h{i}" for i in range(4, 12)])
        r1 = plane.send("a", "h0", 32.0)
        r2 = plane.send("b", "h4", 32.0)
        plane.drain()
        plane.verify_quiesced()
        # shared hosts h4..h7 serialized both groups on one uplink:
        # the budget must show deferred slots
        assert plane.budget.deferrals() > 0
        report = plane.report()
        assert report.total_deliveries == (len(r1.members) - 1) + (
            len(r2.members) - 1
        )

    def test_sequence_numbers_are_per_group(self):
        plane = make_plane()
        plane.create_group("a", ["h0", "h1", "h2"])
        plane.create_group("b", ["h3", "h4", "h5"])
        assert plane.send("a", "h0").seq == 1
        assert plane.send("b", "h3").seq == 1
        assert plane.send("a", "h1").seq == 2
        plane.drain()
        plane.verify_quiesced()

    def test_send_to_unknown_group_rejected(self):
        plane = make_plane()
        with pytest.raises(KeyError, match="no group named"):
            plane.send("ghost", "h0")

    def test_send_after_drop_rejected(self):
        plane = make_plane()
        plane.create_group("g", ["h0", "h1"])
        plane.drop_group("g")
        with pytest.raises(KeyError):
            plane.send("g", "h0")

    @pytest.mark.parametrize(
        "size", [float("nan"), float("inf"), 0.0, -4.0]
    )
    def test_bad_message_size_rejected_before_anything_moves(self, size):
        # a NaN size used to pass the guard, charge the forwarding
        # ledger, take a sequence number, leave a receipt that can
        # never complete and poison the source's uplink, and only then
        # die scheduling the first hop; inf was accepted outright
        plane = make_plane()
        plane.create_group("g", [f"h{i}" for i in range(6)])
        plane.send("g", "h0", 8.0)
        plane.drain()
        receipts = plane.receipts()
        load = plane.service.host_load_kbits()
        free_at = {f"h{i}": plane.budget.free_at(f"h{i}") for i in range(6)}
        reservations = plane.budget.reservations()
        with pytest.raises(ValueError, match="message size"):
            plane.send("g", "h0", size)
        assert plane.receipts() == receipts
        assert plane.service.host_load_kbits() == load
        assert free_at == {
            f"h{i}": plane.budget.free_at(f"h{i}") for i in range(6)
        }
        assert plane.budget.reservations() == reservations
        assert plane.send("g", "h1", 8.0).seq == 2  # no number was burnt
        plane.drain()
        plane.verify_quiesced()

    @pytest.mark.parametrize("latency", [-0.01, float("nan"), float("inf")])
    def test_bad_hop_latency_rejected_at_construction(self, latency):
        # a negative latency delivered a child before its parent's copy
        # had finished serializing, and still audited clean; NaN and inf
        # only failed at the first send, with a scheduler's message
        with pytest.raises(ValueError, match=f"hop latency .*got {latency}"):
            ServicePlane(hop_latency=latency)

    def test_charges_the_service_ledger(self):
        # the plane's timed sends charge the same per-host ledger the
        # synchronous service does
        plane = make_plane()
        plane.create_group("g", [f"h{i}" for i in range(10)])
        plane.send("g", "h0", message_kbits=4.0)
        plane.drain()
        load = plane.service.host_load_kbits()
        assert sum(load.values()) == pytest.approx(9 * 4.0)


class TestMidStreamMembership:
    def test_join_mid_stream_is_not_owed_inflight_sends(self):
        plane = make_plane()
        plane.create_group("g", [f"h{i}" for i in range(8)])
        inflight = plane.send("g", "h0", 64.0)
        plane.join("g", "h15")  # joins while the send is in flight
        plane.drain()
        plane.verify_quiesced()  # joiner owes nothing for seq 1
        assert "h15" not in inflight.members
        assert "h15" not in inflight.delivered

    def test_joiner_receives_subsequent_sends(self):
        plane = make_plane()
        plane.create_group("g", [f"h{i}" for i in range(8)])
        plane.send("g", "h0", 16.0)
        plane.join("g", "h15")
        later = plane.send("g", "h1", 16.0)
        assert "h15" in later.members
        plane.drain()
        plane.verify_quiesced()
        assert "h15" in later.delivered

    def test_leaver_still_receives_inflight_sends(self):
        # frozen send-time membership: the in-flight send finishes
        # against its origin member set even though h3 left mid-stream
        plane = make_plane()
        plane.create_group("g", [f"h{i}" for i in range(8)])
        inflight = plane.send("g", "h0", 64.0)
        plane.leave("g", "h3")
        assert "h3" in inflight.members
        later = plane.send("g", "h0", 16.0)
        assert "h3" not in later.members
        plane.drain()
        plane.verify_quiesced()
        assert "h3" in inflight.delivered
        assert "h3" not in later.delivered

    def test_send_later_freezes_at_fire_time(self):
        plane = make_plane()
        plane.create_group("g", [f"h{i}" for i in range(6)])
        placed = plane.send_later(1.0, "g", "h0", 8.0)
        plane.join("g", "h10")  # before the send fires
        plane.drain()
        plane.verify_quiesced()
        assert "h10" in placed.value.members

    def test_drop_mid_stream_finishes_inflight(self):
        plane = make_plane()
        plane.create_group("g", [f"h{i}" for i in range(8)])
        inflight = plane.send("g", "h0", 64.0)
        plane.drop_group("g")
        plane.drain()
        plane.verify_quiesced()
        assert inflight.complete
        inflight.verify_complete()

    def test_recreated_name_does_not_steal_inflight_deliveries(self):
        # a name dropped and recreated while its first incarnation's
        # sends are in flight: those sends must keep landing in the
        # ledger and stats they were originated under (they used to hit
        # the new ledger, be classed dup and leave the receipts short)
        plane = make_plane()
        members = [f"h{i}" for i in range(8)]
        plane.create_group("g", members)
        first = [plane.send("g", "h0", 64.0) for _ in range(3)]
        plane.run(0.6)
        assert not all(receipt.complete for receipt in first)
        plane.drop_group("g")
        plane.create_group("g", members)
        second = [plane.send("g", "h1", 64.0) for _ in range(3)]
        assert [receipt.seq for receipt in second] == [1, 2, 3]
        plane.drain()
        plane.verify_quiesced()
        assert all(receipt.complete for receipt in first + second)
        rows = [row for row in plane.report().rows if row["group"] == "g"]
        assert [row["closed"] for row in rows] == [True, False]
        assert [row["sends"] for row in rows] == [3, 3]
        assert [row["deliveries"] for row in rows] == [21, 21]
        assert [row["dups"] for row in rows] == [0, 0]
        assert [row["members"] for row in rows] == [0, 8]

    def test_rejoin_mid_flight_lands_in_the_old_stint(self):
        # h3 leaves and rejoins while seq 1 is in flight: that delivery
        # belongs to the stint the send was originated under, and the
        # new stint owes nothing before the next sequence
        with TRACER.capture():
            mirror = Mirror(plane := make_plane())
            mirror.create("g", [f"h{i}" for i in range(8)])
            inflight = mirror.send("g", "h0", 64.0)
            mirror.leave("g", "h3")
            away = mirror.send("g", "h0", 16.0)
            mirror.join("g", "h3")
            back = mirror.send("g", "h1", 16.0)
            assert [r.seq for r in (inflight, away, back)] == [1, 2, 3]
            assert ["h3" in r.members for r in (inflight, away, back)] == [
                True, False, True,
            ]
            # nothing has landed: h3 owes seq 1 from its first stint and
            # seq 3 from its second, never seq 2
            assert plane.audit().gaps["g/h3"] == (1, 3)
            assert_same_audit(plane, mirror)
            plane.drain()
            plane.verify_quiesced()
            assert_same_audit(plane, mirror)
        old, new = mirror.ledgers["g"][-1]._cursors["h3"]
        assert (old.first, old.last, old.contiguous) == (1, 1, 1)
        assert (new.first, new.last, new.contiguous) == (3, None, 3)
        assert not old.ahead and not new.ahead
        assert "h3" in inflight.delivered and "h3" in back.delivered
        assert "h3" not in away.delivered
        assert plane.audit().clean

    def test_recreated_name_keeps_incarnations_cursors_apart(self):
        members = [f"h{i}" for i in range(8)]
        with TRACER.capture():
            mirror = Mirror(plane := make_plane())
            mirror.create("g", members)
            first = [mirror.send("g", "h0", 64.0) for _ in range(2)]
            plane.run(0.3)
            assert not all(receipt.complete for receipt in first)
            mirror.drop("g")
            mirror.create("g", members)
            second = mirror.send("g", "h1", 64.0)
            assert second.seq == 1  # the new incarnation counts from 1
            # the closed incarnation still owes its in-flight rows, the
            # new one its first send: each under its own label
            gaps = plane.audit().gaps
            assert any(key.startswith("g/") for key in gaps)
            assert [key for key in gaps if key.startswith("g#2/")] == [
                f"g#2/{name}" for name in sorted(members) if name != "h1"
            ]
            assert_same_audit(plane, mirror)
            plane.drain()
            plane.verify_quiesced()
            assert_same_audit(plane, mirror)
        closed, live = mirror.ledgers["g"]
        for name in members:
            (was,) = closed._cursors[name]
            (now,) = live._cursors[name]
            assert (was.first, was.last, was.contiguous) == (1, 2, 2)
            assert (now.first, now.last, now.contiguous) == (1, None, 1)
        closed_group, live_group = plane._groups["g"]
        assert [r.seq for r in closed_group.receipts] == [1, 2]
        assert [r.seq for r in live_group.receipts] == [1]
        assert plane.audit().clean

    def test_rebuild_preserves_identifiers(self):
        plane = make_plane()
        plane.create_group("g", [f"h{i}" for i in range(8)])
        before = {
            name: plane.service.member_ident("g", name)
            for name in plane.service.members_of("g")
        }
        plane.join("g", "h15")
        plane.leave("g", "h2")
        for name in plane.service.members_of("g"):
            if name in before:
                assert plane.service.member_ident("g", name) == before[name]


class TestBranchesTrafficNeverTakes:
    """Duplicate and out-of-obligation deliveries cannot come out of a
    frozen tree; they are forced here so the verdicts, the counters
    and the ``mc.dup`` event stay what they were."""

    def test_second_pending_entry_for_one_delivery_is_a_dup(self):
        plane = make_plane()
        plane.create_group("g", [f"h{i}" for i in range(8)])
        with TRACER.capture() as mark:
            receipt = plane.send("g", "h0", 16.0)
            when, _, state, k, *_ = min(plane._pending)
            plant(plane, when, state, k)
            plane.drain()
            events = [e for e in TRACER.events_since(mark) if e.layer == "mc"]
        source = plane.service.member_ident("g", "h0")
        delivered = [
            e for e in events
            if e.kind == "deliver" and e.data["parent"] is not None
        ]
        (dup,) = [e for e in events if e.kind == "dup"]
        assert dup.time == delivered[0].time == when
        assert dup.data == {
            "mid": receipt.mid,
            "ident": delivered[0].data["ident"],
            "sender": source,
            "group": "g",
            "seq": 1,
        }
        assert delivered[0].data["parent"] == source
        # the copy is counted and dropped: nothing is delivered twice
        # and the subtree below it is not forwarded a second time
        assert len(delivered) == 7
        assert receipt.complete and len(receipt.delivered) == 8
        (row,) = plane.report().rows
        assert (row["deliveries"], row["dups"]) == (7, 1)
        audit = plane.audit()
        assert (audit.gaps, audit.dups, audit.unexpected) == ({}, 1, 0)
        with pytest.raises(AssertionError, match="1 dups"):
            plane.verify_quiesced()

    def test_no_delivery_falls_outside_its_obligations(self):
        # the only ways an obligation closes are a leave and a drop, and
        # both close it after the last sequence issued: the send in
        # flight still owes the leaver its copy.  The reference cursors,
        # fed every committed delivery, call none of them unexpected,
        # and the plane's audit reports 0 by construction.
        with TRACER.capture():
            mirror = Mirror(plane := make_plane())
            mirror.create("g", [f"h{i}" for i in range(8)])
            receipt = mirror.send("g", "h0", 16.0)
            mirror.leave("g", "h3")  # before anything lands
            mirror.drop("g")
            plane.drain()
            assert_same_audit(plane, mirror)
        assert sorted(set(mirror.verdicts)) == ["ok"]
        assert receipt.complete and len(receipt.delivered) == 8
        assert "h3" in receipt.delivered
        (row,) = plane.report().rows
        assert (row["deliveries"], row["dups"]) == (7, 0)
        audit = plane.audit()
        assert (audit.gaps, audit.dups, audit.unexpected) == ({}, 0, 0)
        plane.verify_quiesced()


class TestPumpDupCheck:
    """The pump calls a delivery a duplicate iff its receipt row
    already holds a time: against the reference cursor of the one
    member all those sends go to, the verdicts and what was delivered
    must match what ``_Cursor.record`` says."""

    @settings(max_examples=300, deadline=None)
    @given(
        deliveries=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=8),  # sequence
                st.booleans(),  # run the pump after this delivery
            ),
            max_size=40,
        ),
    )
    # in order, a dup, then a gap filled from ahead, then a dup of it
    @example([(1, False), (2, False), (2, False), (4, False),
              (3, True), (3, False), (5, True)])
    def test_pump_verdicts_match_the_reference_cursor(self, deliveries):
        reference = _Cursor(first=1)
        plane = ServicePlane()
        hosts = ("s", "h")  # row 0 is the source, row 1 the member
        # the one-edge tree s -> h: h is the run order[1:2]
        template = _SendTemplate(
            source_row=0, source_ident=0, edges=1, order=array("i", [0, 1]),
            child_count=array("i", [1, 0]), firsts=array("i", [1, 0]),
            forwarders=["s"], fanouts=[1],
        )
        receipts = {
            seq: SendReceipt("g", seq, seq, "s", 1.0, 0.0, hosts, hosts, 0)
            for seq in range(1, 9)
        }
        batch: list[tuple[str, GroupStats]] = []

        def pump() -> None:
            plane._arm_wavefront()
            plane.simulator.run_until_idle()
            assert [stats.dups for _, stats in batch] == [
                int(want == "dup") for want, _ in batch
            ]
            batch.clear()

        for seq, run_now in deliveries:
            # a state of its own per delivery, so its dup count is the
            # delivery's verdict
            stats = GroupStats(created_at=0.0)
            state = _SendState(
                receipt=receipts[seq], template=template,
                order=template.order, child_count=template.child_count,
                firsts=template.firsts, hosts=hosts, bandwidths=[1.0, 1.0],
                idents=[0, 1], stats=stats,
                remaining=2,  # never completes: no foreign event interleaves
            )
            plant(plane, 0.0, state, 1)
            batch.append((reference.record(seq), stats))
            if run_now:
                pump()
        pump()
        delivered = {seq for seq, r in receipts.items() if r.times[1] >= 0.0}
        assert delivered == set(range(1, reference.contiguous + 1)) | reference.ahead
        assert all(
            list(r.order) == [0, 1]
            for seq, r in receipts.items() if seq in delivered
        )


class TestAuditAgainstTheReference:
    """The receipt-built audit is the reference cursors' audit: random
    plane programs — create, join, leave, drop, recreate, send, bounded
    runs, drains and planted duplicate pending entries — are mirrored
    onto :class:`tests.sequence_ledger.SequenceLedger`, and after every
    step the two audits must agree, gap lists in the same order, and
    the reference's duplicates must be the report's."""

    OPS = (
        "create", "join", "leave", "leave", "drop",
        "send", "send", "send", "run", "drain", "plant",
    )
    HOSTS = [f"h{i}" for i in range(8)]

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(OPS),
                st.sampled_from(["a", "b"]),
                st.integers(min_value=0, max_value=2**16),
            ),
            max_size=40,
        )
    )
    # a leaver still owes the send in flight when the next one leaves
    # it out; then a rejoin, a drop and a recreated name
    @example([("send", "a", 0), ("plant", "a", 0),
              ("leave", "a", 1), ("send", "a", 1), ("join", "a", 1),
              ("run", "a", 3), ("drop", "a", 0), ("create", "a", 9),
              ("send", "a", 2), ("run", "a", 4), ("drain", "a", 0)])
    def test_audit_equals_the_reference_on_random_programs(self, program):
        with TRACER.capture():
            # slow uplinks keep sends in flight across several steps
            plane = make_plane(hosts=8, kbps=50.0)
            mirror = Mirror(plane)
            live = {"a": self.HOSTS[:5], "b": self.HOSTS[3:]}
            for name, members in live.items():
                mirror.create(name, list(members))
            for op, name, code in program:
                members = live.get(name)
                if op == "create" and members is None:
                    size = 2 + code % 5
                    start = code // 5 % len(self.HOSTS)
                    chosen = [
                        self.HOSTS[(start + k) % len(self.HOSTS)]
                        for k in range(size)
                    ]
                    mirror.create(name, chosen)
                    live[name] = list(chosen)
                elif op == "join" and members is not None:
                    outside = [h for h in self.HOSTS if h not in members]
                    if outside:
                        host = outside[code % len(outside)]
                        mirror.join(name, host)
                        members.append(host)
                elif op == "leave" and members is not None and len(members) > 1:
                    host = members[code % len(members)]
                    mirror.leave(name, host)
                    members.remove(host)
                elif op == "drop" and members is not None:
                    mirror.drop(name)
                    del live[name]
                elif op == "send" and members is not None:
                    mirror.send(name, members[code % len(members)], 8.0)
                elif op == "run":
                    plane.run(plane.now + (code % 16) * 0.02)
                elif op == "drain":
                    plane.drain()
                elif op == "plant" and plane._pending:
                    # a second pending entry for a run's next delivery,
                    # due at the same time right behind the first
                    when, _, state, k, *_ = plane._pending[
                        code % len(plane._pending)
                    ]
                    plant(plane, when, state, k)
                assert_same_audit(plane, mirror)
            plane.drain()
            assert_same_audit(plane, mirror)
        report_dups = sum(row["dups"] for row in plane.report().rows)
        assert mirror.verdicts.count("dup") == report_dups == plane.audit().dups
        assert "unexpected" not in mirror.verdicts


class TestReceiptColumns:
    def test_receipts_cost_two_machine_words_per_delivery(self):
        # a receipt holds a float and a 4-byte row per delivery in two
        # arrays: 15.0 bytes per delivery measured with the receipts
        # and send states around them, 15.3 with a settled Future kept
        # per receipt, 19.9 with 8-byte rows, about twice that with a
        # delivered dict of boxed floats
        members = [f"h{i}" for i in range(128)]
        plane = make_plane(hosts=128, kbps=400.0)
        plane.create_group("g", members)
        tracemalloc.start()
        try:
            for step in range(200):
                plane.send("g", members[step % 4], 8.0)
            plane.drain()
            # a full collection empties the interpreter's free lists,
            # which would otherwise keep ~2,000 spent heap entries
            # charged to the line that built them
            gc.collect()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        held = sum(
            stat.size
            for stat in snapshot.filter_traces(
                [tracemalloc.Filter(True, plane_module.__file__)]
            ).statistics("filename")
        )
        deliveries = plane.report().total_deliveries
        assert deliveries == 200 * 127
        assert held <= 16.5 * deliveries, held / deliveries
        plane.verify_quiesced()
        for receipt in plane.receipts():
            assert type(receipt.times) is array and type(receipt.order) is array
            assert len(receipt.times) == len(receipt.order) == len(receipt.members)

    def test_completion_future_is_made_only_when_read(self):
        plane = make_plane(hosts=10, kbps=100.0)
        plane.create_group("g", [f"h{i}" for i in range(10)])
        watched = plane.send("g", "h4", 8.0)
        unread = plane.send("g", "h5", 8.0)
        woken = []
        watched.completion.add_callback(lambda future: woken.append(future.value))
        assert not watched.complete and not watched.completion.done
        plane.drain()
        assert woken == [watched] and watched.complete
        # nobody asked: the receipt kept a flag, and a late reader gets
        # a future already resolved with the receipt
        assert unread.complete and unread._completion is None
        assert unread.completion.done and unread.completion.value is unread
        assert unread.completion is unread.completion
        alone = make_plane(hosts=1, kbps=100.0)
        alone.create_group("solo", ["h0"])
        assert alone.send("solo", "h0", 8.0).complete  # no copy to deliver

    def test_delivered_is_a_fresh_view_in_commit_order(self):
        plane = make_plane(hosts=10, kbps=100.0)
        plane.create_group("g", [f"h{i}" for i in range(10)])
        receipt = plane.send("g", "h4", 8.0)
        assert receipt.delivered == {"h4": receipt.origin_time}
        plane.drain()
        view = receipt.delivered
        hosts = receipt.hosts
        assert list(view) == [hosts[row] for row in receipt.order]
        assert list(view.values()) == sorted(view.values())
        view["h4"] = -5.0
        assert receipt.delivered["h4"] == receipt.origin_time
        assert receipt.delivered == view | {"h4": receipt.origin_time}

    def test_verify_complete_names_missing_members_in_join_order(self):
        plane = make_plane(hosts=10, kbps=100.0)
        members = ["h7", "h2", "h9", "h0"]
        plane.create_group("g", members)
        receipt = plane.send("g", "h2", 8.0)
        missing = r"3 frozen members .*\['h7', 'h9', 'h0'\]"
        with pytest.raises(AssertionError, match=missing):
            receipt.verify_complete()
        plane.drain()
        receipt.verify_complete()


class TestTemplateColumns:
    def test_a_template_costs_under_forty_bytes_per_member(self):
        # a template keeps the tree's order and child counts (32-bit
        # rows), the start of each forwarder's child run and its
        # charges: 36.1 bytes per member measured; 44.5 with 64-bit
        # tree columns, 95 keeping the whole FlatTree and a tuple of
        # children per forwarder
        rng = Random(0)
        plane = make_plane(hosts=0)
        hosts = [f"h{i}" for i in range(2000)]
        for name in hosts:
            plane.register_host(name, rng.uniform(200.0, 1200.0))
        groups = {f"g{i}": rng.sample(hosts, 32) for i in range(60)}
        for name, members in groups.items():
            plane.create_group(name, members)
        gc.collect()
        tracemalloc.start()
        try:
            for name, members in groups.items():
                for member in members:
                    plane._template(name, member, 1.0)
            gc.collect()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        held = sum(
            stat.size
            for stat in snapshot.filter_traces(
                [
                    tracemalloc.Filter(True, plane_module.__file__),
                    tracemalloc.Filter(True, kernel_module.__file__),
                ]
            ).statistics("filename")
        )
        members = 60 * 32 * 32  # a 32-member template per member
        assert held <= 40 * members, held / members
        for name, members in groups.items():
            for member in members:
                plane.send(name, member)
        plane.drain()
        plane.verify_quiesced()


class TestBackpressure:
    def test_saturated_host_defers_forwarding_slots(self):
        # one slow host is the source of two groups' sends: the second
        # group's forwarding must queue behind the first on its uplink
        plane = ServicePlane(space_bits=14)
        plane.register_host("slow", 50.0)
        for index in range(10):
            plane.register_host(f"h{index}", 800.0)
        plane.create_group("a", ["slow"] + [f"h{i}" for i in range(5)])
        plane.create_group("b", ["slow"] + [f"h{i}" for i in range(5, 10)])
        plane.send("a", "slow", 100.0)
        plane.send("b", "slow", 100.0)
        plane.drain()
        plane.verify_quiesced()
        assert plane.budget.deferrals("slow") > 0
        report = plane.report()
        deferrals = {row["group"]: row["deferrals"] for row in report.rows}
        # group b queued behind a's serialization on the shared uplink
        assert deferrals["b"] > 0

    def test_unshared_groups_do_not_defer(self):
        plane = make_plane(hosts=16, kbps=1000.0)
        plane.create_group("a", [f"h{i}" for i in range(8)])
        plane.create_group("b", [f"h{i}" for i in range(8, 16)])
        plane.send("a", "h0", 8.0)
        plane.send("b", "h8", 8.0)
        plane.drain()
        plane.verify_quiesced()
        # disjoint hosts, one message each: every uplink starts free...
        report = plane.report()
        for row in report.rows:
            # ...so any deferral comes only from a node's own fanout
            # (several children share its one uplink), never from the
            # other group
            assert row["deferrals"] == plane.budget.deferrals() - sum(
                other["deferrals"]
                for other in report.rows
                if other["group"] != row["group"]
            )

    def test_goodput_reported_per_group(self):
        plane = make_plane()
        plane.create_group("a", [f"h{i}" for i in range(6)])
        plane.create_group("b", [f"h{i}" for i in range(6, 12)])
        plane.send("a", "h0", 40.0)
        plane.send("b", "h6", 10.0)
        plane.drain()
        report = plane.report()
        rows = {row["group"]: row for row in report.rows}
        assert rows["a"]["deliveries"] == 5
        assert rows["b"]["deliveries"] == 5
        assert rows["a"]["goodput_kbps"] > 0
        assert report.render()  # the table renders

    def test_queue_depth_tracks_outstanding_hops(self):
        plane = make_plane(hosts=10, kbps=100.0)
        plane.create_group("g", [f"h{i}" for i in range(10)])
        plane.send("g", "h0", 50.0)
        plane.drain()
        report = plane.report()
        (row,) = report.rows
        assert row["max_queue_depth"] >= 1


class TestManyGroupsUnderChurn:
    def test_200_groups_with_mid_stream_churn(self):
        # the acceptance bar: 200 concurrent groups, poisson join/leave
        # firing mid-dissemination, every oracle green after quiesce
        from repro.workloads import (
            ServiceWorkloadSpec,
            generate_service_workload,
        )

        spec = ServiceWorkloadSpec(
            groups=200,
            hosts=500,
            group_size=6,
            horizon_s=30.0,
            send_interval_s=6.0,
            churn_rate=0.05,
            mean_hold_s=None,  # all 200 stay concurrent
            message_kbits=8.0,
        )
        workload = generate_service_workload(spec, seed=7)
        counts = workload.counts()
        assert counts["create"] == 200
        assert counts.get("join", 0) + counts.get("leave", 0) > 0
        plane = ServicePlane(space_bits=15)
        for name, kbps in workload.hosts:
            plane.register_host(name, kbps)
        plane.replay(workload.events)
        plane.drain()
        plane.verify_quiesced()
        report = plane.report()
        assert len(report.rows) == 200
        assert report.total_deliveries > 0
        audit = plane.audit()
        assert audit.clean

    def test_replay_is_deterministic(self):
        from repro.workloads import (
            ServiceWorkloadSpec,
            generate_service_workload,
        )

        spec = ServiceWorkloadSpec(
            groups=12, hosts=60, group_size=5, horizon_s=20.0,
            send_interval_s=3.0, churn_rate=0.1, mean_hold_s=15.0,
        )
        workload = generate_service_workload(spec, seed=3)

        def run() -> tuple:
            plane = ServicePlane(space_bits=14)
            for name, kbps in workload.hosts:
                plane.register_host(name, kbps)
            plane.replay(workload.events)
            plane.drain()
            plane.verify_quiesced()
            return plane.report()

        assert run() == run()


class TestExtNExperiment:
    def test_bench_scale_runs_and_renders(self):
        from repro.experiments import ext_service
        from repro.experiments.common import SCALES
        from repro.experiments.parallel import run_experiments

        result = run_experiments(["extN"], SCALES["bench"])[0].result
        assert result.figure == "extN"
        rendered = result.render()
        assert "deliveries" in rendered.lower() or "extN" in rendered
        # one series per churn rate, one point per group count
        assert len(result.series) == len(ext_service.CHURN_RATES["bench"])
        for series in result.series:
            assert len(series.points) == len(ext_service.GROUP_COUNTS["bench"])
            assert all(y > 0 for _, y in series.points)

    def test_parallel_matches_serial(self):
        from repro.experiments.common import SCALES
        from repro.experiments.parallel import run_experiments

        bench = SCALES["bench"]
        serial = run_experiments(["extN"], bench, seeds=[0], jobs=1)
        fanned = run_experiments(["extN"], bench, seeds=[0], jobs=2)
        assert serial[0].result.render() == fanned[0].result.render()

    def test_every_cell_is_audited(self):
        # run_point itself runs the quiesce oracles; a bench cell with
        # churn must come back with the full metric set
        from repro.experiments import ext_service
        from repro.experiments.common import SCALES

        bench = SCALES["bench"]
        point = ext_service.sweep(bench)[-1]
        metrics = ext_service.run_point(bench, seed=0, point=point)
        for key in (
            "groups", "churn", "deliveries", "deliveries_per_sec",
            "deferrals", "max_queue_depth", "peak_concurrent",
        ):
            assert key in metrics, key
        assert metrics["deliveries"] > 0
        assert metrics["peak_concurrent"] >= 1
