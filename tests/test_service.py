"""Tests for the multi-group multicast service."""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.idspace.hashing import assign_identifiers, hash_to_identifier
from repro.idspace.ring import IdentifierSpace
from repro.multicast.kernel import FlatTree
from repro.multicast.service import MulticastService
from repro.multicast.session import SystemKind


def blocking_multicast(
    service: MulticastService,
    group_name: str,
    source_host: str,
    message_kbits: float = 1.0,
) -> FlatTree:
    """Deliver one message in one group at once, charging host uplinks.

    The synchronous reference for the ledger: the tree a send from
    ``source_host`` walks, charged to the forwarding hosts through the
    same :meth:`MulticastService.charge` the service plane replays.
    """
    group = service.group(group_name)
    source_ident = service.member_ident(group_name, source_host)
    result = group.multicast_from(group.snapshot.node_at(source_ident))
    host_of = {
        service.member_ident(group_name, name): name
        for name in service.members_of(group_name)
    }
    charges = [
        (host_of[ident], count)
        for ident, count in result.children_counts().items()
        if count
    ]
    service.charge(
        [host for host, _ in charges], [count for _, count in charges], message_kbits
    )
    return result


def populated_service(host_count: int = 60, seed: int = 1) -> MulticastService:
    service = MulticastService(space_bits=16)
    rng = Random(seed)
    for index in range(host_count):
        service.register_host(f"host-{index}", rng.uniform(400, 1000))
    return service


class TestHostManagement:
    def test_register_and_list(self):
        service = MulticastService()
        service.register_host("a", 500)
        assert service.hosts == {"a": 500}

    def test_duplicate_host_rejected(self):
        service = MulticastService()
        service.register_host("a", 500)
        with pytest.raises(ValueError, match="already registered"):
            service.register_host("a", 600)

    def test_bad_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            MulticastService().register_host("a", 0)

    @pytest.mark.parametrize("bandwidth", [-5.0, float("nan"), float("inf")])
    def test_bandwidth_outside_the_positive_reals_rejected(self, bandwidth):
        # NaN used to slip past ``bandwidth <= 0`` into every serialize time
        service = MulticastService()
        with pytest.raises(ValueError, match="bandwidth"):
            service.register_host("a", bandwidth)
        assert service.hosts == {}
        assert service.host_load_kbits() == {}


class TestGroups:
    def test_create_and_multicast(self):
        service = populated_service()
        names = [f"host-{i}" for i in range(40)]
        group = service.create_group("video", names, kind=SystemKind.CAM_CHORD)
        assert len(group) == 40
        result = blocking_multicast(service, "video", "host-3")
        assert result.receiver_count == 40

    def test_host_in_multiple_groups_gets_distinct_identifiers(self):
        service = populated_service()
        service.create_group("g1", [f"host-{i}" for i in range(30)])
        service.create_group("g2", [f"host-{i}" for i in range(30)])
        ident_g1 = service._members["g1"]["host-0"]
        ident_g2 = service._members["g2"]["host-0"]
        assert ident_g1 != ident_g2  # independent hash placement
        assert service.groups_of("host-0") == ["g1", "g2"]

    def test_unknown_member_rejected(self):
        service = populated_service()
        with pytest.raises(KeyError, match="unregistered"):
            service.create_group("g", ["host-0", "ghost"])

    def test_duplicate_group_rejected(self):
        service = populated_service()
        service.create_group("g", ["host-0", "host-1"])
        with pytest.raises(ValueError, match="already exists"):
            service.create_group("g", ["host-2"])

    def test_empty_group_rejected(self):
        service = populated_service()
        with pytest.raises(ValueError, match="at least one"):
            service.create_group("g", [])

    def test_drop_group(self):
        service = populated_service()
        service.create_group("g", ["host-0", "host-1"])
        service.drop_group("g")
        with pytest.raises(KeyError):
            service.group("g")

    def test_drop_unknown_group_raises(self):
        # drop_group used to silently no-op on unknown names while
        # group() raised — both now fail the same way
        service = populated_service()
        with pytest.raises(KeyError, match="no group named 'ghost'"):
            service.drop_group("ghost")

    def test_dropped_group_load_stays_in_ledger(self):
        # host_load_kbits is a historical account of what each uplink
        # carried; tearing a group down does not refund its traffic
        service = populated_service()
        service.create_group("g", [f"host-{i}" for i in range(10)])
        blocking_multicast(service, "g", "host-0", message_kbits=3.0)
        before = sum(service.host_load_kbits().values())
        assert before == pytest.approx(9 * 3.0)
        service.drop_group("g")
        assert sum(service.host_load_kbits().values()) == pytest.approx(before)

    def test_join_group_rebuilds_and_keeps_identifiers(self):
        service = populated_service()
        service.create_group("g", [f"host-{i}" for i in range(10)])
        before = {
            name: service.member_ident("g", name)
            for name in service.members_of("g")
        }
        service.join_group("g", "host-40")
        assert "host-40" in service.members_of("g")
        # salted per group/host placement: old members keep their rings
        for name, ident in before.items():
            assert service.member_ident("g", name) == ident
        assert blocking_multicast(service, "g", "host-40").receiver_count == 11

    def test_join_rejects_unregistered_and_duplicate(self):
        service = populated_service()
        service.create_group("g", ["host-0", "host-1"])
        with pytest.raises(KeyError, match="unregistered"):
            service.join_group("g", "ghost")
        with pytest.raises(ValueError, match="already a member"):
            service.join_group("g", "host-0")

    def test_leave_group_rebuilds_remaining(self):
        service = populated_service()
        service.create_group("g", [f"host-{i}" for i in range(6)])
        service.leave_group("g", "host-2")
        assert "host-2" not in service.members_of("g")
        assert blocking_multicast(service, "g", "host-0").receiver_count == 5
        with pytest.raises(KeyError, match="not a member"):
            service.leave_group("g", "host-2")

    def test_leave_refuses_last_member(self):
        service = populated_service()
        service.create_group("g", ["host-0"])
        with pytest.raises(ValueError, match="last member"):
            service.leave_group("g", "host-0")

    def test_non_member_source_rejected(self):
        service = populated_service()
        service.create_group("g", ["host-0", "host-1"])
        with pytest.raises(KeyError, match="not a member"):
            blocking_multicast(service, "g", "host-5")

    def test_capacity_follows_host_bandwidth_and_p(self):
        service = MulticastService(space_bits=14)
        service.register_host("slow", 420.0)
        service.register_host("fast", 980.0)
        group = service.create_group(
            "g", ["slow", "fast"], per_link_kbps=100.0
        )
        caps = {n.name: n.capacity for n in group.snapshot}
        assert caps == {"slow": 4, "fast": 9}


class TestCrossGroupAccounting:
    def test_host_load_accumulates_across_groups(self):
        service = populated_service()
        service.create_group("a", [f"host-{i}" for i in range(25)])
        service.create_group("b", [f"host-{i}" for i in range(10, 35)])
        for _ in range(5):
            blocking_multicast(service, "a", "host-3", message_kbits=2.0)
            blocking_multicast(service, "b", "host-20", message_kbits=2.0)
        load = service.host_load_kbits()
        # every forwarded kilobit is charged to exactly one host
        # (n-1 deliveries per multicast, 2 kbits each, 5 rounds, 2 groups)
        assert sum(load.values()) == pytest.approx((24 + 24) * 2.0 * 5)
        busiest = service.busiest_hosts(3)
        assert len(busiest) == 3
        assert busiest[0][1] >= busiest[1][1] >= busiest[2][1]

    def test_unused_hosts_carry_nothing(self):
        service = populated_service()
        service.create_group("a", [f"host-{i}" for i in range(10)])
        blocking_multicast(service, "a", "host-0")
        load = service.host_load_kbits()
        assert load["host-59"] == 0.0

    def test_one_host_in_many_groups_sums_exactly(self):
        # one host forwarding in N groups: its ledger entry must equal
        # the sum over groups of children_counts x message_kbits, to the
        # kilobit — attribution is exact, not approximate
        service = populated_service()
        group_count = 4
        kbits = {"g0": 1.0, "g1": 2.5, "g2": 4.0, "g3": 0.5}
        for index in range(group_count):
            # host-0 sits in every group; the rest of each group differs
            members = ["host-0"] + [
                f"host-{i}" for i in range(1 + index * 12, 13 + index * 12)
            ]
            service.create_group(f"g{index}", members)
        expected: dict[str, float] = {name: 0.0 for name in service.hosts}
        for index in range(group_count):
            group_name = f"g{index}"
            result = blocking_multicast(
                service, group_name, "host-0", message_kbits=kbits[group_name]
            )
            members = service._members[group_name]
            ident_to_name = {ident: name for name, ident in members.items()}
            for ident, count in result.children_counts().items():
                expected[ident_to_name[ident]] += count * kbits[group_name]
        load = service.host_load_kbits()
        for name, want in expected.items():
            assert load[name] == pytest.approx(want), name
        # and the host in every group really did forward in several
        assert load["host-0"] > 0.0

    def test_teardown_never_corrupts_other_groups(self):
        # property test: create groups, multicast, drop some groups in
        # varying orders — surviving groups' traffic accounting and the
        # global ledger stay exact throughout
        @settings(max_examples=25, deadline=None)
        @given(
            drops=st.lists(
                st.integers(min_value=0, max_value=3),
                min_size=0, max_size=4, unique=True,
            ),
            rounds=st.integers(min_value=1, max_value=3),
        )
        def run(drops: list[int], rounds: int) -> None:
            service = populated_service(host_count=40)
            sizes = {}
            for index in range(4):
                members = [f"host-{i}" for i in range(index * 9, index * 9 + 9)]
                service.create_group(f"g{index}", members)
                sizes[f"g{index}"] = len(members)
            total = 0.0
            for _ in range(rounds):
                for index in range(4):
                    blocking_multicast(
                        service, f"g{index}", f"host-{index * 9}", 2.0
                    )
                    total += (sizes[f"g{index}"] - 1) * 2.0
            for index in drops:
                service.drop_group(f"g{index}")
            # ledger unchanged by teardown
            assert sum(service.host_load_kbits().values()) == pytest.approx(total)
            # surviving groups still deliver and charge correctly
            for index in range(4):
                if index in drops:
                    continue
                result = blocking_multicast(
                    service, f"g{index}", f"host-{index * 9}", 1.0
                )
                assert result.receiver_count == sizes[f"g{index}"]
                total += (sizes[f"g{index}"] - 1) * 1.0
            assert sum(service.host_load_kbits().values()) == pytest.approx(total)

        run()


class TestFoldedLedger:
    @settings(max_examples=60, deadline=None)
    @given(
        sends=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),  # group
                st.sampled_from([0.1, 0.7, 1.1, 8.0]),  # message kbits
                st.booleans(),  # read the ledger after this send
            ),
            min_size=1,
            max_size=24,
        ),
        drop_after=st.integers(min_value=0, max_value=24),
    )
    def test_folded_ledger_equals_eager_additions(self, sends, drop_after):
        """A charge is added in at the next read, in send order with
        the same additions: every read, before and after a drop, sees
        the floats an eager ledger holds."""
        service = populated_service(host_count=30)
        for index in range(3):
            service.create_group(
                f"g{index}", [f"host-{i}" for i in range(index * 8, index * 8 + 12)]
            )
        eager = {name: 0.0 for name in service.hosts}

        def check() -> None:
            assert service.host_load_kbits() == eager
            ranked = sorted(eager.items(), key=lambda item: item[1], reverse=True)
            assert service.busiest_hosts(4) == ranked[:4]

        live = [0, 1, 2]
        for step, (index, kbits, read) in enumerate(sends):
            if step == drop_after and len(live) > 1:
                service.drop_group(f"g{live.pop(0)}")
                # a membership change adds the notes in: none outlives
                # the trees it was charged from
                assert not service._unfolded
                check()
            group_name = f"g{live[index % len(live)]}"
            members = service._members[group_name]
            host_of = {ident: name for name, ident in members.items()}
            source = next(iter(members))
            tree = blocking_multicast(service, group_name, source, kbits)
            for ident, count in tree.children_counts().items():
                if count:
                    eager[host_of[ident]] += count * kbits
            if read:
                check()
        check()


class TestIdentifierAssignment:
    def test_join_moves_no_one_but_a_leave_can_move_a_salted_member(self):
        """In a 4-bit space ``g/h0`` and ``g/h7`` both hash to 4, so
        ``h7``, second in join order, is salted (to 0).  A join moves no
        one; once ``h0`` leaves, ``h7`` moves to its own hash."""
        space = IdentifierSpace(4)
        assert hash_to_identifier("g/h0", space) == hash_to_identifier("g/h7", space) == 4
        service = MulticastService(space_bits=4)
        for index in range(10):
            service.register_host(f"h{index}", 500.0)
        service.create_group("g", ["h0", "h7"])
        assert service.member_ident("g", "h7") == 0
        service.join_group("g", "h1")
        idents = {name: service.member_ident("g", name) for name in ("h0", "h7", "h1")}
        assert idents == {"h0": 4, "h7": 0, "h1": 13}
        service.leave_group("g", "h0")
        assert service.member_ident("g", "h7") == 4
        assert service.member_ident("g", "h1") == 13

    @settings(max_examples=80, deadline=None)
    @given(
        bits=st.integers(min_value=4, max_value=6),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["join", "leave", "drop", "create"]),
                st.integers(min_value=0, max_value=2**16),
            ),
            max_size=30,
        ),
    )
    def test_every_rebuild_assigns_what_a_fresh_assignment_does(self, bits, ops):
        """Join, leave, drop and recreate in spaces small enough for
        collisions: after every operation each member holds the
        identifier :func:`assign_identifiers` gives the join-order
        member list, and the service holds hashes of live members only."""
        space = IdentifierSpace(bits)
        service = MulticastService(space_bits=bits)
        pool = [f"h{index}" for index in range(12)]
        for name in pool:
            service.register_host(name, 500.0)
        groups: dict[str, list[str]] = {}  # the model: members in join order

        def check() -> None:
            assert service._hashes.keys() == groups.keys()
            for group_name, members in groups.items():
                keys = [f"{group_name}/{name}" for name in members]
                expected = assign_identifiers(keys, space)
                assert service.members_of(group_name) == members
                assert [service.member_ident(group_name, name) for name in members] == [
                    expected[key] for key in keys
                ]
                assert service._hashes[group_name] == {
                    name: hash_to_identifier(key, space) for name, key in zip(members, keys)
                }

        check()
        for op, code in ops:
            group_name = f"g{code % 2}"
            members = groups.get(group_name)
            if op == "create" and members is None:
                chosen = Random(code).sample(pool, 1 + code % 8)
                service.create_group(group_name, chosen)
                groups[group_name] = chosen
            elif op == "drop" and members is not None:
                service.drop_group(group_name)
                del groups[group_name]
            elif op == "join" and members is not None and len(members) < len(pool):
                outsiders = [name for name in pool if name not in members]
                joiner = outsiders[code % len(outsiders)]
                service.join_group(group_name, joiner)
                members.append(joiner)
            elif op == "leave" and members is not None and len(members) > 1:
                leaver = members[code % len(members)]
                service.leave_group(group_name, leaver)
                members.remove(leaver)
            check()
