"""Tests for group generation."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.capacity.distributions import (
    FixedCapacity,
    HeavyTailCapacity,
    UniformBandwidth,
    UniformCapacity,
)
from repro.workloads import GroupSpec, generate_group


class TestGroupSpec:
    def test_requires_exactly_one_mode(self):
        with pytest.raises(ValueError, match="exactly one"):
            GroupSpec(size=10)
        with pytest.raises(ValueError, match="exactly one"):
            GroupSpec(
                size=10,
                capacities=UniformCapacity(4, 10),
                bandwidths=UniformBandwidth(),
                per_link_kbps=100,
            )

    def test_bandwidth_mode_needs_p(self):
        with pytest.raises(ValueError, match="per_link_kbps"):
            GroupSpec(size=10, bandwidths=UniformBandwidth())

    def test_size_validated(self):
        with pytest.raises(ValueError):
            GroupSpec(size=0, capacities=UniformCapacity(4, 10))


class TestGroupSpecJson:
    """The FaultPlan-style JSON value contract on group workloads."""

    SPECS = [
        GroupSpec(size=40, space_bits=14, capacities=UniformCapacity(4, 10)),
        GroupSpec(size=25, capacities=FixedCapacity(6), min_capacity=2),
        GroupSpec(size=30, capacities=HeavyTailCapacity(2, 32, 1.6)),
        GroupSpec(
            size=50,
            bandwidths=UniformBandwidth(400, 1000),
            per_link_kbps=100.0,
            min_capacity=4,
        ),
    ]

    def test_round_trip_equality(self):
        for spec in self.SPECS:
            raw = json.loads(json.dumps(spec.to_json_dict()))
            assert GroupSpec.from_json_dict(raw) == spec

    def test_round_trip_generates_identical_group(self):
        for spec in self.SPECS:
            reloaded = GroupSpec.from_json_dict(
                json.loads(json.dumps(spec.to_json_dict()))
            )
            first = generate_group(spec, seed=7)
            second = generate_group(reloaded, seed=7)
            assert [
                (n.ident, n.capacity, n.bandwidth_kbps) for n in first
            ] == [(n.ident, n.capacity, n.bandwidth_kbps) for n in second]

    def test_unknown_distribution_rejected(self):
        raw = GroupSpec(size=10, capacities=UniformCapacity(4, 10)).to_json_dict()
        raw["capacities"]["kind"] = "CauchyCapacity"
        with pytest.raises(ValueError, match="unknown capacity distribution"):
            GroupSpec.from_json_dict(raw)


class TestGenerateGroup:
    def test_capacity_mode(self):
        spec = GroupSpec(size=200, space_bits=14, capacities=UniformCapacity(4, 10))
        snap = generate_group(spec, seed=1)
        assert len(snap) == 200
        assert all(4 <= n.capacity <= 10 for n in snap)
        assert all(n.bandwidth_kbps == 0.0 for n in snap)

    def test_bandwidth_mode(self):
        spec = GroupSpec(
            size=200,
            space_bits=14,
            bandwidths=UniformBandwidth(400, 1000),
            per_link_kbps=100,
            min_capacity=4,
        )
        snap = generate_group(spec, seed=1)
        for node in snap:
            assert 400 <= node.bandwidth_kbps <= 1000
            assert node.capacity == max(4, int(node.bandwidth_kbps // 100))

    def test_min_capacity_floor(self):
        spec = GroupSpec(
            size=50,
            space_bits=14,
            capacities=UniformCapacity(1, 3),
            min_capacity=4,
        )
        snap = generate_group(spec, seed=2)
        assert all(n.capacity == 4 for n in snap)

    def test_deterministic(self):
        spec = GroupSpec(size=100, space_bits=14, capacities=UniformCapacity(4, 10))
        first = generate_group(spec, seed=9)
        second = generate_group(spec, seed=9)
        assert [(n.ident, n.capacity) for n in first] == [
            (n.ident, n.capacity) for n in second
        ]
        third = generate_group(spec, seed=10)
        assert [n.ident for n in first] != [n.ident for n in third]


class TestServiceWorkloadSpec:
    def test_round_trips_through_json(self):
        from repro.workloads import ServiceWorkloadSpec

        spec = ServiceWorkloadSpec(
            groups=20, hosts=80, group_size=6, horizon_s=30.0,
            send_interval_s=4.0, churn_rate=0.05, mean_hold_s=25.0,
            message_kbits=16.0,
        )
        blob = json.dumps(spec.to_json_dict(), sort_keys=True)
        reloaded = ServiceWorkloadSpec.from_json_dict(json.loads(blob))
        assert reloaded == spec
        assert json.dumps(reloaded.to_json_dict(), sort_keys=True) == blob

    def test_validation(self):
        from repro.workloads import ServiceWorkloadSpec

        with pytest.raises(ValueError):
            ServiceWorkloadSpec(groups=0, hosts=10, group_size=4, horizon_s=10.0)
        with pytest.raises(ValueError):
            ServiceWorkloadSpec(groups=2, hosts=3, group_size=4, horizon_s=10.0)
        with pytest.raises(ValueError):
            ServiceWorkloadSpec(groups=2, hosts=10, group_size=4, horizon_s=0.0)


class TestGenerateServiceWorkload:
    def _spec(self, **overrides):
        from repro.workloads import ServiceWorkloadSpec

        base = dict(
            groups=15, hosts=60, group_size=5, horizon_s=25.0,
            send_interval_s=3.0, churn_rate=0.1, mean_hold_s=20.0,
        )
        base.update(overrides)
        return ServiceWorkloadSpec(**base)

    def test_deterministic_per_seed(self):
        from repro.workloads import generate_service_workload

        spec = self._spec()
        assert generate_service_workload(spec, seed=5) == (
            generate_service_workload(spec, seed=5)
        )
        assert generate_service_workload(spec, seed=5) != (
            generate_service_workload(spec, seed=6)
        )

    #: SHA-256 of ``repr(events)``, recorded at ``b41db62`` — the last
    #: commit that re-sorted the membership set (and, per churn event,
    #: every free host) instead of keeping one sorted list.  The first
    #: four are ``bench``'s plane_steady / plane_churn specs; the last
    #: has 7 hosts for groups of 5, so joins meet a full group.
    PINNED = {
        ("steady", 0): "10b6404bf4fc1b135c3ca7f664c98c0a7f2807aaf2ddf8f38be60dd2705838fe",
        ("steady", 1): "53dfe4180dc87164431c19563a8fdf72ca07d6c8ad6a68ab8b727947682ff45c",
        ("churn", 0): "801acf62c261fa83de793d68374a6bdaab6cb4a85db5275baa1c6fcd79681c41",
        ("churn", 1): "527a647cf44759a9b6afd7ca5733246ba1358915dfdb9b662a4c2e9405e0eebd",
        ("crowded", 3): "74ccdb88d6e9a653f6de1a4bca2fbd5cf17109a2134b67e29aa8ebfe904738e5",
    }

    @pytest.mark.parametrize("name, seed", sorted(PINNED))
    def test_events_are_byte_identical_to_the_pinned_draw(self, name, seed):
        from repro.workloads import ServiceWorkloadSpec, generate_service_workload

        plane = dict(
            groups=60, hosts=2000, group_size=32, horizon_s=40.0,
            send_interval_s=0.25, message_kbits=8.0, bandwidths=UniformBandwidth(),
        )
        spec = {
            "steady": lambda: ServiceWorkloadSpec(**plane),
            "churn": lambda: ServiceWorkloadSpec(
                **plane, churn_rate=0.5, mean_hold_s=120.0
            ),
            "crowded": lambda: ServiceWorkloadSpec(
                groups=6, hosts=7, group_size=5, horizon_s=40.0,
                send_interval_s=3.0, churn_rate=2.0,
            ),
        }[name]()
        events = generate_service_workload(spec, seed).events
        digest = hashlib.sha256(repr(events).encode()).hexdigest()
        assert digest == self.PINNED[name, seed]

    def test_events_sorted_and_legal(self):
        from repro.workloads import generate_service_workload

        workload = generate_service_workload(self._spec(), seed=2)
        times = [event.time for event in workload.events]
        assert times == sorted(times)
        # walk the membership forward: every event must be legal at its
        # firing time against the group state the generator promised
        members: dict[str, set[str]] = {}
        alive: set[str] = set()
        for event in workload.events:
            if event.action == "create":
                assert event.group not in alive
                alive.add(event.group)
                members[event.group] = set(event.hosts)
                assert len(event.hosts) >= 2
            elif event.action == "join":
                (host,) = event.hosts
                assert event.group in alive and host not in members[event.group]
                members[event.group].add(host)
            elif event.action == "leave":
                (host,) = event.hosts
                assert event.group in alive and host in members[event.group]
                assert len(members[event.group]) > 1
                members[event.group].remove(host)
            elif event.action == "send":
                (host,) = event.hosts
                assert event.group in alive and host in members[event.group]
            elif event.action == "drop":
                assert event.group in alive
                alive.remove(event.group)
            else:  # pragma: no cover
                raise AssertionError(event.action)

    def test_counts_match_spec(self):
        from repro.workloads import generate_service_workload

        workload = generate_service_workload(self._spec(groups=15), seed=0)
        counts = workload.counts()
        assert counts["create"] == 15
        assert counts["send"] > 0
        assert len(workload.hosts) == 60

    def test_no_hold_means_no_drops(self):
        from repro.workloads import generate_service_workload

        workload = generate_service_workload(
            self._spec(mean_hold_s=None, churn_rate=0.0), seed=1
        )
        counts = workload.counts()
        assert "drop" not in counts
        assert "join" not in counts and "leave" not in counts
