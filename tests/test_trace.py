"""Tests for the repro.trace subsystem.

Covers the tracer core (cheap-when-disabled, marks, absorption), the
event schema, the exporters, the live-cluster instrumentation, the
causal reconstructor's headline guarantee — every undelivered member
of a lost multicast gets a named lost hop — the serial/parallel trace
equivalence through the experiment runner, and the inspection CLI.
"""

from __future__ import annotations

import json
from random import Random

import pytest

from repro.churn.runner import ChurnExperiment
from repro.churn.runner import main as churn_main
from repro.churn.trace import poisson_trace
from repro.experiments.runner import main as experiments_main
from repro.protocol.cluster import Cluster
from repro.systems import get_system, system_names
from repro.trace import causal, export, schema
from repro.trace.__main__ import main as trace_main
from repro.trace.registry import ObsDelta, since, snapshot
from repro.trace.tracer import TRACER, TraceEvent, Tracer, resequence


@pytest.fixture(autouse=True)
def clean_tracer():
    """Every test starts and ends with a disabled, empty tracer."""
    TRACER.disable()
    TRACER.clear()
    yield
    TRACER.disable()
    TRACER.clear()


class TestTracer:
    def test_disabled_by_default_and_instrumentation_pattern(self):
        tracer = Tracer()
        assert not tracer.enabled
        # the instrumentation pattern: emit is only reached when enabled
        if tracer.enabled:
            tracer.emit(0.0, "net", "send")
        assert len(tracer) == 0

    def test_emit_sequences_and_names(self):
        tracer = Tracer()
        tracer.enable()
        tracer.emit(1.0, "net", "send", src=1, dst=2)
        tracer.emit(2.0, "net", "deliver", src=1, dst=2)
        events = tracer.events()
        assert [event.seq for event in events] == [0, 1]
        assert events[0].name == "net.send"
        assert events[0].data == {"src": 1, "dst": 2}

    def test_emit_allows_header_names_in_data(self):
        # net events carry a `kind` payload field; the positional-only
        # header must not collide with it.
        tracer = Tracer()
        tracer.enable()
        tracer.emit(0.5, "net", "send", kind="ping", time=3, layer="x")
        event = tracer.events()[0]
        assert event.kind == "send" and event.time == 0.5
        assert event.data == {"kind": "ping", "time": 3, "layer": "x"}

    def test_enable_resets_by_default(self):
        tracer = Tracer()
        tracer.enable()
        tracer.emit(0.0, "sim", "spawn")
        tracer.enable()
        assert len(tracer) == 0
        tracer.emit(0.0, "sim", "spawn")
        tracer.enable(reset=False)
        assert len(tracer) == 1

    def test_mark_and_events_since(self):
        tracer = Tracer()
        tracer.enable()
        tracer.emit(0.0, "sim", "spawn", pid=1)
        mark = tracer.mark()
        tracer.emit(1.0, "sim", "exit", pid=1)
        delta = tracer.events_since(mark)
        assert [event.name for event in delta] == ["sim.exit"]

    def test_capture_leaves_the_tracer_as_found(self):
        tracer = Tracer()
        tracer.enable()
        tracer.emit(0.0, "sim", "spawn", pid=1)
        for was_enabled in (True, False):
            if not was_enabled:
                tracer.disable()
            with pytest.raises(RuntimeError), tracer.capture() as mark:
                assert tracer.enabled and mark == 1
                tracer.emit(1.0, "sim", "exit", pid=1)
                assert [e.name for e in tracer.events_since(mark)] == ["sim.exit"]
                raise RuntimeError("the block failing must not leak state")
            assert tracer.enabled is was_enabled
            assert [event.name for event in tracer.events()] == ["sim.spawn"]

    def test_filtered_capture_nested_in_unfiltered_restores_the_outer(self):
        tracer = Tracer()
        only = {"net": {"mc_region"}, "mc": None}

        def emit_all():
            # every site's guard, applied to one event of each kind
            for layer, key, kind in (
                ("sim", "sleep", "sleep"), ("net", "ping", "send"),
                ("net", "mc_region", "send"), ("mc", "deliver", "deliver"),
            ):
                slot = getattr(tracer, layer)
                if slot and key in slot:
                    tracer.emit(0.0, layer, kind, key=key)

        with tracer.capture() as outer:
            emit_all()
            with pytest.raises(RuntimeError), tracer.capture(only=only) as inner:
                assert tracer.enabled and not tracer.sim and not tracer.proto
                emit_all()
                assert [(e.name, e.data["key"]) for e in tracer.events_since(inner)] == [
                    ("net.send", "mc_region"), ("mc.deliver", "deliver"),
                ]
                raise RuntimeError("the block failing must not leak the filter")
            assert tracer.enabled
            emit_all()
            assert [e.name for e in tracer.events_since(outer)] == [
                "sim.sleep", "net.send", "net.send", "mc.deliver",
            ] * 2
        assert not tracer.enabled and len(tracer) == 0
        assert not (tracer.sim or tracer.net or tracer.proto or tracer.mc)
        # and the other way round: the outer filter comes back
        with tracer.capture(only=only):
            with tracer.capture():
                assert "ping" in tracer.net and tracer.sim
            assert "ping" not in tracer.net and "mc_region" in tracer.net
            assert not tracer.sim

    def test_enable_and_disable_leave_no_filter(self):
        tracer = Tracer()

        def slots():
            return [getattr(tracer, layer) for layer in ("sim", "net", "proto", "mc")]

        with tracer.capture(only={"proto": {"crash"}}):
            assert "crash" in tracer.proto and "join" not in tracer.proto
            assert not tracer.net
            tracer.enable(reset=False)
            assert all("anything" in slot for slot in slots())
            with tracer.capture(only={"proto": {"crash"}}):
                tracer.disable()
                assert not any(slots())
                tracer.enable()
                assert tracer.enabled and all("anything" in slot for slot in slots())
            assert all("anything" in slot for slot in slots())
        assert not tracer.enabled and not any(slots())

    def test_excluded_send_builds_no_trace_fields(self):
        from repro.sim.engine import Simulator
        from repro.sim.network import Network

        class Untouchable(dict):
            def get(self, key, default=None):
                raise AssertionError(f"payload read for trace field {key!r}")

        class Sink:
            def handle_message(self, message):
                pass

        simulator = Simulator()
        network = Network(simulator)
        network.register(2, Sink())
        with TRACER.capture(only=schema.READ_SET) as mark:
            network.send(1, 2, "ping", Untouchable())
            network.send(1, 3, "notify", Untouchable())  # dropped: dead host
            simulator.run(until=1.0)
            assert TRACER.events_since(mark) == ()
            # the same payload on a recorded kind is read
            with pytest.raises(AssertionError, match="trace field"):
                network.send(1, 2, "mc_region", Untouchable())

    def test_resequence(self):
        scrambled = [
            TraceEvent(10, 0.0, "sim", "spawn", {}),
            TraceEvent(3, 1.0, "sim", "exit", {}),
        ]
        assert [event.seq for event in resequence(scrambled)] == [0, 1]

    def test_registry_delta_roundtrip(self):
        TRACER.enable()
        before = snapshot()
        TRACER.emit(0.0, "proto", "crash", ident=5)
        delta = since(before)
        assert [event.name for event in delta.events] == ["proto.crash"]
        merged = ObsDelta() + delta
        assert len(merged.events) == 1


class TestSchema:
    def test_wellformed_event_passes(self):
        event = TraceEvent(0, 1.0, "net", "drop",
                           {"src": 1, "dst": 2, "kind": "ping", "reason": "loss"})
        assert schema.validate_event(event) == []

    def test_unknown_name_rejected(self):
        event = TraceEvent(0, 0.0, "net", "teleport", {})
        assert any("unknown" in p for p in schema.validate_event(event))

    def test_missing_and_extra_fields_rejected(self):
        missing = TraceEvent(0, 0.0, "net", "send", {"src": 1})
        assert any("missing" in p for p in schema.validate_event(missing))
        extra = TraceEvent(
            0, 0.0, "proto", "crash", {"ident": 1, "bogus": 2}
        )
        assert any("unexpected" in p for p in schema.validate_event(extra))

    def test_bad_drop_reason_rejected(self):
        event = TraceEvent(0, 0.0, "net", "drop",
                           {"src": 1, "dst": 2, "kind": "m", "reason": "gremlins"})
        assert any("reason" in p for p in schema.validate_event(event))

    def test_sequence_monotonicity_checked(self):
        events = [
            TraceEvent(0, 0.0, "proto", "crash", {"ident": 1}),
            TraceEvent(0, 0.0, "proto", "crash", {"ident": 2}),
        ]
        assert any("increasing" in p for p in schema.validate_events(events))


class TestExport:
    def test_jsonl_roundtrip(self, tmp_path):
        events = (
            TraceEvent(0, 0.25, "net", "send",
                       {"src": 1, "dst": 2, "kind": "ping", "delay": 0.02}),
            TraceEvent(1, 0.27, "net", "deliver",
                       {"src": 1, "dst": 2, "kind": "ping"}),
        )
        path = tmp_path / "trace.jsonl"
        assert export.write_jsonl(events, path) == 2
        assert export.read_jsonl(path) == events

    def test_jsonl_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError):
            export.read_jsonl(path)

    def test_chrome_trace_structure(self):
        events = [
            TraceEvent(0, 1.5, "mc", "deliver",
                       {"mid": 3, "ident": 7, "depth": 1, "parent": 2}),
        ]
        chrome = export.to_chrome_trace(events)
        instants = [e for e in chrome["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["name"] == "mc.deliver#3"
        assert instants[0]["ts"] == 1_500_000
        metas = [e for e in chrome["traceEvents"] if e["ph"] == "M"]
        assert {m["args"]["name"] for m in metas} == {
            "sim layer", "net layer", "proto layer", "mc layer"
        }


class TestInstrumentation:
    """The live stack emits schema-valid events; disabled emits nothing."""

    def _small_cluster(self, system="cam-chord"):
        cluster = Cluster(system, [4] * 8, space_bits=12, seed=2)
        cluster.bootstrap()
        return cluster

    def test_disabled_run_emits_nothing(self):
        self._small_cluster()
        assert len(TRACER) == 0

    def test_enabled_run_is_schema_valid_and_covers_layers(self):
        TRACER.enable()
        cluster = self._small_cluster()
        mid = cluster.multicast_from(cluster.live_peers()[0].ident)
        cluster.run(3.0)
        events = TRACER.events()
        assert schema.validate_events(events) == []
        names = {event.name for event in events}
        assert {"sim.spawn", "sim.sleep", "net.send", "net.deliver",
                "proto.join", "proto.stabilize", "mc.origin",
                "mc.deliver"} <= names
        record = causal.reconstruct(events, mid)
        assert record.delivery_ratio() == 1.0
        assert not record.undelivered

    def test_flood_system_traces_dups(self):
        TRACER.enable()
        cluster = self._small_cluster("cam-koorde")
        mid = cluster.multicast_from(cluster.live_peers()[0].ident)
        cluster.run(3.0)
        events = TRACER.events()
        assert schema.validate_events(events) == []
        record = causal.reconstruct(events, mid)
        assert not record.undelivered
        assert record.duplicates  # flooding always re-offers somewhere


class TestCausalLostHops:
    """The headline guarantee: every undelivered member of a lost
    multicast gets a named (sender, receiver, event) lost hop."""

    def _traced_churn_events(self, seed=3):
        TRACER.enable()
        rng = Random(seed)
        capacities = [rng.randint(4, 10) for _ in range(32)]
        trace = poisson_trace(
            60.0, join_rate=0.3, depart_rate=0.3, rng=Random(seed + 1)
        )
        experiment = ChurnExperiment(
            "cam-chord", capacities, space_bits=16, seed=seed
        )
        experiment.run(trace, system_name="cam-chord")
        return TRACER.events()

    def test_every_undelivered_member_named(self):
        events = self._traced_churn_events()
        assert schema.validate_events(events) == []
        lost = causal.lost_multicasts(events)
        assert lost, "expected churn at this rate to lose at least one multicast"
        named_a_drop = False
        for record in lost:
            hops = causal.lost_hops(record)
            # the guarantee: one named hop per undelivered member
            assert set(hops) == record.undelivered
            for member, hop in hops.items():
                assert hop.receiver == member or "dropped" in hop.event
                assert hop.sender in record.members
                assert hop.event  # never an empty verdict
                if "dropped:dead" in hop.event:
                    named_a_drop = True
        assert named_a_drop, "expected at least one loss pinned to a dead hop"

    def test_crashed_members_not_counted_as_losses(self):
        events = self._traced_churn_events()
        for mid in causal.multicast_ids(events):
            record = causal.reconstruct(events, mid)
            assert not (record.undelivered & set(record.departed))

    def test_tree_diff_explains_reroutes(self):
        events = self._traced_churn_events()
        record = causal.lost_multicasts(events)[0]
        missing, extra = record.tree_diff()
        # under churn the actual tree deviates from the implicit one
        assert missing or extra

    @pytest.mark.parametrize("system", system_names())
    def test_implicit_tree_iff_the_descriptor_builds_one(self, system):
        members = [1, 5, 9, 13]
        origin = TraceEvent(0, 0.0, "mc", "origin", {
            "mid": 3, "source": 1, "system": system, "bits": 4,
            "members": members, "capacities": [[m, 4] for m in members],
        })
        record = causal.reconstruct([origin], 3)
        has_tree = record.implicit_edges() is not None
        assert has_tree == get_system(system).builds_single_tree


def in_read_set(event: TraceEvent) -> bool:
    """Whether a ``capture(only=schema.READ_SET)`` records ``event``:
    the site guards' test, applied after the fact (a ``net`` datagram
    event keys on its message kind, every other event on its kind)."""
    if event.layer not in schema.READ_SET:
        return False
    keys = schema.READ_SET[event.layer]
    if keys is None:
        return True
    if event.layer == "net" and event.kind in ("send", "deliver", "drop", "timeout"):
        return event.data["kind"] in keys
    return event.kind in keys


def assert_read_set_suffices(events) -> list[causal.MulticastRecord]:
    """Every multicast reconstructs to the same record from the read set
    alone; returns the records."""
    kept = [event for event in events if in_read_set(event)]
    assert len(kept) < len(events)
    records = [causal.reconstruct(events, mid) for mid in causal.multicast_ids(events)]
    for record in records:
        assert causal.reconstruct(kept, record.mid) == record
    return records


class TestReadSetDriftGuard:
    """``schema.READ_SET`` is everything ``causal.reconstruct`` reads.

    The fault campaign records only the read set, so the day
    ``reconstruct`` starts reading an event the set omits, its oracles
    would judge a different record.  These fail that day: on full
    traces, reconstructing from the read set alone must give the same
    record field for field (filtering keeps each event's ``seq``)."""

    @pytest.mark.parametrize(
        "system, message_kind", [("cam-chord", "mc_region"), ("koorde", "mc_flood")]
    )
    def test_lossy_churn_trace(self, system, message_kind):
        rng = Random(3)
        trace = poisson_trace(40.0, join_rate=0.5, depart_rate=0.5, rng=Random(4))
        experiment = ChurnExperiment(
            system, [rng.randint(4, 10) for _ in range(24)],
            space_bits=16, seed=3, loss_rate=0.05,
        )
        with TRACER.capture() as mark:
            experiment.run(trace, system_name=system)
            events = TRACER.events_since(mark)
        assert {"proto.crash", "net.drop", "sim.sleep"} <= {e.name for e in events}
        records = assert_read_set_suffices(events)
        assert len(records) > 3
        # the read set still carries the system's multicast datagrams
        assert {a.kind for record in records for a in record.sends} == {message_kind}

    @pytest.mark.parametrize("mode", ["repair", "failover"])
    @pytest.mark.parametrize("departure", [None, "crash", "leave"])
    def test_campaign_window(self, monkeypatch, mode, departure):
        """Every system through ``run_plan`` with the window recorded in
        full, checked at each ``reconstruct`` call the oracles make; a
        member departs inside the first multicast's window when asked."""
        from repro.faults import campaign

        records = []

        def reconstruct_both_ways(events, mid):
            record = causal.reconstruct(events, mid)
            kept = [event for event in events if in_read_set(event)]
            assert causal.reconstruct(kept, mid) == record
            records.append(record)
            return record

        multicast_from = Cluster.multicast_from
        first_of_plan = True

        def multicast_then_depart(cluster, ident):
            nonlocal first_of_plan
            mid = multicast_from(cluster, ident)
            if departure is not None and first_of_plan:
                first_of_plan = False
                others = sorted(cluster.live_members() - {ident})
                cluster.simulator.call_later(
                    0.01, cluster.remove_peer, others[len(others) // 2],
                    departure == "crash",
                )
            return mid

        monkeypatch.setattr(campaign, "READ_SET", None)  # record the window in full
        monkeypatch.setattr(campaign, "reconstruct", reconstruct_both_ways)
        monkeypatch.setattr(Cluster, "multicast_from", multicast_then_depart)
        plans = campaign.generate_campaign(system_names(), 1, 2)
        for plan in plans:
            first_of_plan = True
            campaign.run_plan(plan, mode=mode, settle=campaign.FAILOVER_SETTLE)
        assert {record.system for record in records} == set(system_names())
        departed = sum(len(record.departed) for record in records)
        assert departed == (0 if departure is None else len(plans))


class TestSerialParallelEquivalence:
    def test_runner_trace_identical_across_jobs(self, tmp_path):
        serial_path = tmp_path / "serial.jsonl"
        fanned_path = tmp_path / "fanned.jsonl"
        base = ["fig9", "--scale", "bench", "--trace"]
        assert experiments_main(base + [str(serial_path)]) == 0
        assert experiments_main(base + [str(fanned_path), "--jobs", "4"]) == 0
        serial_events = export.read_jsonl(serial_path)
        fanned_events = export.read_jsonl(fanned_path)
        assert serial_events == fanned_events
        assert serial_events, "expected the figure run to emit trace events"
        assert serial_path.read_bytes() == fanned_path.read_bytes()


class TestTraceFlagIsScoped:
    """Regression: ``--trace`` used to switch the process-global tracer
    on and leave it on, so a later untraced ``main()`` in the same
    interpreter kept recording into a buffer nobody read."""

    CHURN = ["--system", "cam-chord", "--duration", "10", "--size", "12"]

    @pytest.mark.parametrize(
        "main, argv",
        [
            (experiments_main, ["fig9", "--scale", "bench"]),
            (churn_main, CHURN),
        ],
        ids=["experiments", "churn"],
    )
    def test_traced_then_untraced_run(self, main, argv, tmp_path):
        TRACER.enable()
        TRACER.emit(0.0, "sim", "spawn", pid=7)  # somebody else's event
        TRACER.disable()
        path = tmp_path / "run.jsonl"
        assert main([*argv, "--trace", str(path)]) == 0
        written = export.read_jsonl(path)
        assert written and [event.seq for event in written] == list(range(len(written)))
        assert main(argv) == 0
        assert not TRACER.enabled
        assert [event.name for event in TRACER.events()] == ["sim.spawn"]


class TestCli:
    def _write_sample(self, tmp_path):
        TRACER.enable()
        cluster = Cluster("cam-chord", [4] * 8, space_bits=12, seed=2)
        cluster.bootstrap()
        mid = cluster.multicast_from(cluster.live_peers()[0].ident)
        cluster.run(3.0)
        path = tmp_path / "run.jsonl"
        export.write_jsonl(TRACER.events(), path)
        return path, mid

    def test_check_ok_and_check_shorthand(self, tmp_path, capsys):
        path, _ = self._write_sample(tmp_path)
        assert trace_main(["check", str(path)]) == 0
        assert trace_main(["--check", str(path)]) == 0
        assert "schema valid" in capsys.readouterr().out

    def test_check_flags_invalid(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"seq": 0, "t": 0.0, "layer": "net", "kind": "teleport",
                        "data": {}}) + "\n"
        )
        assert trace_main(["check", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_summarize_tree_lost_and_export(self, tmp_path, capsys):
        path, mid = self._write_sample(tmp_path)
        assert trace_main(["summarize", str(path)]) == 0
        assert "net.send" in capsys.readouterr().out
        assert trace_main(["tree", str(path), str(mid)]) == 0
        assert f"mid={mid}" in capsys.readouterr().out
        assert trace_main(["lost", str(path)]) == 0
        assert "no lost multicasts" in capsys.readouterr().out
        out = tmp_path / "run.chrome.json"
        assert trace_main(["export", str(path), "-o", str(out)]) == 0
        chrome = json.loads(out.read_text())
        assert any(e["ph"] == "i" for e in chrome["traceEvents"])

    def test_summarize_counts_lossy_multicasts_and_lost_members_apart(
        self, tmp_path, capsys
    ):
        # one multicast from 1 to members 1..4 that reaches only 2:
        # one multicast with a loss, two undelivered members
        events = [
            TraceEvent(0, 0.0, "mc", "origin", {
                "mid": 9, "source": 1, "system": "cam-chord", "bits": 4,
                "members": [1, 2, 3, 4], "capacities": [[m, 2] for m in (1, 2, 3, 4)],
            }),
            TraceEvent(1, 0.0, "mc", "deliver",
                       {"mid": 9, "ident": 1, "depth": 0, "parent": None}),
            TraceEvent(2, 0.02, "mc", "deliver",
                       {"mid": 9, "ident": 2, "depth": 1, "parent": 1}),
        ]
        path = tmp_path / "lossy.jsonl"
        export.write_jsonl(events, path)
        assert trace_main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "multicasts: 1 originated, 1 with a loss, 2 undelivered members" in out
        assert "mid=9 source=1 delivery=0.5000 undelivered=2" in out
        assert trace_main(["lost", str(path)]) == 0
        out = capsys.readouterr().out
        assert "mid=9 source=1 delivery=0.5000 undelivered=[3, 4]" in out
        assert out.count("propagation stopped") == 2

    def test_churn_cli_writes_trace_and_network_footer(self, tmp_path, capsys):
        path = tmp_path / "churn.jsonl"
        assert churn_main([
            "--system", "cam-chord", "--rate", "0.2", "--duration", "25",
            "--size", "16", "--seed", "1", "--trace", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "# network" in out
        assert "# trace:" in out
        events = export.read_jsonl(path)
        assert schema.validate_events(events) == []
        assert causal.multicast_ids(events)
