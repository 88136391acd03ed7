"""Tests for the simulated network and latency models."""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.latency import ConstantLatency, GeographicLatency, UniformLatency
from repro.sim.network import Message, Network
from repro.trace.tracer import TRACER


class Recorder:
    """Endpoint that logs everything it receives."""

    def __init__(self, network: Network | None = None, address: int | None = None):
        self.messages: list[Message] = []
        self._network = network
        self._address = address

    def handle_message(self, message: Message) -> None:
        self.messages.append(message)
        if self._network is not None and message.request_id is not None:
            self._network.respond(message, {"echo": message.payload})


def make_net(latency=None, loss=0.0, seed=0):
    sim = Simulator()
    return sim, Network(sim, latency=latency, loss_rate=loss, seed=seed)


class TestDatagrams:
    def test_delivery_after_latency(self):
        sim, net = make_net(latency=ConstantLatency(0.5))
        receiver = Recorder()
        net.register(2, receiver)
        net.send(1, 2, "hello", {"x": 1})
        sim.run(until=0.4)
        assert receiver.messages == []
        sim.run(until=0.5)
        assert len(receiver.messages) == 1
        assert receiver.messages[0].payload == {"x": 1}
        assert net.stats.delivered == 1

    def test_send_to_dead_host_dropped(self):
        sim, net = make_net()
        net.send(1, 99, "hello")
        sim.run_until_idle()
        assert net.stats.dropped_dead == 1

    def test_unregister_drops_in_flight(self):
        sim, net = make_net(latency=ConstantLatency(1.0))
        receiver = Recorder()
        net.register(2, receiver)
        net.send(1, 2, "hello")
        net.unregister(2)
        sim.run_until_idle()
        assert receiver.messages == []
        assert net.stats.dropped_dead == 1

    def test_duplicate_registration_rejected(self):
        _, net = make_net()
        net.register(1, Recorder())
        with pytest.raises(ValueError):
            net.register(1, Recorder())

    def test_loss(self):
        sim, net = make_net(loss=0.5, seed=1)
        receiver = Recorder()
        net.register(2, receiver)
        for _ in range(200):
            net.send(1, 2, "m")
        sim.run_until_idle()
        assert 0 < len(receiver.messages) < 200
        assert net.stats.dropped_loss == 200 - len(receiver.messages)

    def test_loss_rate_validation(self):
        with pytest.raises(ValueError):
            make_net(loss=1.0)
        sim, net = make_net()
        with pytest.raises(ValueError):
            net.set_loss_rate(-0.1)

    def test_partition_and_heal(self):
        sim, net = make_net()
        receiver = Recorder()
        net.register(2, receiver)
        net.partition(1, 2)
        net.send(1, 2, "lost")
        sim.run_until_idle()
        assert receiver.messages == []
        assert net.stats.dropped_partition == 1
        net.heal(1, 2)
        net.send(1, 2, "found")
        sim.run_until_idle()
        assert len(receiver.messages) == 1


class TestPartitionInteractions:
    """Partitions composed with loss, timeouts and per-kind accounting."""

    def test_partition_checked_before_loss(self):
        # On a partitioned link every drop is a partition drop: the loss
        # coin is never tossed, so the loss RNG stream stays untouched.
        sim, net = make_net(loss=0.5, seed=1)
        net.register(2, Recorder())
        net.partition(1, 2)
        for _ in range(50):
            net.send(1, 2, "m")
        sim.run_until_idle()
        assert net.stats.dropped_partition == 50
        assert net.stats.dropped_loss == 0

    def test_heal_restores_lossy_delivery(self):
        # After heal the link behaves like any lossy link again.
        sim, net = make_net(loss=0.5, seed=1)
        receiver = Recorder()
        net.register(2, receiver)
        net.partition(1, 2)
        net.send(1, 2, "m")
        net.heal(1, 2)
        for _ in range(200):
            net.send(1, 2, "m")
        sim.run_until_idle()
        assert net.stats.dropped_partition == 1
        assert 0 < len(receiver.messages) < 200
        assert net.stats.dropped_loss == 200 - len(receiver.messages)

    def test_partition_is_symmetric_and_pairwise(self):
        sim, net = make_net()
        a, b, c = Recorder(), Recorder(), Recorder()
        net.register(1, a)
        net.register(2, b)
        net.register(3, c)
        net.partition(1, 2)
        net.send(2, 1, "reverse")  # partition blocks both directions
        net.send(1, 3, "bypass")  # but only the named pair
        sim.run_until_idle()
        assert a.messages == []
        assert len(c.messages) == 1
        assert net.stats.dropped_partition == 1

    def test_request_into_partition_times_out(self):
        sim, net = make_net()
        server = Recorder(network=net)
        net.register(2, server)
        net.partition(1, 2)
        future = net.request(1, 2, "ask", timeout=2.0)
        sim.run_until_idle()
        assert future.failed
        assert net.stats.timeouts == 1
        assert net.stats.dropped_partition == 1
        assert server.messages == []  # request never arrived

    def test_partition_blocks_reply_path(self):
        # The request lands, then the link partitions before the reply:
        # the reply is dropped by the partition and the waiter times out.
        sim, net = make_net(latency=ConstantLatency(0.5))

        class PartitionThenRespond(Recorder):
            def handle_message(self, message):
                net.partition(1, 2)
                super().handle_message(message)

        server = PartitionThenRespond(network=net)
        net.register(2, server)
        future = net.request(1, 2, "ask", timeout=3.0)
        sim.run_until_idle()
        assert len(server.messages) == 1  # request was delivered
        assert future.failed
        assert net.stats.timeouts == 1
        assert net.stats.dropped_partition == 1

    def test_heal_before_timeout_lets_retry_succeed(self):
        sim, net = make_net(latency=ConstantLatency(0.1))
        server = Recorder(network=net)
        net.register(2, server)
        net.partition(1, 2)
        first = net.request(1, 2, "ask", timeout=1.0)
        sim.run_until_idle()
        assert first.failed
        net.heal(1, 2)
        second = net.request(1, 2, "ask", {"q": 1}, timeout=1.0)
        sim.run_until_idle()
        assert second.value == {"echo": {"q": 1}}

    def test_per_kind_accounting(self):
        sim, net = make_net()
        net.register(2, Recorder())
        net.partition(1, 2)
        net.send(1, 2, "mc_region", {"mid": 7})
        net.send(1, 2, "mc_region", {"mid": 8})
        future = net.request(1, 2, "ping", timeout=1.0)
        sim.run_until_idle()
        assert future.failed
        assert net.stats.drops_by_kind["mc_region"]["partition"] == 2
        assert net.stats.drops_by_kind["ping"]["partition"] == 1
        assert net.stats.timeouts_by_kind["ping"] == 1
        summary = net.stats.by_kind_summary()
        assert "mc_region[partition=2]" in summary
        assert "ping=1" in summary


class TestRequestResponse:
    def test_round_trip(self):
        sim, net = make_net(latency=ConstantLatency(0.1))
        server = Recorder(network=net)
        net.register(2, server)
        future = net.request(1, 2, "ask", {"q": 7}, timeout=5.0)
        sim.run_until_idle()
        assert future.value == {"echo": {"q": 7}}

    def test_timeout(self):
        sim, net = make_net()
        future = net.request(1, 99, "ask", timeout=2.0)
        sim.run_until_idle()
        assert future.failed
        assert net.stats.timeouts == 1

    def test_respond_requires_request(self):
        _, net = make_net()
        message = Message(1, 2, "x", None, request_id=None)
        with pytest.raises(ValueError):
            net.respond(message)

    def test_late_reply_after_timeout_ignored(self):
        sim, net = make_net(latency=ConstantLatency(3.0))
        server = Recorder(network=net)
        net.register(2, server)
        with TRACER.capture() as mark:
            future = net.request(1, 2, "slow", timeout=1.0)
            sim.run_until_idle()
            drops = [e for e in TRACER.events_since(mark) if e.name == "net.drop"]
        assert future.failed  # reply arrived at t=6 > timeout
        assert net.stats.timeouts == 1
        # the reply left and was eaten: it is a drop, not a delivery
        assert (net.stats.sent, net.stats.delivered, net.stats.dropped_late) == (2, 1, 1)
        assert net.stats.drops_by_kind == {"slow": {"late": 1}}
        assert [(e.time, e.data) for e in drops] == [
            (6.0, {"src": 2, "dst": 1, "kind": "slow", "reason": "late"})
        ]


#: one step of a network program (see TestAccounting)
_net_step = st.one_of(
    st.tuples(st.just("send"), st.integers(1, 5), st.integers(1, 5)),
    st.tuples(st.just("request"), st.integers(1, 5), st.integers(1, 5)),
    st.tuples(st.just("unregister"), st.integers(1, 5)),
    st.tuples(st.just("partition"), st.integers(1, 5), st.integers(1, 5)),
    st.tuples(st.just("heal"), st.integers(1, 5), st.integers(1, 5)),
    st.tuples(st.just("loss"), st.sampled_from([0.0, 0.3])),
    st.tuples(st.just("kind_loss"), st.sampled_from([0.0, 0.5])),
    st.tuples(st.just("run"), st.sampled_from([0.1, 0.5, 1.5])),
)


class TestAccounting:
    """Every datagram the network accepted ends delivered or dropped for
    one named reason — a reply that outlives its request included."""

    @settings(max_examples=200, deadline=None)
    @given(
        latency=st.sampled_from(
            [ConstantLatency(0.25), ConstantLatency(2.0), UniformLatency(0.1, 2.0)]
        ),
        program=st.lists(_net_step, max_size=30),
        seed=st.integers(0, 3),
    )
    def test_sent_is_delivered_plus_drops(self, latency, program, seed):
        sim, net = make_net(latency=latency, seed=seed)
        for address in (1, 2, 3, 4):  # 5 never registers
            net.register(address, Recorder(network=net, address=address))
        for step in program:
            op, *args = step
            if op == "send":
                net.send(args[0], args[1], "data")
            elif op == "request":
                net.request(args[0], args[1], "ask", timeout=1.0)
            elif op == "unregister":
                net.unregister(args[0])
            elif op == "partition":
                net.partition(*args)
            elif op == "heal":
                net.heal(*args)
            elif op == "loss":
                net.set_loss_rate(args[0])
            elif op == "kind_loss":
                net.set_kind_loss("ask", args[0])
            else:
                sim.run(until=sim.now + args[0])
        sim.run_until_idle()
        stats = net.stats
        assert stats.sent == (
            stats.delivered
            + stats.dropped_dead
            + stats.dropped_loss
            + stats.dropped_partition
            + stats.dropped_late
        )
        per_kind = sum(sum(reasons.values()) for reasons in stats.drops_by_kind.values())
        assert stats.sent == stats.delivered + per_kind
        assert sum(stats.delivered_by_kind.values()) == stats.delivered


class TestTimerOrder:
    """Where a request's timeout sits in the event order: at
    ``(sent + timeout, insertion position of the request)``, exactly
    where a per-request engine timer scheduled by ``request`` sits —
    whether or not each timer is an engine event of its own."""

    def test_timeout_fires_at_its_instant_in_insertion_position(self):
        sim, net = make_net()
        sim.run(until=0.75)
        order = []
        sim.call_at(2.75, order.append, "before")
        future = net.request(1, 99, "ask", timeout=2.0)
        future.add_callback(lambda settled: order.append(("timeout", sim.now)))
        sim.call_at(2.75, order.append, "after")
        sim.run_until_idle()
        assert future.failed
        assert order == ["before", ("timeout", 2.75), "after"]

    def test_timeout_beats_its_own_reply_at_the_same_instant(self):
        # the timer takes its position before the request datagram is
        # sent, so it precedes anything the request causes
        sim, net = make_net(latency=ConstantLatency(1.0))
        net.register(2, Recorder(network=net))
        future = net.request(1, 2, "ask", timeout=2.0)
        sim.run_until_idle()
        assert sim.now == 2.0
        assert future.failed
        assert (net.stats.timeouts, net.stats.delivered) == (1, 1)

    def test_reply_one_tick_before_the_deadline_resolves(self):
        sim, net = make_net(latency=ConstantLatency(1.0))
        net.register(2, Recorder(network=net))
        future = net.request(1, 2, "ask", timeout=2.000001)
        sim.run_until_idle()
        assert future.value == {"echo": None}
        assert net.stats.timeouts == 0

    def test_interleaved_timeout_values_each_expire_on_time(self):
        sim, net = make_net()
        expired = []
        for index, timeout in enumerate([3.0, 1.0, 3.0, 1.0, 0.0]):
            sim.run(until=0.25 * index)
            net.request(1, 99, f"k{index}", timeout=timeout).add_callback(
                lambda settled, index=index: expired.append((index, sim.now))
            )
        sim.run_until_idle()
        assert expired == [(4, 1.0), (1, 1.25), (3, 1.75), (0, 3.0), (2, 3.5)]
        assert net.stats.timeouts == 5

    def test_answered_requests_do_not_delay_a_later_timeout(self):
        sim, net = make_net(latency=ConstantLatency(0.01))
        net.register(2, Recorder(network=net))
        answered = [net.request(1, 2, "ask", timeout=2.0) for _ in range(5)]
        sim.run(until=0.5)
        lost = net.request(1, 99, "ask", timeout=2.0)
        fired = []
        lost.add_callback(lambda settled: fired.append(sim.now))
        sim.run_until_idle()
        assert all(not future.failed for future in answered)
        assert fired == [2.5]
        assert net.stats.timeouts == 1

    def test_retry_issued_from_a_timeout_expires_too(self):
        sim, net = make_net()
        fired = []

        def retry(settled):
            fired.append(sim.now)
            if len(fired) < 3:
                net.request(1, 99, "ask", timeout=2.0).add_callback(retry)

        net.request(1, 99, "ask", timeout=2.0).add_callback(retry)
        sim.run_until_idle()
        assert fired == [2.0, 4.0, 6.0]
        assert sim.events_processed == 6  # three timers, three dead datagrams

    @pytest.mark.parametrize("timeout", [-1.0, float("nan")])
    def test_bad_timeout_rejected(self, timeout):
        _, net = make_net()
        with pytest.raises(ValueError):
            net.request(1, 2, "ask", timeout=timeout)


class TestLatencyModels:
    def test_constant(self):
        model = ConstantLatency(0.2)
        assert model.delay(1, 2, Random(0)) == 0.2
        with pytest.raises(ValueError):
            ConstantLatency(-1)

    def test_uniform_range(self):
        model = UniformLatency(0.1, 0.3)
        rng = Random(0)
        draws = [model.delay(1, 2, rng) for _ in range(100)]
        assert all(0.1 <= d <= 0.3 for d in draws)
        with pytest.raises(ValueError):
            UniformLatency(0.3, 0.1)

    def test_geographic_stable_coordinates(self):
        model = GeographicLatency(jitter=0.0)
        assert model.coordinates(7) == model.coordinates(7)
        assert model.delay(1, 2, Random(0)) == model.delay(1, 2, Random(99))

    def test_geographic_triangleish(self):
        model = GeographicLatency(jitter=0.0, base=0.0)
        # delay is symmetric and zero to itself
        assert model.delay(3, 3, Random(0)) == 0.0
        assert model.delay(1, 2, Random(0)) == model.delay(2, 1, Random(0))

    def test_geographic_torus_distance_bounds(self):
        model = GeographicLatency()
        for a, b in [(1, 2), (3, 4), (100, 200)]:
            assert 0 <= model.distance(a, b) <= (0.5**2 + 0.5**2) ** 0.5
