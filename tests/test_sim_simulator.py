"""Simulator scheduling, determinism and run control."""

import pytest

from repro.rpc.messages import Reply
from repro.sim import Simulator


class TestScheduling:
    def test_now_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_callbacks_run_at_scheduled_time(self, sim):
        times = []
        sim.schedule(3.0, lambda: times.append(sim.now))
        sim.schedule(1.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.0, 3.0]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_callback_args_passed(self, sim):
        seen = []
        sim.schedule(1.0, seen.append, "value")
        sim.run()
        assert seen == ["value"]

    def test_run_until_time_limit(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(10.0, fired.append, 10)
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 10]

    def test_max_steps(self, sim):
        for i in range(10):
            sim.schedule(float(i), lambda: None)
        sim.run(max_steps=4)
        assert sim.now == 3.0

    def test_nested_scheduling(self, sim):
        order = []

        def outer():
            order.append("outer")
            sim.schedule(1.0, inner)

        def inner():
            order.append("inner")

        sim.schedule(1.0, outer)
        sim.run()
        assert order == ["outer", "inner"]
        assert sim.now == 2.0

    def test_not_reentrant(self, sim):
        def recurse():
            sim.run()

        sim.schedule(1.0, recurse)
        with pytest.raises(RuntimeError, match="reentrant"):
            sim.run()


class TestRunUntil:
    def test_returns_event_value(self, sim):
        event = sim.event()
        sim.schedule(2.0, event.trigger, "done")
        assert sim.run_until(event) == "done"
        assert sim.now == 2.0

    def test_raises_event_failure(self, sim):
        event = sim.event()
        sim.schedule(1.0, event.fail, IndexError("bad"))
        with pytest.raises(IndexError):
            sim.run_until(event)

    def test_drained_queue_without_settle_raises(self, sim):
        with pytest.raises(RuntimeError, match="never settled"):
            sim.run_until(sim.event())

    def test_limit_guards_livelock(self, sim):
        def forever(sim):
            while True:
                yield sim.timeout(1.0)

        sim.spawn(forever(sim))
        with pytest.raises(RuntimeError, match="did not settle"):
            sim.run_until(sim.event(), limit=50.0)


class TestDeterminism:
    def build_and_run(self, seed):
        from repro.chaos import ChaosPolicy
        from repro.sim import Network, RandomStreams

        sim = Simulator()
        streams = RandomStreams(seed=seed)
        network = Network(sim, streams, default_latency=1.0)
        network.chaos = ChaosPolicy(streams=streams, drop_probability=0.2)
        a = network.add_host("a")
        b = network.add_host("b")
        received = []
        b.dispatch = lambda message: received.append((sim.now, message))

        def sender(host):
            for i in range(50):
                host.send("b", Reply.success(i, i))
                yield sim.timeout(1.0)

        sim.spawn(sender(a))
        sim.run(until=100.0)
        return received

    def test_same_seed_same_history(self):
        assert self.build_and_run(5) == self.build_and_run(5)

    def test_different_seed_different_history(self):
        # With 20% loss the delivered sets should differ.
        assert self.build_and_run(5) != self.build_and_run(6)
