"""Events, timeouts and the composite condition."""

import pytest

from repro.errors import SimulationError
from repro.sim import AllOf, Simulator


class TestEvent:
    def test_starts_pending(self, sim):
        event = sim.event()
        assert event.pending
        assert not event.settled

    def test_trigger_sets_value(self, sim):
        event = sim.event()
        event.trigger(42)
        assert event.triggered
        assert event.value == 42

    def test_fail_stores_exception(self, sim):
        event = sim.event()
        error = ValueError("boom")
        event.fail(error)
        assert event.failed
        assert event.value is error

    def test_double_trigger_rejected(self, sim):
        event = sim.event()
        event.trigger(1)
        with pytest.raises(RuntimeError):
            event.trigger(2)

    def test_trigger_after_fail_rejected(self, sim):
        event = sim.event()
        event.fail(ValueError())
        with pytest.raises(RuntimeError):
            event.trigger(1)

    def test_fail_requires_exception(self, sim):
        event = sim.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_callback_runs_via_event_loop(self, sim):
        event = sim.event()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        event.trigger("x")
        assert seen == []  # not synchronous
        sim.run()
        assert seen == ["x"]

    def test_callback_on_settled_event_still_fires(self, sim):
        event = sim.event()
        event.trigger(7)
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == [7]


class TestTimeout:
    def test_fires_at_deadline(self, sim):
        timeout = sim.timeout(5.0, value="done")
        sim.run()
        assert sim.now == 5.0
        assert timeout.value == "done"

    def test_zero_delay(self, sim):
        timeout = sim.timeout(0.0)
        sim.run()
        assert timeout.triggered
        assert sim.now == 0.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1.0)

    def test_timeouts_fire_in_order(self, sim):
        order = []
        for delay in (3.0, 1.0, 2.0):
            sim.timeout(delay).add_callback(
                lambda e, d=delay: order.append(d))
        sim.run()
        assert order == [1.0, 2.0, 3.0]

    def test_equal_deadlines_fire_in_creation_order(self, sim):
        order = []
        for tag in "abc":
            sim.timeout(1.0).add_callback(lambda e, t=tag: order.append(t))
        sim.run()
        assert order == ["a", "b", "c"]


class TestAllOf:
    def test_waits_for_all(self, sim):
        events = [sim.timeout(d, d) for d in (1.0, 3.0, 2.0)]
        condition = sim.all_of(events)
        values = sim.run_until(condition)
        assert values == [1.0, 3.0, 2.0]  # construction order
        assert sim.now == 3.0

    def test_empty_triggers_immediately(self, sim):
        condition = sim.all_of([])
        assert condition.triggered
        assert condition.value == []

    def test_single_failure_fails_all(self, sim):
        ok = sim.timeout(1.0)
        bad = sim.event()
        condition = sim.all_of([ok, bad])
        sim.schedule(2.0, lambda: bad.fail(KeyError("nope")))
        with pytest.raises(KeyError):
            sim.run_until(condition)

    def test_nested_conditions(self, sim):
        inner = sim.all_of([sim.timeout(2.0, "i")])
        outer = sim.all_of([inner, sim.timeout(1.0, "o")])
        values = sim.run_until(outer)
        assert values == [["i"], "o"]
        assert sim.now == 2.0
