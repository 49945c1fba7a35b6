"""Vote gathering over reply events."""

import pytest

from repro.core import gather_until
from repro.sim import Simulator


class TestGatherUntil:
    def test_stops_at_threshold(self, sim):
        calls = {f"k{i}": sim.timeout(float(i), value=i) for i in range(5)}
        votes = {f"k{i}": 1 for i in range(5)}

        def flow():
            result = yield from gather_until(
                sim, calls,
                lambda g: sum(votes[key] for key in g.successes) >= 2)
            return result

        result = sim.run_process(flow())
        assert result.satisfied
        assert len(result.successes) == 2
        assert sim.now == 1.0  # k0 at t=0, k1 at t=1

    def test_failures_collected_not_raised(self, sim):
        ok = sim.timeout(1.0, "fine")
        bad = sim.event()
        bad.fail(RuntimeError("down"))
        calls = {"good": ok, "bad": bad}

        def flow():
            result = yield from gather_until(
                sim, calls, lambda g: len(g.successes) >= 1)
            return result

        result = sim.run_process(flow())
        assert result.satisfied
        assert "good" in result.successes or "bad" in result.failures

    def test_unsatisfied_when_replies_run_out(self, sim):
        bad1, bad2 = sim.event(), sim.event()
        bad1.fail(ValueError("a"))
        bad2.fail(ValueError("b"))

        def flow():
            result = yield from gather_until(
                sim, {"x": bad1, "y": bad2},
                lambda g: len(g.successes) >= 1)
            return result

        result = sim.run_process(flow())
        assert not result.satisfied
        assert set(result.failures) == {"x", "y"}

    def test_empty_calls_with_trivial_predicate(self, sim):
        def flow():
            result = yield from gather_until(sim, {}, lambda g: True)
            return result

        assert sim.run_process(flow()).satisfied

    def test_empty_calls_unsatisfiable(self, sim):
        def flow():
            result = yield from gather_until(sim, {}, lambda g: False)
            return result

        assert not sim.run_process(flow()).satisfied

    def test_weighted_predicate(self, sim):
        calls = {
            "heavy": sim.timeout(5.0, "h"),
            "light1": sim.timeout(1.0, "l1"),
            "light2": sim.timeout(2.0, "l2"),
        }
        weights = {"heavy": 2, "light1": 1, "light2": 1}

        def flow():
            result = yield from gather_until(
                sim, calls,
                lambda g: sum(weights[key] for key in g.successes) >= 2)
            return result

        result = sim.run_process(flow())
        # The two light responders arrive first and already hold 2 votes.
        assert set(result.successes) == {"light1", "light2"}
        assert sim.now == 2.0

    def test_late_events_left_pending(self, sim):
        slow = sim.timeout(100.0, "slow")
        fast = sim.timeout(1.0, "fast")

        def flow():
            result = yield from gather_until(
                sim, {"s": slow, "f": fast},
                lambda g: len(g.successes) >= 1)
            return sim.now, result

        now, result = sim.run_process(flow())
        assert now == 1.0
        assert "s" not in result.successes
        sim.run()
        assert slow.triggered  # still settles afterwards, harmlessly


class TestDeadline:
    """A predicate may answer with a time: keep waiting, but wake then
    and ask again."""

    def test_deadline_wakes_the_gather_without_a_reply(self, sim):
        calls = {"fast": sim.timeout(1.0, "f"),
                 "slow": sim.timeout(100.0, "s")}
        asked = []

        def enough(gathered):
            asked.append(sim.now)
            if "slow" in gathered.successes or sim.now >= 5.0:
                return True
            return 5.0 if gathered.successes else False

        def flow():
            result = yield from gather_until(sim, calls, enough)
            return result

        result = sim.run_process(flow())
        assert result.satisfied and sim.now == 5.0
        # Closed by the timer, not by a reply: no closer, and the slow
        # reply never entered the order.
        assert result.closed_by is None
        assert [key for key, _at, _ok in result.order] == ["fast"]
        assert asked == [0.0, 1.0, 5.0]

    def test_reply_before_the_deadline_closes_first(self, sim):
        calls = {"fast": sim.timeout(1.0, "f"),
                 "slow": sim.timeout(3.0, "s")}

        def flow():
            result = yield from gather_until(
                sim, calls,
                lambda g: len(g.successes) == 2 or (
                    sim.now >= 5.0 or (5.0 if g.successes else False)))
            return result

        result = sim.run_process(flow())
        assert result.closed_by == "slow" and sim.now == 3.0
        sim.run()                      # the stale timer fires harmlessly
        assert sim.now == 5.0

    def test_past_deadline_waits_for_the_next_reply(self, sim):
        # A time not ahead of now is no deadline: the gather does not
        # spin on it, it waits for the next reply.
        calls = {"a": sim.timeout(1.0, "a"), "b": sim.timeout(4.0, "b")}

        def flow():
            result = yield from gather_until(
                sim, calls, lambda g: len(g.successes) == 2 or 0.5)
            return result

        result = sim.run_process(flow())
        assert result.closed_by == "b" and sim.now == 4.0


class TestSettleOrder:
    def test_order_records_every_settle_with_time(self, sim):
        calls = {f"k{i}": sim.timeout(float(i), value=i)
                 for i in range(3)}

        def flow():
            result = yield from gather_until(
                sim, calls, lambda g: len(g.successes) >= 3)
            return result

        result = sim.run_process(flow())
        assert [(key, at) for key, at, _ok in result.order] == \
            [("k0", 0.0), ("k1", 1.0), ("k2", 2.0)]
        assert all(ok for _key, _at, ok in result.order)

    def test_closed_by_is_the_reply_that_satisfied(self, sim):
        calls = {f"k{i}": sim.timeout(float(i), value=i)
                 for i in range(4)}

        def flow():
            result = yield from gather_until(
                sim, calls, lambda g: len(g.successes) >= 2)
            return result

        result = sim.run_process(flow())
        assert result.closed_by == "k1"
        # Replies after the close never enter the order.
        assert [key for key, _at, _ok in result.order] == ["k0", "k1"]

    def test_failures_appear_in_order_with_ok_false(self, sim):
        bad = sim.event()
        bad.fail(RuntimeError("down"))
        ok = sim.timeout(2.0, "fine")

        def flow():
            result = yield from gather_until(
                sim, {"bad": bad, "good": ok},
                lambda g: len(g.successes) >= 1)
            return result

        result = sim.run_process(flow())
        flags = dict((key, ok_flag)
                     for key, _at, ok_flag in result.order)
        assert flags["bad"] is False
        assert flags["good"] is True
        assert result.closed_by == "good"

    def test_same_instant_settles_consumed_in_arrival_order(self, sim):
        # Three replies land at t=1, in an order unlike the call order:
        # the gather sees them in the order they arrived.
        calls = {key: sim.event() for key in ("a", "b", "c")}

        def replies():
            yield sim.timeout(1.0)
            for key in ("c", "a", "b"):
                calls[key].trigger(key)

        def flow():
            result = yield from gather_until(
                sim, calls, lambda g: len(g.successes) >= 3)
            return result

        sim.spawn(replies())
        result = sim.run_process(flow())
        assert [(key, at) for key, at, _ok in result.order] == \
            [("c", 1.0), ("a", 1.0), ("b", 1.0)]
        assert result.closed_by == "b"

    def test_already_settled_replies_consumed_in_call_order(self, sim):
        # Replies that settled before the gather began have no settle
        # order to keep: the call order breaks the tie.
        calls = {key: sim.event() for key in ("b", "a", "c")}
        for key in ("c", "a", "b"):
            calls[key].trigger(key)

        def flow():
            result = yield from gather_until(
                sim, calls, lambda g: len(g.successes) >= 3)
            return result

        result = sim.run_process(flow())
        assert [key for key, _at, _ok in result.order] == ["b", "a", "c"]

    def test_unsatisfied_gather_has_no_closer(self, sim):
        bad = sim.event()
        bad.fail(ValueError("a"))

        def flow():
            result = yield from gather_until(
                sim, {"x": bad}, lambda g: len(g.successes) >= 1)
            return result

        result = sim.run_process(flow())
        assert not result.satisfied
        assert result.closed_by is None
        assert [key for key, _at, _ok in result.order] == ["x"]


def _forbid(*_args, **_kwargs):
    raise AssertionError("the gather must not spawn a process")


class TestNoProcessPerCall:
    """The gather runs inside its caller: one callback per reply, one
    event to park on, no process and no composite event of its own."""

    def test_never_spawns_nor_builds_any_of(self, sim):
        calls = {f"k{i}": sim.timeout(float(i), value=i) for i in range(4)}
        bad = sim.event()
        calls["bad"] = bad

        def flow():
            result = yield from gather_until(
                sim, calls,
                lambda g: len(g.successes) + len(g.failures) >= 5)
            return result

        process = sim.spawn(flow())
        sim.spawn = _forbid
        bad.fail(RuntimeError("down"))
        result = sim.run_until(process)
        assert result.satisfied and set(result.failures) == {"bad"}

    def test_pre_satisfied_predicate_registers_nothing(self, sim):
        calls = {"a": sim.event(), "b": sim.timeout(5.0, "b")}
        sim.spawn = _forbid
        queued = len(sim._queue)
        gather = gather_until(sim, calls, lambda g: True)
        with pytest.raises(StopIteration) as stop:
            next(gather)
        assert stop.value.value.satisfied
        assert stop.value.value.order == []
        assert all(event._callbacks == [] for event in calls.values())
        assert len(sim._queue) == queued

    def test_reply_reaches_the_predicate_in_two_hops(self, sim):
        # Reply settles -> its callback queues the arrival and wakes the
        # gather -> the caller resumes and checks the quorum.  Two
        # scheduled callbacks, where a process per call plus a first-of
        # composite event per arrival took three.
        reply = sim.event()
        hops = []

        def enough(gathered):
            if gathered.successes:
                hops.append(sim._sequence - before[0])
            return bool(gathered.successes)

        def flow():
            result = yield from gather_until(sim, {"k": reply}, enough)
            return result

        process = sim.spawn(flow())
        sim.run()                      # parked on its wake event
        before = [sim._sequence]
        reply.trigger("v")
        assert sim.run_until(process).closed_by == "k"
        assert hops == [2]

    def test_failure_after_close_is_harmless(self, sim):
        fast = sim.timeout(1.0, "fast")
        late = sim.event()

        def fail_late():
            yield sim.timeout(10.0)
            late.fail(RuntimeError("late and broken"))

        def flow():
            result = yield from gather_until(
                sim, {"fast": fast, "late": late},
                lambda g: len(g.successes) >= 1)
            return result

        sim.spawn(fail_late())
        result = sim.run_process(flow())
        sim.run()                      # no orphan failure surfaces
        assert late.failed and sim.now == 10.0
        assert result.closed_by == "fast"
        assert list(result.failures) == []
        assert [key for key, _at, _ok in result.order] == ["fast"]

    def test_killed_gather_ignores_later_replies(self, sim):
        reply = sim.event()

        def flow():
            yield from gather_until(sim, {"k": reply},
                                    lambda g: bool(g.successes))
            return "finished"

        process = sim.spawn(flow())
        sim.run()
        process.kill()
        reply.trigger("late")
        sim.run()
        assert process.failed and not process.alive
