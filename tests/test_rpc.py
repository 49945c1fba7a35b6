"""RPC endpoints: dispatch, timeouts, retries, typed errors, crashes."""

import pytest

from repro.chaos.health import HealthTracker
from repro.errors import (HostUnreachableError, InvalidRequestError,
                          NoSuchFileError, NoSuchMethodError, RemoteError,
                          RpcTimeout)
from repro.obs.collector import TraceCollector
from repro.rpc import RpcEndpoint, Reply, Request
from repro.rpc.endpoint import reconstruct_error
from repro.sim import Network, RandomStreams, Simulator
from repro.txn.ids import TransactionId
from repro.txn.locks import EXCLUSIVE, SHARED, LockManager
from tests.helpers import wire_message


@pytest.fixture
def pair(sim, network):
    client = RpcEndpoint(sim, network.add_host("client"))
    server = RpcEndpoint(sim, network.add_host("server"))
    return client, server


class TestDispatch:
    def test_plain_handler(self, sim, pair):
        client, server = pair
        server.register("add", lambda x, y: x + y)

        def flow():
            return (yield client.call("server", "add", x=3, y=4))

        assert sim.run_process(flow()) == 7

    def test_generator_handler_with_delay(self, sim, pair):
        client, server = pair

        def slow(text):
            yield sim.timeout(10.0)
            return text.upper()

        server.register("slow", slow)

        def flow():
            result = yield client.call("server", "slow", text="hi")
            return result, sim.now

        result, now = sim.run_process(flow())
        assert result == "HI"
        assert now == 12.0  # 1ms each way + 10ms service

    def test_unknown_method_typed_error(self, sim, pair):
        client, server = pair

        def flow():
            try:
                yield client.call("server", "nope")
            except NoSuchMethodError:
                return "typed"

        assert sim.run_process(flow()) == "typed"

    def test_duplicate_registration_rejected(self, pair):
        _client, server = pair
        server.register("m", lambda: 1)
        with pytest.raises(ValueError):
            server.register("m", lambda: 2)

    def test_remote_repro_error_reconstructed(self, sim, pair):
        client, server = pair

        def failing():
            raise NoSuchFileError("ghost")
            yield  # pragma: no cover

        server.register("fail", failing)

        def flow():
            try:
                yield client.call("server", "fail")
            except NoSuchFileError as exc:
                return str(exc)

        assert sim.run_process(flow()) == "ghost"

    def test_concurrent_handlers_interleave(self, sim, pair):
        client, server = pair

        def slow(tag, delay):
            yield sim.timeout(delay)
            return tag

        server.register("slow", slow)

        def flow():
            first = client.call("server", "slow", tag="a", delay=50.0)
            second = client.call("server", "slow", tag="b", delay=5.0)
            b = yield second
            a = yield first
            return a, b, sim.now

        a, b, now = sim.run_process(flow())
        assert (a, b) == ("a", "b")
        assert now == 52.0  # not serialized behind each other

    def test_payload_isolation(self, sim, pair):
        """Mutating a payload after sending must not affect the server."""
        client, server = pair
        received = []
        server.register("take", lambda items: received.append(items))

        def flow():
            payload = [1, 2, 3]
            event = client.call("server", "take", items=payload)
            payload.append(999)
            yield event

        sim.run_process(flow())
        assert received == [[1, 2, 3]]


class TestTimeoutsAndRetries:
    def test_timeout_on_dead_server(self, sim, pair):
        client, server = pair
        server.host.crash()

        def flow():
            try:
                yield client.call("server", "add", timeout=30.0)
            except RpcTimeout:
                return sim.now

        assert sim.run_process(flow()) == 30.0

    def test_unencodable_call_is_lost_and_times_out(self, sim, network,
                                                   pair):
        # An arg no codec can say never reaches the wire: the sim host
        # drops and counts it, as the live transport does, and the
        # caller sees the same timeout in both runtimes.
        client, server = pair
        server.register("echo", lambda x: x)

        def flow():
            try:
                yield client.call("server", "echo", timeout=30.0, x=object())
            except RpcTimeout:
                return sim.now

        assert sim.run_process(flow()) == 30.0
        assert network.messages_dropped == 1
        assert server.requests_served == 0

    def test_late_reply_after_timeout_dropped(self, sim, pair):
        client, server = pair

        def slow():
            yield sim.timeout(100.0)
            return "late"

        server.register("slow", slow)

        def flow():
            try:
                yield client.call("server", "slow", timeout=10.0)
            except RpcTimeout:
                pass
            yield sim.timeout(200.0)  # late reply arrives harmlessly
            return "done"

        assert sim.run_process(flow()) == "done"

    def test_timeout_none_is_bounded_by_default(self, sim, pair):
        # Regression: call(timeout=None) to a destination that never
        # answers used to strand its _pending entry (and the caller's
        # event) forever.  It now expires at the endpoint's default.
        client, server = pair
        server.host.crash()

        def flow():
            try:
                yield client.call("server", "add", timeout=None, x=1, y=2)
            except RpcTimeout:
                return sim.now

        assert sim.run_process(flow()) == RpcEndpoint.DEFAULT_CALL_TIMEOUT
        assert client._pending == {}

    def test_default_call_timeout_configurable(self, sim, network):
        client = RpcEndpoint(sim, network.add_host("c2"),
                             default_call_timeout=50.0)
        network.add_host("void")

        def flow():
            try:
                yield client.call("void", "ping")
            except RpcTimeout:
                return sim.now

        assert sim.run_process(flow()) == 50.0
        assert client._pending == {}


def sweeps_armed(sim, endpoint):
    """Record the fire time of every deadline sweep ``endpoint`` arms."""
    armed = []
    schedule = sim.schedule

    def counting(delay, callback, *args):
        if callback == endpoint._sweep:
            armed.append(sim.now + delay)
        return schedule(delay, callback, *args)

    sim.schedule = counting
    return armed


class TestDeadlineSweep:
    """One kernel timer per endpoint, armed at the earliest deadline."""

    def test_many_calls_share_the_timers(self, sim, pair):
        client, server = pair
        server.host.crash()
        armed = sweeps_armed(sim, client)
        failed_at = []

        def one():
            try:
                yield client.call("server", "ping", timeout=30.0,
                                  attempts=2)
            except RpcTimeout:
                failed_at.append(sim.now)

        for _ in range(50):
            sim.spawn(one())
        sim.run()
        assert failed_at == [60.0] * 50     # attempts × timeout, exactly
        assert armed == [30.0, 60.0]
        assert client.retransmissions == 50
        assert client._pending == {} and client._sweep_at is None

    def test_short_call_after_a_long_one_expires_on_time(self, sim, pair):
        client, server = pair
        server.host.crash()
        expired = {}

        def one(tag, timeout):
            try:
                yield client.call("server", "ping", timeout=timeout)
            except RpcTimeout:
                expired[tag] = sim.now

        sim.spawn(one("long", 500.0))
        sim.schedule(10.0, lambda: sim.spawn(one("short", 20.0)))
        sim.run()
        assert expired == {"short": 30.0, "long": 500.0}

    def test_retransmission_restarts_the_deadline(self, sim, network, pair):
        client, server = pair
        server.host.crash()
        sent = []
        send = network.send

        def watching_send(source, destination, body):
            if source == "client":
                sent.append((sim.now, wire_message(body).call_id))
            send(source, destination, body)

        network.send = watching_send
        expired = {}

        def one(timeout, attempts):
            event = client.call("server", "ping", timeout=timeout,
                                attempts=attempts)
            try:
                yield event
            except RpcTimeout:
                expired[timeout] = sim.now

        sim.spawn(one(40.0, 3))
        sim.schedule(25.0, lambda: sim.spawn(one(50.0, 2)))
        sim.run()
        # Each deadline counts from that call's latest transmission.
        assert sent == [(0.0, 0), (25.0, 1), (40.0, 0), (75.0, 1),
                        (80.0, 0)]
        assert expired == {40.0: 120.0, 50.0: 125.0}

    def test_no_sweep_rearmed_once_every_call_is_answered(self, sim, pair):
        client, server = pair
        server.register("ping", lambda: "pong")
        armed = sweeps_armed(sim, client)

        def flow():
            for _ in range(5):
                assert (yield client.call("server", "ping",
                                          timeout=100.0)) == "pong"

        sim.run_process(flow())
        sim.run()
        assert armed == [100.0]          # the first call's; nothing since
        assert client._pending == {} and client._sweep_at is None
        assert client.retransmissions == 0

    def test_crash_clears_calls_and_sweep(self, sim, pair):
        client, server = pair
        server.host.crash()
        events = [client.call("server", "ping", timeout=50.0, attempts=3)
                  for _ in range(3)]
        client.host.crash()
        assert client._pending == {} and client._sweep_at is None
        assert all(isinstance(event.value, HostUnreachableError)
                   for event in events)
        client.host.restart()
        sim.run()                        # the stale sweep fires, idle
        assert client.retransmissions == 0 and client._pending == {}


class TestCrashBehaviour:
    def test_client_crash_fails_its_pending_calls(self, sim, pair):
        client, server = pair

        def slow():
            yield sim.timeout(100.0)

        server.register("slow", slow)
        outcome = []

        def flow():
            try:
                yield client.call("server", "slow")
            except HostUnreachableError:
                outcome.append("failed locally")

        sim.spawn(flow())
        sim.schedule(10.0, client.host.crash)
        sim.run()
        assert outcome == ["failed locally"]

    def test_server_crash_kills_in_flight_handlers(self, sim, pair):
        client, server = pair
        progress = []

        def slow():
            progress.append("start")
            yield sim.timeout(100.0)
            progress.append("end")

        server.register("slow", slow)
        sim.schedule(20.0, server.host.crash)

        def flow():
            try:
                yield client.call("server", "slow", timeout=50.0)
            except RpcTimeout:
                return progress

        assert sim.run_process(flow()) == ["start"]
        assert len(server._handler_processes) == 0
        sim.run()
        assert progress == ["start"]  # handler never resumed

    def test_crash_inside_an_inline_step_stops_the_handler(self, sim,
                                                           pair):
        client, server = pair
        progress = []

        def suicidal():
            progress.append("start")
            server.host.crash()
            yield sim.timeout(1.0)
            progress.append("resumed")

        server.register("suicidal", suicidal)
        client.call("server", "suicidal", timeout=50.0)
        sim.run()
        assert progress == ["start"]     # closed, never adopted
        assert server._handler_processes == {}
        assert server._in_progress == set()

    def test_handler_parked_on_a_lock_is_adopted_then_killed(self, sim,
                                                             network):
        collector = TraceCollector(clock=lambda: sim.now)
        client = RpcEndpoint(sim, network.add_host("client"),
                             collector=collector)
        server = RpcEndpoint(sim, network.add_host("server"),
                             collector=collector)
        locks = LockManager(sim)
        locks.acquire(TransactionId("other", 1), "f", EXCLUSIVE)
        progress = []

        def guarded():
            progress.append("start")
            yield locks.acquire(TransactionId("client", 1), "f", SHARED)
            progress.append("granted")

        server.register("guarded", guarded)
        root = collector.start_trace("op")
        event = client.call("server", "guarded", timeout=50.0,
                            trace=root.context)
        sim.run(until=10.0)
        assert progress == ["start"]     # ran inline, then parked
        (process,) = server._handler_processes.values()
        assert process.alive
        server.host.crash()
        assert not process.alive and server._handler_processes == {}
        with pytest.raises(RpcTimeout):
            sim.run_until(event)
        assert progress == ["start"]     # never resumed
        (span,) = [span for span in collector.spans()
                   if span.kind == "server"]
        assert span.error == "handler killed before replying"

    def test_server_restarts_and_serves_again(self, sim, pair):
        client, server = pair
        server.register("ping", lambda: "pong")
        server.host.crash()
        server.host.restart()

        def flow():
            return (yield client.call("server", "ping", timeout=100.0))

        assert sim.run_process(flow()) == "pong"


class TestArgumentBinding:
    """A request whose arguments do not fit its handler is answered
    with a typed failure at once: the handler never runs, nothing is
    left to fail inside the server, and the caller does not wait out
    its retransmissions."""

    def test_unexpected_keyword_on_a_participant(self):
        from repro.testbed import Testbed
        bed = Testbed(servers=["s1"])
        bed.add_client("c")
        client = bed.clients["c"]
        health = HealthTracker(clock=lambda: bed.sim.now)
        health.record_failure("s1")
        client.endpoint.health = health
        event = client.endpoint.call("s1", "txn.stat", timeout=300.0,
                                     attempts=3, txn="c#1", name="f",
                                     bogus=1)
        with pytest.raises(InvalidRequestError, match="bogus"):
            bed.sim.run_until(event)
        assert bed.sim.now == 2.0          # one round trip, no timeout
        assert client.endpoint.retransmissions == 0
        assert health.breaker("s1").consecutive_failures == 0
        participant = bed.servers["s1"].participant
        assert participant._active == {}   # the handler never ran
        bed.sim.run(until=bed.sim.now + 5_000.0)  # no orphan failure

    @pytest.mark.parametrize("args, problem", [
        ({"y": 1}, "missing a required argument: 'x'"),
        ({"x": 1, "y": 2, "z": 3}, "unexpected keyword argument 'z'"),
    ])
    def test_mismatch_is_typed_and_handler_not_run(self, sim, pair, args,
                                                   problem):
        client, server = pair
        ran = []
        server.register("add", lambda x, y: ran.append(1) or x + y)

        def flow():
            try:
                yield client.call("server", "add", **args)
            except InvalidRequestError as exc:
                return str(exc)

        assert problem in sim.run_process(flow())
        assert ran == [] and server.requests_served == 0

    def test_non_mapping_args_refused(self, sim, network, pair):
        # Only a decoded frame can carry this (the sim call API always
        # builds a dict), so deliver the request directly.
        _client, server = pair
        server.register("ping", lambda: "pong")
        replies = []
        send = network.send

        def watching_send(source, destination, body):
            replies.append(wire_message(body))
            send(source, destination, body)

        network.send = watching_send
        server.dispatch_message(Request(call_id=1, source="client",
                                        method="ping", args=[1, 2]))
        sim.run()
        (reply,) = replies
        assert not reply.ok and reply.error_type == "InvalidRequestError"
        assert "mapping" in reply.error_detail

    def test_handler_type_error_is_not_a_bad_request(self, sim, pair):
        # The arguments bind; the TypeError is the handler's own bug and
        # surfaces as one, not as the caller's fault.
        client, server = pair
        server.register("concat", lambda x: x + "!")

        def flow():
            yield client.call("server", "concat", x=1)

        with pytest.raises(RuntimeError, match="unhandled failure"):
            sim.run_process(flow())
        assert server.requests_served == 0

    def test_keyword_catch_all_handlers_accept_anything(self, sim, pair):
        client, server = pair
        server.register("echo", lambda **kwargs: sorted(kwargs))

        def flow():
            return (yield client.call("server", "echo", a=1, b=2))

        assert sim.run_process(flow()) == ["a", "b"]

    def test_check_sees_through_wrappers(self, sim, pair):
        # A decorated handler (functools.wraps) is checked against the
        # function it wraps, not against the wrapper's *args/**kwargs.
        import functools
        client, server = pair

        def add(x, y):
            return x + y

        @functools.wraps(add)
        def wrapped(*args, **kwargs):
            return add(*args, **kwargs)

        server.register("add", wrapped)

        def flow():
            try:
                yield client.call("server", "add", x=1, q=2)
            except InvalidRequestError:
                return "typed"

        assert sim.run_process(flow()) == "typed"


class TestErrorReconstruction:
    def test_known_type(self):
        reply = Reply.failure(1, NoSuchFileError("f"))
        error = reconstruct_error(reply)
        assert isinstance(error, NoSuchFileError)

    def test_unknown_type_becomes_remote_error(self):
        reply = Reply(call_id=1, ok=False, error_type="WeirdError",
                      error_detail="huh")
        error = reconstruct_error(reply)
        assert isinstance(error, RemoteError)
        assert "huh" in str(error)
