"""RPC endpoints: request dispatch and client calls over the datagram net.

An :class:`RpcEndpoint` gives a host both roles:

* **server** — ``register(method, handler)``; handlers may be plain
  functions or generator functions (simulation processes), so a handler
  can perform timed disk I/O or nested RPCs.
* **client** — ``call(destination, method, timeout=..., **args)``
  returns an event that triggers with the reply value or fails with a
  typed error (:class:`~repro.errors.RpcTimeout`,
  :class:`~repro.errors.RemoteError`, ...).

Failure semantics mirror real datagram RPC: requests and replies to
down or partitioned hosts vanish, and the *client-side timeout* is the
only way silence is detected.  A host crash kills the endpoint's server
loop and every in-flight handler process (volatile state is gone), and
fails that host's own outstanding client calls.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, Optional, Tuple

from ..chaos.retry import RetryPolicy
from ..errors import (HostUnreachableError, NoSuchMethodError, RemoteError,
                      ReproError, RpcTimeout)
from ..obs.spans import NOOP_SPAN, TraceContext
from ..sim.events import Event
from ..sim.network import Host
from ..sim.process import Process
from ..sim.queues import QueueClosed
from ..sim.rng import RandomStreams
from .messages import Reply, Request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..chaos.health import HealthTracker
    from ..obs.collector import TraceCollector
    from ..sim.metrics import MetricsRegistry
    from ..sim.simulator import Simulator

#: Known error classes that are re-raised as themselves on the client.
_TYPED_ERRORS: Dict[str, type] = {}


def _register_typed_errors() -> None:
    from .. import errors as errors_module
    for name in dir(errors_module):
        obj = getattr(errors_module, name)
        if isinstance(obj, type) and issubclass(obj, ReproError):
            _TYPED_ERRORS[obj.__name__] = obj


_register_typed_errors()


def reconstruct_error(reply: Reply) -> BaseException:
    """Turn a failure reply back into the most specific exception we can."""
    error_class = _TYPED_ERRORS.get(reply.error_type or "")
    if error_class is not None:
        try:
            return error_class(reply.error_detail)
        except TypeError:
            pass  # exception with a non-str signature: fall through
    return RemoteError(reply.error_type or "unknown", reply.error_detail or "")


class RpcEndpoint:
    """Client+server RPC node bound to one host."""

    #: Deadline applied to ``call(timeout=None)``: without it, a call
    #: whose destination never answers would leave its ``_pending``
    #: entry (and the caller's event) stranded forever.
    DEFAULT_CALL_TIMEOUT = 30_000.0

    def __init__(self, sim: "Simulator", host: Host,
                 copy_payloads: bool = True,
                 default_call_timeout: Optional[float] = None,
                 collector: Optional["TraceCollector"] = None,
                 metrics: Optional["MetricsRegistry"] = None,
                 streams: Optional[RandomStreams] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 health: Optional["HealthTracker"] = None,
                 profiler: Optional[Any] = None) -> None:
        self.sim = sim
        self.host = host
        self.copy_payloads = copy_payloads
        #: Backoff schedule for :meth:`call_with_retries`; jitter draws
        #: come from this endpoint's own named stream so retry timing is
        #: seeded per host.
        self.retry_policy = retry_policy or RetryPolicy()
        self._retry_rng = (streams or RandomStreams(seed=0)).stream(
            f"rpc-retry:{host.name}")
        #: Optional per-destination circuit breakers.  The endpoint only
        #: *feeds* them — any reply (even an error reply) proves the
        #: destination alive; an expired call (every retransmission
        #: unanswered) counts one failure.  Consulting the breakers is
        #: the caller's business (quorum assembly does).
        self.health = health
        #: Observability hooks, both optional: ``collector`` records an
        #: ``rpc.client`` span per traced outbound call and an
        #: ``rpc.server`` span per traced inbound request; ``metrics``
        #: mirrors the endpoint's transport counters and observes
        #: server-side handler latency.
        self.collector = collector
        self.metrics = metrics
        #: Optional :class:`~repro.perf.PhaseProfiler`.  When wired it
        #: aggregates "rpc.roundtrip" (call sent → reply settled),
        #: "rpc.serve" (request received → reply sent) and counts
        #: "rpc.retransmit".  ``_call_started`` only fills while a
        #: profiler is attached, so unprofiled runs pay nothing.
        self.profiler = profiler
        self._call_started: Dict[int, float] = {}
        self.default_call_timeout = (
            self.DEFAULT_CALL_TIMEOUT if default_call_timeout is None
            else default_call_timeout)
        self._handlers: Dict[str, Callable[..., Any]] = {}
        self._pending: Dict[int, Event] = {}
        #: Destination by call id, for attributing outcomes to breakers.
        self._call_destinations: Dict[int, str] = {}
        #: Cancellable retransmission-timer handles by call id (only
        #: populated when the kernel's ``schedule`` returns handles).
        self._retransmit_timers: Dict[int, Any] = {}
        self._next_call_id = 0
        self._handler_processes: Dict[int, Process] = {}
        self._next_handler_key = 0
        # At-most-once execution: remember recent (source, call_id)s.
        # A duplicate of an in-flight request is dropped (the original
        # will reply); a duplicate of a completed one gets the cached
        # reply resent instead of re-running the handler.
        self._in_progress: set[Tuple[str, int]] = set()
        self._completed: "OrderedDict[Tuple[str, int], Reply]" = \
            OrderedDict()
        self._completed_capacity = 1024
        self.duplicates_suppressed = 0
        self.retransmissions = 0
        self._loop: Optional[Process] = None
        self.requests_served = 0
        self.calls_sent = 0
        host.on_crash(self._on_crash)
        host.on_restart(self._on_restart)
        self._start_loop()

    # -- server side -----------------------------------------------------

    def register(self, method: str, handler: Callable[..., Any]) -> None:
        """Register ``handler(**args)`` for ``method``.

        Generator-function handlers run as processes; their return value
        becomes the reply.  Exceptions become failure replies.
        """
        if method in self._handlers:
            raise ValueError(f"duplicate handler for {method!r}")
        self._handlers[method] = handler

    def _start_loop(self) -> None:
        self._loop = self.sim.spawn(self._serve(),
                                    name=f"rpc-loop:{self.host.name}")

    def dispatch_message(self, message: Any) -> None:
        """Dispatch one inbound message without the server-loop hop.

        Live transports call this straight from their socket callbacks.
        It is equivalent to one iteration of ``_serve`` and safe to run
        outside a process: every downstream effect (handler spawn,
        reply-event trigger) defers through ``sim.schedule``, so nothing
        resumes a generator re-entrantly — and each frame saves a queue
        put, an event trigger and a loop resume.
        """
        if isinstance(message, Request):
            self._dispatch_request(message)
        elif isinstance(message, Reply):
            self._dispatch_reply(message)

    def _serve(self):
        while True:
            try:
                message = yield self.host.receive()
            except QueueClosed:
                return
            if isinstance(message, Request):
                self._dispatch_request(message)
            elif isinstance(message, Reply):
                self._dispatch_reply(message)
            # Anything else on the wire is noise; drop it.

    def _dispatch_request(self, request: Request) -> None:
        identity = (request.source, request.call_id)
        if identity in self._in_progress:
            self.duplicates_suppressed += 1
            self._count("rpc.duplicates_suppressed")
            return
        cached = self._completed.get(identity)
        if cached is not None:
            self.duplicates_suppressed += 1
            self._count("rpc.duplicates_suppressed")
            self.host.send(request.source, cached)
            return
        self._in_progress.add(identity)
        span = NOOP_SPAN
        if self.collector is not None and request.trace is not None:
            span = self.collector.start_span(
                f"rpc.{request.method}",
                parent=TraceContext.from_wire(request.trace),
                kind="server", source=request.source,
                call_id=request.call_id)
        key = self._next_handler_key
        self._next_handler_key += 1
        process = self.sim.spawn(
            self._handle(request, key, span),
            name=f"rpc:{self.host.name}:{request.method}#{request.call_id}")
        self._handler_processes[key] = process

    def _handle(self, request: Request, key: int, span=NOOP_SPAN):
        identity = (request.source, request.call_id)
        started = self.sim.now
        reply: Optional[Reply] = None
        try:
            handler = self._handlers.get(request.method)
            if handler is None:
                reply = Reply.failure(
                    request.call_id, NoSuchMethodError(request.method))
            else:
                try:
                    result = handler(**request.args)
                    if hasattr(result, "send"):  # generator handler
                        result = yield from result
                    reply = Reply.success(request.call_id,
                                          self._copy(result))
                    self.requests_served += 1
                    self._count("rpc.requests_served")
                except ReproError as exc:
                    reply = Reply.failure(request.call_id, exc)
            if not request.args.get("release"):
                # A releasing call leaves no state behind, so running a
                # late duplicate of it again is harmless (its reply is
                # dropped as any late reply is): only calls that do
                # leave state need their replies kept, and a read's
                # reply can be the whole file.
                self._remember(identity, reply)
            self.host.send(request.source, reply)
        finally:
            self._in_progress.discard(identity)
            self._handler_processes.pop(key, None)
            if self.metrics is not None:
                self.metrics.histogram("rpc.server_latency").observe(
                    self.sim.now - started)
            if self.profiler is not None:
                self.profiler.observe("rpc.serve", self.sim.now - started)
            if reply is None:
                span.end(error="handler killed before replying")
            elif reply.ok:
                span.end()
            else:
                span.end(error=f"{reply.error_type}: {reply.error_detail}")

    def _remember(self, identity: Tuple[str, int], reply: Reply) -> None:
        self._completed[identity] = reply
        while len(self._completed) > self._completed_capacity:
            self._completed.popitem(last=False)

    # -- client side -------------------------------------------------------

    def call(self, destination: str, method: str,
             timeout: Optional[float] = None, attempts: int = 1,
             trace: Optional[TraceContext] = None,
             **args: Any) -> Event:
        """Send a request; returns an event for the reply.

        ``timeout`` is the per-transmission deadline; ``None`` means
        the endpoint's ``default_call_timeout``, so every pending call
        is bounded — a destination that never answers can no longer
        strand the ``_pending`` entry (and its event) forever.  With
        ``attempts > 1`` the *same* request (same call id) is
        retransmitted on each timeout — safe against re-execution
        because servers run at-most-once (duplicates are suppressed or
        answered from the reply cache).  The event fails with
        :class:`RpcTimeout` only after every transmission has gone
        unanswered, so a single lost datagram costs one timeout, not a
        failed call.

        ``trace`` parents this call into a caller's span: the endpoint
        opens an ``rpc.client`` span (ended when the reply event
        settles) and ships the span's context in the request, so the
        server's handler span joins the same trace.  Retransmissions
        reuse the request and therefore the same span.
        """
        if attempts < 1:
            raise ValueError("attempts must be >= 1")
        if timeout is None:
            timeout = self.default_call_timeout
        call_id = self._next_call_id
        self._next_call_id += 1
        event = self.sim.event(name=f"call:{method}->{destination}")
        self._pending[call_id] = event
        self._call_destinations[call_id] = destination
        if self.profiler is not None:
            self._call_started[call_id] = self.sim.now
        self.calls_sent += 1
        self._count("rpc.calls_sent")
        wire_trace: Optional[Dict[str, str]] = None
        if trace is not None:
            span = NOOP_SPAN
            if self.collector is not None:
                span = self.collector.start_span(
                    f"rpc.{method}", parent=trace, kind="client",
                    destination=destination, call_id=call_id)
            context = span.context if span else trace
            wire_trace = context.to_wire()
            if span:
                event.add_callback(
                    lambda settled, span=span: span.end(
                        error=settled.value if settled.failed else None))
        request = Request(call_id=call_id, source=self.host.name,
                          method=method, args=self._copy(args),
                          trace=wire_trace)
        self.host.send(destination, request)
        self._arm_retransmit(request, destination, timeout, attempts - 1)
        return event

    def _arm_retransmit(self, request: Request, destination: str,
                        timeout: float, remaining: int) -> None:
        # ``schedule`` may return a cancellable handle (the live kernel
        # does; the sim returns None).  Kept so an answered call can
        # cancel its timer instead of leaving it to fire as a no-op —
        # at live throughput those dead timers are real overhead.
        handle = self.sim.schedule(timeout, self._retransmit_or_expire,
                                   request, destination, timeout,
                                   remaining)
        if handle is not None:
            self._retransmit_timers[request.call_id] = handle

    def _disarm_retransmit(self, call_id: int) -> None:
        handle = self._retransmit_timers.pop(call_id, None)
        if handle is not None:
            handle.cancel()

    def _retransmit_or_expire(self, request: Request, destination: str,
                              timeout: float, remaining: int) -> None:
        self._retransmit_timers.pop(request.call_id, None)
        event = self._pending.get(request.call_id)
        if event is None or not event.pending:
            return  # answered meanwhile
        if remaining <= 0 or not self.host.up:
            self._expire(request.call_id, request.method, destination)
            return
        self.retransmissions += 1
        self._count("rpc.retransmissions")
        if self.profiler is not None:
            self.profiler.count("rpc.retransmit")
        self.host.send(destination, request)
        self._arm_retransmit(request, destination, timeout, remaining - 1)

    def call_with_retries(self, destination: str, method: str,
                          timeout: float, attempts: int = 3,
                          backoff: float = 0.0,
                          retry_policy: Optional[RetryPolicy] = None,
                          **args: Any) -> Generator[Any, Any, Any]:
        """Process generator: retry a call up to ``attempts`` times.

        Delays between attempts follow ``retry_policy`` (default: the
        endpoint's policy — exponential with cap and seeded jitter).
        A non-zero ``backoff`` is kept for compatibility and becomes the
        policy's first-step delay, growing exponentially from there
        rather than linearly as it once did.
        """
        policy = retry_policy or self.retry_policy
        if backoff > 0:
            policy = policy.with_base(backoff)
        last_error: Optional[BaseException] = None
        for attempt in range(attempts):
            try:
                result = yield self.call(destination, method,
                                         timeout=timeout, **args)
                return result
            except (RpcTimeout, HostUnreachableError) as exc:
                last_error = exc
                if attempt + 1 < attempts:
                    delay = policy.delay(attempt, self._retry_rng)
                    if delay > 0:
                        yield self.sim.timeout(delay)
        raise last_error or RpcTimeout(f"{method} -> {destination}")

    def _expire(self, call_id: int, method: str, destination: str) -> None:
        self._disarm_retransmit(call_id)
        self._call_destinations.pop(call_id, None)
        self._call_started.pop(call_id, None)
        event = self._pending.pop(call_id, None)
        if event is not None and event.pending:
            self._count("rpc.timeouts")
            if self.health is not None:
                self.health.record_failure(destination)
            event.fail(RpcTimeout(
                f"{method} -> {destination}: no reply"))

    def _dispatch_reply(self, reply: Reply) -> None:
        destination = self._call_destinations.pop(reply.call_id, None)
        event = self._pending.pop(reply.call_id, None)
        if event is None or not event.pending:
            self._call_started.pop(reply.call_id, None)
            return  # late reply after timeout: drop
        self._disarm_retransmit(reply.call_id)
        if self.profiler is not None:
            sent_at = self._call_started.pop(reply.call_id, None)
            if sent_at is not None:
                self.profiler.observe("rpc.roundtrip",
                                      self.sim.now - sent_at)
        if self.health is not None and destination is not None:
            # Any reply — even a failure reply — proves the peer alive.
            self.health.record_success(destination)
        if reply.ok:
            event.trigger(reply.value)
        else:
            event.fail(reconstruct_error(reply))

    # -- crash plumbing ------------------------------------------------------

    def _on_crash(self) -> None:
        if self._loop is not None:
            self._loop.kill()
            self._loop = None
        for process in list(self._handler_processes.values()):
            process.kill()
        self._handler_processes.clear()
        self._in_progress.clear()
        self._completed.clear()
        timers, self._retransmit_timers = self._retransmit_timers, {}
        for handle in timers.values():
            handle.cancel()
        # A local crash says nothing about peers' health: drop the
        # attributions rather than charge breakers for our own outage.
        self._call_destinations.clear()
        self._call_started.clear()
        pending, self._pending = self._pending, {}
        for event in pending.values():
            if event.pending:
                event.fail(HostUnreachableError(
                    f"local host {self.host.name} crashed mid-call"))

    def _on_restart(self) -> None:
        self._start_loop()

    # -- internals -------------------------------------------------------------

    def _copy(self, value: Any) -> Any:
        if not self.copy_payloads:
            return value
        return copy.deepcopy(value)

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).increment()
