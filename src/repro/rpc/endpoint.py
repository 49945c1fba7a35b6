"""RPC endpoints: request dispatch and client calls over the datagram net.

An :class:`RpcEndpoint` gives a host both roles:

* **server** — ``register(method, handler)``; a handler is a plain
  function or a generator function that may wait on events (timed disk
  I/O, a lock, a nested RPC).  It runs inline as its request arrives
  and replies as it returns; only one that waits on a pending event
  becomes a process.
* **client** — ``call(destination, method, timeout=..., **args)``
  returns an event that triggers with the reply value or fails with a
  typed error (:class:`~repro.errors.RpcTimeout`,
  :class:`~repro.errors.RemoteError`, ...).  One kernel timer per
  endpoint, armed at the earliest pending deadline, retransmits and
  expires calls.

Failure semantics mirror real datagram RPC: requests and replies to
down or partitioned hosts vanish, and the *client-side timeout* is the
only way silence is detected.  A host crash kills every handler process
(volatile state is gone), and fails that host's own outstanding client
calls.
"""

from __future__ import annotations

import inspect
from collections import OrderedDict
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional,
                    Tuple)

from ..errors import (HostUnreachableError, InvalidRequestError,
                      NoSuchMethodError, RemoteError, ReproError, RpcTimeout)
from ..obs.spans import NOOP_SPAN, TraceContext
from ..sim.events import Event
from ..sim.process import Process, step_until_pending
from .messages import Reply, Request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..chaos.health import HealthTracker
    from ..obs.collector import TraceCollector
    from ..sim.metrics import MetricsRegistry
    from ..sim.network import Host
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


def _signature(handler: Callable[..., Any]) -> Optional[inspect.Signature]:
    """``handler``'s signature, or None when it has none to inspect."""
    try:
        return inspect.signature(handler)
    except (TypeError, ValueError):
        return None


def _binding_problem(signature: Optional[inspect.Signature],
                     args: Any) -> Optional[str]:
    """Why ``handler(**args)`` cannot bind, or None when it can."""
    if not isinstance(args, Mapping):
        return f"arguments must be a mapping, not {type(args).__name__}"
    if signature is not None:
        try:
            signature.bind(**args)
        except TypeError as exc:
            return str(exc)
    return None


def reconstruct_error(reply: Reply) -> BaseException:
    """Turn a failure reply back into the most specific exception we can."""
    error_class = _TYPED_ERRORS.get(reply.error_type or "")
    if error_class is not None:
        try:
            return error_class(reply.error_detail)
        except TypeError:
            pass  # exception with a non-str signature: fall through
    return RemoteError(reply.error_type or "unknown", reply.error_detail or "")


@dataclass(slots=True)
class _Call:
    """An outstanding client call and when it next times out."""

    event: Event
    request: Request
    destination: str
    timeout: float
    remaining: int  # retransmissions left before the call expires
    deadline: float
    span: Any  # NOOP_SPAN when the call is not traced


def _settle(call: _Call, value: Any = None,
            error: Optional[BaseException] = None) -> None:
    """End ``call``'s span and settle its event."""
    call.span.end(error=error)
    if error is None:
        call.event.trigger(value)
    else:
        call.event.fail(error)


class RpcEndpoint:
    """Client+server RPC node bound to one host."""

    #: Deadline applied to ``call(timeout=None)``: without it, a call
    #: whose destination never answers would leave its ``_pending``
    #: entry (and the caller's event) stranded forever.
    DEFAULT_CALL_TIMEOUT = 30_000.0

    def __init__(self, sim: "Simulator", host: "Host",
                 default_call_timeout: Optional[float] = None,
                 collector: Optional["TraceCollector"] = None,
                 metrics: Optional["MetricsRegistry"] = None,
                 health: Optional["HealthTracker"] = None) -> None:
        self.sim = sim
        self.host = host
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
        self.default_call_timeout = (
            self.DEFAULT_CALL_TIMEOUT if default_call_timeout is None
            else default_call_timeout)
        #: method -> (handler, its signature).
        self._handlers: Dict[str, Tuple[Callable[..., Any],
                                        Optional[inspect.Signature]]] = {}
        self._pending: Dict[int, _Call] = {}
        #: When the armed deadline sweep fires; None while none is armed.
        #: Never later than the earliest pending deadline.
        self._sweep_at: Optional[float] = None
        self._next_call_id = 0
        #: Handlers that suspended, by request identity.
        self._handler_processes: Dict[Tuple[str, int], Process] = {}
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
        self.requests_served = 0
        self.calls_sent = 0
        self._host_up: Callable[[], bool] = lambda: host.up
        host.on_crash(self._on_crash)
        host.dispatch = self.dispatch_message

    # -- server side -----------------------------------------------------

    def register(self, method: str, handler: Callable[..., Any]) -> None:
        """Register ``handler(**args)`` for ``method``.

        A generator-function handler may wait on events; its return
        value becomes the reply.  Library exceptions become failure
        replies, and so does a request whose arguments do not bind to the
        handler's signature (:class:`InvalidRequestError`: the call is
        refused before any handler code runs).  The signature is
        inspected here, once; it is consulted only for a call that
        raised ``TypeError``.
        """
        if method in self._handlers:
            raise ValueError(f"duplicate handler for {method!r}")
        self._handlers[method] = (handler, _signature(handler))

    def dispatch_message(self, message: Any) -> None:
        """Dispatch one inbound message; the host's delivery calls this.

        A request's handler runs right here (see
        :meth:`_dispatch_request`); a reply settles its call's event.
        Anything else on the wire is noise and is dropped.
        """
        if isinstance(message, Request):
            self._dispatch_request(message)
        elif isinstance(message, Reply):
            self._dispatch_reply(message)

    def _dispatch_request(self, request: Request) -> None:
        identity = (request.source, request.call_id)
        cached = self._completed.get(identity)
        if cached is not None or identity in self._in_progress:
            self.duplicates_suppressed += 1
            self._count("rpc.duplicates_suppressed")
            if cached is not None:
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
        # Drive the handler right here; it becomes a process only when
        # it has to wait.
        handler = self._handle(request, span)
        try:
            target = step_until_pending(self.sim, handler, None, None,
                                        self._host_up)
        except StopIteration:
            return
        except BaseException as exc:  # noqa: BLE001 - the handler's bug
            # Surfaced by the kernel, as from a process nobody joins.
            handler.close()
            self.sim.note_orphan_failure(self._name(request), exc)
            return
        if target is None:
            handler.close()  # the step crashed the host: never resume
        else:
            self._handler_processes[identity] = Process(
                self.sim, handler, name=self._name(request),
                waiting_on=target)

    def _name(self, request: Request) -> str:
        return f"rpc:{self.host.name}:{request.method}#{request.call_id}"

    def _handle(self, request: Request, span=NOOP_SPAN):
        identity = (request.source, request.call_id)
        started = self.sim.now
        reply: Optional[Reply] = None
        args = request.args
        try:
            entry = self._handlers.get(request.method)
            if entry is None:
                reply = Reply.failure(
                    request.call_id, NoSuchMethodError(request.method))
            else:
                try:
                    try:
                        result = entry[0](**args)
                    except TypeError:
                        # Python binds the arguments before any handler
                        # code runs, so a call that does not bind ran
                        # nothing: answer it.  Binding only on this path
                        # keeps well-formed requests free of the check.
                        problem = _binding_problem(entry[1], args)
                        if problem is None:
                            raise                # the handler's own bug
                        raise InvalidRequestError(
                            f"{request.method}: {problem}") from None
                    if hasattr(result, "send"):  # generator handler
                        result = yield from result
                    reply = Reply.success(request.call_id, result)
                    self.requests_served += 1
                    self._count("rpc.requests_served")
                except ReproError as exc:
                    reply = Reply.failure(request.call_id, exc)
            if type(args) is not dict or not args.get("release"):
                # A releasing call leaves no state behind, so running a
                # late duplicate of it again is harmless (its reply is
                # dropped as any late reply is): only calls that do
                # leave state need their replies kept, and a read's
                # reply can be the whole file.
                self._completed[identity] = reply
                while len(self._completed) > self._completed_capacity:
                    self._completed.popitem(last=False)
            self.host.send(request.source, reply)
        finally:
            self._in_progress.discard(identity)
            self._handler_processes.pop(identity, None)
            if self.metrics is not None:
                self.metrics.histogram("rpc.server_latency").observe(
                    self.sim.now - started)
            if reply is None:
                span.end(error="handler killed before replying")
            elif reply.ok:
                span.end()
            else:
                span.end(error=f"{reply.error_type}: {reply.error_detail}")

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
        opens an ``rpc.client`` span (ended when the call settles) and
        ships the span's context in the request, so the server's
        handler span joins the same trace.  Retransmissions reuse the
        request and therefore the same span.
        """
        if attempts < 1:
            raise ValueError("attempts must be >= 1")
        if timeout is None:
            timeout = self.default_call_timeout
        call_id = self._next_call_id
        self._next_call_id += 1
        event = self.sim.event(name=f"call:{method}->{destination}")
        self.calls_sent += 1
        self._count("rpc.calls_sent")
        wire_trace: Optional[Dict[str, str]] = None
        span = NOOP_SPAN
        if trace is not None:
            if self.collector is not None:
                span = self.collector.start_span(
                    f"rpc.{method}", parent=trace, kind="client",
                    destination=destination, call_id=call_id)
            context = span.context if span else trace
            wire_trace = context.to_wire()
        request = Request(call_id=call_id, source=self.host.name,
                          method=method, args=args,
                          trace=wire_trace)
        deadline = self.sim.now + timeout
        self._pending[call_id] = _Call(event, request, destination, timeout,
                                       attempts - 1, deadline, span)
        self.host.send(destination, request)
        if self._sweep_at is None or deadline < self._sweep_at:
            self._sweep_at = deadline
            self.sim.schedule(timeout, self._sweep, deadline)
        return event

    def _sweep(self, at: float) -> None:
        """Retransmit or expire every call whose deadline is ``at`` or
        earlier, then re-arm at the earliest deadline left, if any."""
        if at != self._sweep_at:
            return  # superseded by an earlier sweep, or by a crash
        self._sweep_at = None
        for call_id, call in [item for item in self._pending.items()
                              if item[1].deadline <= at]:
            if call.remaining <= 0 or not self.host.up:
                self._expire(call_id, call)
                continue
            call.remaining -= 1
            call.deadline = at + call.timeout
            self.retransmissions += 1
            self._count("rpc.retransmissions")
            self.host.send(call.destination, call.request)
        if self._pending:
            deadline = min(call.deadline for call in self._pending.values())
            self._sweep_at = deadline
            self.sim.schedule(max(0.0, deadline - self.sim.now),
                              self._sweep, deadline)

    def _expire(self, call_id: int, call: _Call) -> None:
        del self._pending[call_id]
        self._count("rpc.timeouts")
        if self.health is not None:
            self.health.record_failure(call.destination)
        _settle(call, error=RpcTimeout(
            f"{call.request.method} -> {call.destination}: no reply"))

    def _dispatch_reply(self, reply: Reply) -> None:
        call = self._pending.pop(reply.call_id, None)
        if call is None:
            return  # late reply after timeout: drop
        if self.health is not None:
            # Any reply — even a failure reply — proves the peer alive.
            self.health.record_success(call.destination)
        if reply.ok:
            _settle(call, reply.value)
        else:
            _settle(call, error=reconstruct_error(reply))

    # -- crash plumbing ------------------------------------------------------

    def _on_crash(self) -> None:
        for process in list(self._handler_processes.values()):
            process.kill()
        self._handler_processes.clear()
        self._in_progress.clear()
        self._completed.clear()
        # A local crash says nothing about peers' health: fail the calls
        # without charging any breaker for our own outage.
        pending, self._pending = self._pending, {}
        self._sweep_at = None
        for call in pending.values():
            _settle(call, error=HostUnreachableError(
                f"local host {self.host.name} crashed mid-call"))

    # -- internals -------------------------------------------------------------

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).increment()
