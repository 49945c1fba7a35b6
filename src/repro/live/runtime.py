"""The live runtime: the sim's protocol code on a real asyncio clock.

The whole protocol stack — :class:`~repro.rpc.endpoint.RpcEndpoint`,
:class:`~repro.txn.coordinator.TransactionManager`,
:class:`~repro.txn.participant.TransactionParticipant`,
:class:`~repro.core.suite.FileSuiteClient` — is written as generator
processes that ``yield`` :class:`~repro.sim.events.Event` objects and
interact with the world through exactly two kernel primitives:
``sim.schedule(delay, callback)`` and ``sim.now``.  That narrow waist
is the whole trick of this module:

* :class:`LiveKernel` subclasses :class:`~repro.sim.simulator.Simulator`
  but maps ``schedule`` onto ``loop.call_soon`` / ``loop.call_later``
  and ``now`` onto the event loop's monotonic clock (in milliseconds,
  the sim's time unit).  Every event, timeout, process, queue and
  resource then runs unmodified in wall-clock time.
* :class:`LiveHost` *is* a simulated :class:`~repro.sim.network.Host`
  (same up/down state, same crash and restart listeners) whose wire is
  a :class:`~repro.live.transport.TransportNode`, so ``RpcEndpoint`` —
  timeouts, retransmission, at-most-once dedup and all — *is* the live
  RPC layer, not a re-implementation of it.
* :class:`LiveRuntime` is the client: the
  :meth:`~repro.testbed.ClientNode.build` node the testbed gives each
  sim client, on a live kernel and host, whose :meth:`LiveRuntime.run`
  turns any protocol generator into an awaitable, bridging kernel
  processes to asyncio futures.

One protocol implementation and one node assembly, two schedulers:
discrete-event for deterministic study, asyncio for real sockets.
"""

from __future__ import annotations

import asyncio
import logging
import uuid
from collections import deque
from typing import Any, Callable, Deque, Generator, List, Optional, Tuple

from ..core.suite import FileSuiteClient, install_suite
from ..core.votes import SuiteConfiguration
from ..obs.collector import TraceCollector
from ..sim.metrics import MetricsRegistry
from ..sim.network import Host
from ..sim.rng import RandomStreams
from ..sim.simulator import Simulator
from ..testbed import ClientNode
from .transport import TransportNode

logger = logging.getLogger("repro.live.runtime")


class LiveKernel(Simulator):
    """A :class:`Simulator` whose event queue is the asyncio loop.

    Time is the loop's monotonic clock expressed in milliseconds, so
    every timeout constant in the protocol code (all chosen in sim
    milliseconds) keeps its meaning.  ``run``/``step`` are forbidden:
    asyncio drives the callbacks, nobody pumps a queue.
    """

    #: Resume processes inline through already-settled yields (see
    #: ``Simulator.eager_resume``): wall-clock runs have no replayable
    #: event order to protect, and the saved schedule/dispatch round
    #: trips are real time on the hot path.
    eager_resume = True

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None
                 ) -> None:
        super().__init__()
        self.loop = loop or asyncio.get_event_loop()
        self._epoch = self.loop.time()
        #: Failures that escaped un-joined processes.  The sim raises
        #: these out of ``run()``; live code has no such choke point, so
        #: they are logged and kept for inspection (bounded).
        self.orphan_failures: List[Tuple[str, BaseException]] = []
        self._due: Deque[Tuple[Callable[..., None], Tuple[Any, ...]]] = \
            deque()
        self._pump_scheduled = False

    @property
    def now(self) -> float:
        """Milliseconds since this kernel was created."""
        return (self.loop.time() - self._epoch) * 1000.0

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> None:
        if delay <= 0.0:
            # Batch all zero-delay callbacks of one loop pass behind a
            # single call_soon handle: the protocol machinery settles
            # several events per arriving frame, and a loop handle per
            # settle is pure overhead at throughput.
            self._due.append((callback, args))
            if not self._pump_scheduled:
                self._pump_scheduled = True
                self.loop.call_soon(self._run_due)
            return
        self.loop.call_later(delay / 1000.0, callback, *args)

    #: Zero-delay callbacks drained per pump before yielding the loop —
    #: a backstop against a pathological zero-delay cycle starving I/O,
    #: set far above any real protocol chain.
    DRAIN_LIMIT = 100_000

    def _run_due(self) -> None:
        # Drain to a fixpoint: a settled event resumes its waiter, which
        # settles further events, and the whole dependent chain runs in
        # this one pump instead of one asyncio pass per link.  FIFO
        # order is exactly what per-callback call_soon handles would
        # have given — the chain just no longer pays a loop iteration
        # (selector poll included) per continuation.  ``_pump_scheduled``
        # stays True while draining so schedule() calls from inside
        # callbacks don't stack redundant pump handles.
        due = self._due
        drained = 0
        while due and drained < self.DRAIN_LIMIT:
            callback, args = due.popleft()
            drained += 1
            try:
                callback(*args)
            except Exception:
                logger.exception("unhandled exception in scheduled "
                                 "callback %r", callback)
        if due:
            self.loop.call_soon(self._run_due)
        else:
            self._pump_scheduled = False

    # -- the sim's pumping API is meaningless here -------------------------

    def step(self) -> bool:
        raise RuntimeError("LiveKernel is driven by the asyncio loop; "
                           "there is no queue to step")

    def run(self, until: Optional[float] = None,
            max_steps: Optional[int] = None) -> float:
        raise RuntimeError("LiveKernel is driven by the asyncio loop; "
                           "await work instead of calling run()")

    def run_until(self, event, limit: Optional[float] = None) -> Any:
        raise RuntimeError("LiveKernel is driven by the asyncio loop; "
                           "use LiveRuntime.run() to await an event")

    # -- orphan failures ---------------------------------------------------

    def note_orphan_failure(self, name: str,
                            exception: BaseException) -> None:
        logger.error("unhandled failure in live process %r", name,
                     exc_info=exception)
        if len(self.orphan_failures) < 64:
            self.orphan_failures.append((name, exception))

    def wrap_awaitable(self, event) -> "asyncio.Future[Any]":
        """An asyncio future that settles when ``event`` does."""
        future: "asyncio.Future[Any]" = self.loop.create_future()

        def settle(settled) -> None:
            if future.done():
                return
            if settled.failed:
                future.set_exception(settled.value)
            else:
                future.set_result(settled.value)

        event.add_callback(settle)
        return future


class LiveHost(Host):
    """A simulated :class:`~repro.sim.network.Host` wired to real TCP.

    Up/down state and the crash/restart listeners are the sim host's;
    only the kernel and the wire differ.  ``send`` goes into the host's
    own :class:`TransportNode`, which encodes the same bodies the sim
    host does and hands every decoded inbound message to ``deliver``
    from the socket callback, as the sim host's ``receive`` hands it to
    ``dispatch``.
    """

    def __init__(self, kernel: LiveKernel, name: str) -> None:
        # No simulated network: ``sim`` and ``send`` below stand in.
        super().__init__(None, name)  # type: ignore[arg-type]
        self.kernel = kernel
        self.transport = TransportNode(name, self.deliver)

    @property
    def sim(self) -> LiveKernel:
        return self.kernel

    def send(self, destination: str, payload: Any) -> None:
        if self._up:
            self.transport.send(destination, payload)

    def deliver(self, message: Any) -> None:
        """Transport callback: a frame arrived for this host.

        Crashed hosts drop inbound traffic.
        """
        if self._up:
            self.dispatch(message)


class LiveRuntime:
    """Client-side live deployment: everything needed to use a suite.

    A :class:`LiveKernel` and a :class:`LiveHost` carrying the client
    node :class:`~repro.testbed.Testbed` builds for the sim
    (:meth:`ClientNode.build`: endpoint, transaction manager,
    background refresher), with circuit breakers always on.
    """

    def __init__(self, name: Optional[str] = None,
                 call_timeout: float = 2_000.0,
                 transport_attempts: int = 3,
                 seed: int = 0,
                 obs: bool = True,
                 loop: Optional[asyncio.AbstractEventLoop] = None,
                 flight: Optional[Any] = None) -> None:
        if name is None:
            # Servers key at-most-once dedup state and transaction ids
            # by the client's source name, and a fresh runtime restarts
            # its call ids at zero — so a rebooted client that reused a
            # previous boot's name against long-running daemons would
            # be answered from the *old* boot's reply cache.  A unique
            # per-boot name is the classic datagram-RPC fix.
            name = f"client-{uuid.uuid4().hex[:8]}"
        self.name = name
        self.kernel = LiveKernel(loop=loop)
        self.metrics = MetricsRegistry()
        #: Tracing defaults ON live (unlike the sim, where trace bytes
        #: would perturb the latency model): real deployments want every
        #: operation explorable after the fact.  The origin is the
        #: client's per-boot-unique name, so span ids never collide with
        #: another process's.
        self.collector = TraceCollector(clock=lambda: self.kernel.now,
                                        origin=name, enabled=obs)
        self.host = LiveHost(self.kernel, name)
        self.transport = self.host.transport
        self.streams = RandomStreams(seed=seed)
        node = ClientNode.build(
            self.kernel, self.host, collector=self.collector,
            metrics=self.metrics, breakers=True,
            call_timeout=call_timeout,
            transport_attempts=transport_attempts, streams=self.streams)
        self.endpoint, self.manager, self.refresher = \
            node.endpoint, node.manager, node.refresher
        #: Circuit breakers for the servers this client talks to.  The
        #: endpoint feeds outcomes in; quorum assembly consults them.
        self.health = self.endpoint.health
        #: Optional :class:`~repro.obs.flight.FlightRecorder`: the live
        #: black box.  Wiring it here covers every decision point this
        #: runtime owns — 2PC outcomes, breaker transitions and (in
        #: every handle built on the manager) quorum assemblies.
        self.flight = flight
        if flight is not None:
            self.manager.flight = flight
            self.health.flight = flight

    # -- topology ----------------------------------------------------------

    def register_server(self, name: str, host: str, port: int) -> None:
        """Tell the transport where storage server ``name`` listens."""
        self.transport.register_peer(name, host, port)

    # -- protocol execution ------------------------------------------------

    def run(self, generator: Generator) -> "asyncio.Future[Any]":
        """Drive a protocol generator to completion; awaitable.

        This is the live counterpart of ``Testbed.run``: the generator
        is spawned as a kernel process (its yielded events resolve on
        the asyncio loop in wall-clock time) and its return value or
        exception is surfaced through an asyncio future.
        """
        return self.kernel.wrap_awaitable(self.kernel.spawn(generator))

    def suite(self, config: SuiteConfiguration,
              **kwargs: Any) -> FileSuiteClient:
        """A suite client handle served over real sockets."""
        kwargs.setdefault("refresher", self.refresher)
        return FileSuiteClient(self.manager, config, **kwargs)

    async def install(self, config: SuiteConfiguration,
                      initial_data: bytes = b"",
                      **kwargs: Any) -> FileSuiteClient:
        """Create the suite on its live servers; returns a handle."""
        handle = self.suite(config, **kwargs)
        await self.run(install_suite(self.manager, config, initial_data))
        return handle

    async def read(self, suite: FileSuiteClient):
        """Quorum read over real sockets."""
        return await self.run(suite.read())

    async def write(self, suite: FileSuiteClient, data: bytes):
        """Quorum write (two-phase commit) over real sockets."""
        return await self.run(suite.write(data))

    async def close(self) -> None:
        await self.transport.close()
