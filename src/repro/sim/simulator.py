"""The discrete-event simulator core.

:class:`Simulator` owns virtual time and a priority queue of scheduled
callbacks.  Everything else in the system — network delivery, storage
latency, server crash/restart, client think time — reduces to callbacks
on this one queue, which makes runs fully deterministic for a given
seed: same inputs, same event order, same results.

Ties in time are broken by insertion order (a monotonically increasing
sequence number), so the simulation never depends on heap internals.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Optional

from .events import AllOf, Event, Timeout
from .process import Process, ProcessGenerator


def _noop(event: Event) -> None:
    """Placeholder waiter callback used by :meth:`Simulator.run_until`."""


class Simulator:
    """Deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()

        def hello(sim):
            yield sim.timeout(5.0)
            return "done at t=5"

        proc = sim.spawn(hello(sim))
        sim.run()
        assert sim.now == 5.0 and proc.value == "done at t=5"
    """

    #: When True, a process whose yielded event has *already* settled is
    #: resumed inline instead of through a scheduled callback.  The
    #: discrete-event simulator keeps this off — every resume goes
    #: through the queue, so event ordering (and with it every committed
    #: baseline) is a pure function of the schedule.  The live kernel
    #: turns it on: wall-clock runs have no replayable event order to
    #: protect, and the skipped schedule/dispatch round trip per settled
    #: yield (uncontended lock acquires, cached reads, empty waits) is
    #: real time on the hot path.
    eager_resume = False

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._sequence = 0
        self._orphan_failures: list[tuple[str, BaseException]] = []
        self._running = False

    # -- time --------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    # -- scheduling --------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` time units."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._sequence += 1
        heapq.heappush(self._queue,
                       (self._now + delay, self._sequence, callback, args))

    # -- factories ---------------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a fresh pending event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers after ``delay`` time units."""
        return Timeout(self, delay, value)

    def spawn(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a new process from ``generator``; returns immediately."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- execution ---------------------------------------------------------

    def step(self) -> bool:
        """Execute the single next scheduled callback.

        Returns ``False`` when the queue is empty.
        """
        if not self._queue:
            return False
        time, _seq, callback, args = heapq.heappop(self._queue)
        self._now = time
        callback(*args)
        return True

    def run(self, until: Optional[float] = None,
            max_steps: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or ``max_steps``.

        Raises the first *orphan* process failure — an exception that
        escaped a process nobody was joining — so bugs cannot vanish
        into the void.  Returns the final virtual time.
        """
        if self._running:
            raise RuntimeError("simulator is not reentrant")
        self._running = True
        steps = 0
        try:
            while self._queue:
                if until is not None and self._queue[0][0] > until:
                    self._now = until
                    break
                if max_steps is not None and steps >= max_steps:
                    break
                self.step()
                steps += 1
                if self._orphan_failures:
                    name, exc = self._orphan_failures[0]
                    raise RuntimeError(
                        f"unhandled failure in process {name!r}") from exc
        finally:
            self._running = False
        return self._now

    def run_until(self, event: Event, limit: Optional[float] = None) -> Any:
        """Run until ``event`` settles; return its value or raise its failure.

        ``limit`` bounds virtual time as a safety net against livelock.
        """
        # Register as a waiter so a failing process is not treated as
        # orphaned (its exception belongs to us, the joiner).
        event.add_callback(_noop)
        while not event.settled:
            if limit is not None and self._now >= limit:
                raise RuntimeError(
                    f"run_until: event did not settle by t={limit}"
                )
            if not self.step():
                raise RuntimeError(
                    "run_until: event queue drained but event never settled"
                )
            if self._orphan_failures:
                name, exc = self._orphan_failures[0]
                raise RuntimeError(
                    f"unhandled failure in process {name!r}") from exc
        if event.failed:
            raise event.value
        return event.value

    def run_process(self, generator: ProcessGenerator,
                    limit: Optional[float] = None) -> Any:
        """Spawn ``generator`` and run until it finishes; return its result."""
        return self.run_until(self.spawn(generator), limit=limit)

    # -- orphan failures ---------------------------------------------------

    def note_orphan_failure(self, name: str,
                            exception: BaseException) -> None:
        """An exception escaped process ``name`` and nobody joins it:
        :meth:`run` raises it rather than let a bug vanish."""
        self._orphan_failures.append((name, exception))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self._now:.3f} queued={len(self._queue)}>"
