"""Generator-based simulation processes.

A *process* is a Python generator driven by the simulator: every value it
``yield``s must be an :class:`~repro.sim.events.Event` (a ``Timeout``,
another ``Process``, a queue get, an RPC reply, ...).  The process sleeps
until that event settles, then resumes with the event's value — or, if
the event failed, the exception is thrown into the generator so ordinary
``try``/``except`` works across virtual time.

A :class:`Process` is itself an event: it triggers with the generator's
return value when the generator finishes, which makes "spawn a child and
join it" just ``result = yield child``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from ..errors import Interrupt, ProcessKilled
from .events import FAILED, PENDING, Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .simulator import Simulator

ProcessGenerator = Generator[Event, Any, Any]


def step_until_pending(sim: "Simulator", generator: ProcessGenerator,
                       value: Any, error: Optional[BaseException],
                       running: Callable[[], bool]) -> Optional[Event]:
    """Advance ``generator`` to its next wait; return the awaited event.

    The generator is sent ``value``, or has ``error`` thrown into it.
    When the kernel resumes eagerly (``Simulator.eager_resume``) a
    yield of an already-settled event is answered at once and the
    generator runs on; otherwise its first yield is returned whatever
    the event's state.  Returns None when ``running()`` turns false
    after a step: the step stopped the generator's owner (a host crash
    from inside a handler), which must not be resumed.  The generator's
    return (``StopIteration``) and its exceptions propagate, and so
    does a yield of anything but an event, as ``TypeError``.
    """
    eager = sim.eager_resume
    while True:
        if error is not None:
            target = generator.throw(error)
        else:
            target = generator.send(value)
        if not running():
            return None
        if not isinstance(target, Event):
            raise TypeError(f"yielded {target!r}; processes may only "
                            "yield Event instances")
        state = target._state
        if state is PENDING or not eager:
            return target
        if state is FAILED:
            value, error = None, target._value
        else:
            value, error = target._value, None


class Process(Event):
    """A running simulation process wrapping a generator.

    Use :meth:`Simulator.spawn` rather than constructing directly.
    """

    __slots__ = ("generator", "_waiting_on", "_alive")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator,
                 name: str = "", waiting_on: Optional[Event] = None) -> None:
        if not hasattr(generator, "send"):
            raise TypeError(
                f"spawn() needs a generator, got {type(generator).__name__}; "
                "did you forget to call the process function?"
            )
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        self._waiting_on: Optional[Event] = None
        self._alive = True
        if waiting_on is None:
            # Start the process at the current simulation time.
            sim.schedule(0.0, self._resume, None)
        else:
            # Adopt a generator someone else started: it is parked on
            # ``waiting_on`` and resumes when that settles.
            self._waiting_on = waiting_on
            waiting_on.add_callback(self._resume)

    # -- lifecycle ---------------------------------------------------------

    @property
    def alive(self) -> bool:
        """True while the generator has not finished or been killed."""
        return self._alive

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`~repro.errors.Interrupt` into the process.

        The process may catch the interrupt and keep running (e.g. a
        server loop cleaning up a cancelled request).  Interrupting a
        finished process is a no-op.
        """
        if not self._alive:
            return
        self._detach()
        self.sim.schedule(0.0, self._throw, Interrupt(cause))

    def kill(self) -> None:
        """Stop the process immediately without resuming it.

        The generator is closed; anybody waiting on (joining) this
        process sees :class:`~repro.errors.ProcessKilled`.  Used for
        crash injection, where the dead server must not get a chance to
        run cleanup code.
        """
        if not self._alive:
            return
        self._alive = False
        self._detach()
        self.generator.close()
        if self.pending:
            self.fail(ProcessKilled(f"process {self.name!r} killed"))

    def _detach(self) -> None:
        """Forget the event we were waiting on (it may still settle later)."""
        self._waiting_on = None

    # -- generator driving -------------------------------------------------

    def _resume(self, event: Optional[Event]) -> None:
        if not self._alive:
            return
        # Stale wake-up: we were interrupted/killed while this callback
        # was in flight, and are no longer waiting on this event.
        if event is not None and event is not self._waiting_on:
            return
        self._waiting_on = None
        if event is not None and event.failed:
            self._drive(None, event.value)
            return
        self._drive(event.value if event is not None else None)

    def _throw(self, exception: BaseException) -> None:
        self._drive(None, exception)

    def _drive(self, value: Any,
               exception: Optional[BaseException] = None) -> None:
        """Advance the generator; inline through settled yields when
        the kernel allows it (see ``Simulator.eager_resume``)."""
        if not self._alive:
            return
        try:
            target = step_until_pending(self.sim, self.generator, value,
                                        exception, lambda: self._alive)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - capture crash
            if exc is exception and isinstance(exc, Interrupt):
                # Uncaught interrupt simply terminates the process.
                self._finish(None)
                return
            self._crash(exc)
            return
        if target is not None:  # None: the step killed this process
            self._waiting_on = target
            target.add_callback(self._resume)

    def _finish(self, value: Any) -> None:
        self._alive = False
        if self.pending:
            self.trigger(value)

    def _crash(self, exception: BaseException) -> None:
        self._alive = False
        if self.pending:
            had_waiters = bool(self._callbacks)
            self.fail(exception)
            if not had_waiters:
                # Nobody is joining this process; surface the failure at
                # Simulator.run() instead of losing it silently.
                self.sim.note_orphan_failure(self.name, exception)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self._alive else self._state
        return f"<Process {self.name!r} {state}>"
