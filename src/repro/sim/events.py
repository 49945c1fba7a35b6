"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is a one-shot occurrence in virtual time.  Processes
(see :mod:`repro.sim.process`) wait on events by ``yield``-ing them; when
the event *triggers* the process resumes with the event's value, and when
the event *fails* the attached exception is raised inside the process.

The composite :class:`AllOf` lets a process wait for every event of a
set.  Waiting for a quorum of replies is not a composite event: the
gather in :mod:`repro.core.gather` registers one callback per reply and
parks its caller on a single event.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .simulator import Simulator

# Event lifecycle states.
PENDING = "pending"
TRIGGERED = "triggered"
FAILED = "failed"


class Event:
    """A one-shot occurrence that processes can wait on.

    Events start *pending*.  Calling :meth:`trigger` (or :meth:`fail`)
    moves them to a terminal state and schedules every registered
    callback to run at the current virtual time.  Triggering an already
    settled event is an error — one-shot means one shot.
    """

    __slots__ = ("sim", "_state", "_value", "_callbacks", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._state = PENDING
        self._value: Any = None
        self._callbacks: list[Callable[["Event"], None]] = []

    # -- state inspection --------------------------------------------------

    @property
    def pending(self) -> bool:
        return self._state == PENDING

    @property
    def triggered(self) -> bool:
        return self._state == TRIGGERED

    @property
    def failed(self) -> bool:
        return self._state == FAILED

    @property
    def settled(self) -> bool:
        return self._state != PENDING

    @property
    def value(self) -> Any:
        """The trigger value, or the exception if the event failed."""
        return self._value

    # -- settling ----------------------------------------------------------

    def trigger(self, value: Any = None) -> "Event":
        """Settle the event successfully with ``value``."""
        if self._state != PENDING:
            raise RuntimeError(f"event {self!r} already settled")
        self._state = TRIGGERED
        self._value = value
        self._dispatch()
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Settle the event with an exception.

        Any process waiting on the event will have ``exception`` raised
        at its yield point.
        """
        if self._state != PENDING:
            raise RuntimeError(f"event {self!r} already settled")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._state = FAILED
        self._value = exception
        self._dispatch()
        return self

    def _dispatch(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            self.sim.schedule(0.0, callback, self)

    # -- waiting -----------------------------------------------------------

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` once the event settles.

        If the event has already settled the callback is scheduled
        immediately (still via the event loop, preserving ordering).
        """
        if self._state == PENDING:
            self._callbacks.append(callback)
        else:
            self.sim.schedule(0.0, callback, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or self.__class__.__name__
        return f"<{label} {self._state} at t={self.sim.now:.3f}>"


class Timeout(Event):
    """An event that triggers automatically after ``delay`` time units."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(sim, name=f"Timeout({delay})")
        self.delay = delay
        sim.schedule(delay, self._expire, value)

    def _expire(self, value: Any) -> None:
        if self.pending:
            self.trigger(value)


class AllOf(Event):
    """Triggers when every child event has triggered.

    The value is the list of child values in construction order.  The
    first child failure fails the whole condition.
    """

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim, name="AllOf")
        self.events = list(events)
        self._remaining = len(self.events)
        if not self.events:
            self.trigger([])
            return
        for event in self.events:
            event.add_callback(self._child_settled)

    def _child_settled(self, event: Event) -> None:
        if self.settled:
            return
        if event.failed:
            self.fail(event.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.trigger([e.value for e in self.events])
