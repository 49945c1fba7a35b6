"""Shared resources between processes.

:class:`Resource` models a unit-capacity (or k-capacity) resource such as
a disk arm: processes ``acquire()`` it, do timed work, and ``release()``.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque

from .events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .simulator import Simulator


class Resource:
    """A k-capacity resource with FIFO acquisition.

    Typical use inside a process::

        yield disk.acquire()
        try:
            yield sim.timeout(io_time)
        finally:
            disk.release()
    """

    def __init__(self, sim: "Simulator", capacity: int = 1,
                 name: str = "") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        """Return an event that triggers once a slot is held."""
        event = self.sim.event(name=f"{self.name}.acquire")
        if self._in_use < self.capacity:
            self._in_use += 1
            event.trigger(self)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Free one slot; hands it to the oldest waiter if any."""
        if self._in_use <= 0:
            raise RuntimeError(f"release of idle resource {self.name!r}")
        while self._waiters:
            waiter = self._waiters.popleft()
            if waiter.pending:
                waiter.trigger(self)
                return
        self._in_use -= 1

    def reset(self) -> None:
        """Drop all holders and waiters (crash semantics)."""
        self._in_use = 0
        while self._waiters:
            waiter = self._waiters.popleft()
            if waiter.pending:
                waiter.fail(RuntimeError(f"resource {self.name!r} reset"))
