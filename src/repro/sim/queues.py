"""Inter-process communication primitives: FIFO queues and resources.

:class:`Queue` is a mailbox between processes.  ``get()`` returns an event
that triggers when an item is available, preserving FIFO order among both
items and waiters.

:class:`Resource` models a unit-capacity (or k-capacity) resource such as
a disk arm: processes ``acquire()`` it, do timed work, and ``release()``.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque

from .events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .simulator import Simulator


class QueueClosed(Exception):
    """Raised to getters when a queue is closed."""


class Queue:
    """Unbounded FIFO queue with event-based ``get``.

    ``put`` never blocks.  ``get`` returns an :class:`Event`; yield it
    from a process to receive the next item.  Closing the queue fails
    all pending and future getters with :class:`QueueClosed`.
    """

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._closed = False

    def __len__(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    def put(self, item: Any) -> None:
        """Append ``item``; wakes the oldest waiting getter if any."""
        if self._closed:
            return  # dropping on the floor: host is down
        while self._getters:
            getter = self._getters.popleft()
            if getter.pending:
                getter.trigger(item)
                return
        self._items.append(item)

    def get(self) -> Event:
        """Return an event that triggers with the next item."""
        event = self.sim.event(name=f"{self.name}.get")
        if self._closed:
            event.fail(QueueClosed(self.name))
        elif self._items:
            event.trigger(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def close(self) -> None:
        """Discard items and fail all pending getters."""
        self._closed = True
        self._items.clear()
        while self._getters:
            getter = self._getters.popleft()
            if getter.pending:
                getter.fail(QueueClosed(self.name))

    def reopen(self) -> None:
        """Re-enable the queue after a close (server restart)."""
        self._closed = False


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
                waiter.fail(QueueClosed(self.name))
