"""Per-server lock manager: shared/exclusive locks with deadlock detection.

Gifford's file suites inherit serial consistency from the transaction
system underneath them; this lock manager is that system's concurrency
control.  Representatives are locked in **shared** mode by version
inquiries and reads, and **exclusive** mode by writes, under strict
two-phase locking (locks released only at commit/abort).

Blocking requests return events.  Before a request blocks, the manager
checks the local waits-for graph and fails the request with
:class:`~repro.errors.DeadlockError` if waiting would close a cycle.
Distributed deadlocks (cycles spanning servers) are broken by lock
timeouts — the classic pragmatic complement, and the reason suite
operations retry with fresh transactions.

The lock table is volatile: :meth:`LockManager.clear` drops everything
on a crash.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Set

from ..errors import DeadlockError, LockTimeoutError, TransactionAborted
from ..sim.events import Event
from .ids import TransactionId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.simulator import Simulator

SHARED = "S"
EXCLUSIVE = "X"


def compatible(held: str, requested: str) -> bool:
    """Lock mode compatibility: only S/S coexists."""
    return held == SHARED and requested == SHARED


@dataclass
class _Waiter:
    txn: TransactionId
    mode: str
    event: Event


class _ResourceLock:
    """Lock state for a single resource."""

    __slots__ = ("holders", "queue")

    def __init__(self) -> None:
        # Insertion order matters for upgrade bookkeeping and debugging.
        self.holders: "OrderedDict[TransactionId, str]" = OrderedDict()
        self.queue: Deque[_Waiter] = deque()

    def mode_of(self, txn: TransactionId) -> Optional[str]:
        return self.holders.get(txn)


class LockManager:
    """Strict two-phase locking for one server."""

    def __init__(self, sim: "Simulator", name: str = "",
                 default_timeout: Optional[float] = None) -> None:
        self.sim = sim
        self.name = name
        self.default_timeout = default_timeout
        self._locks: Dict[str, _ResourceLock] = {}
        self._held_by_txn: Dict[TransactionId, Set[str]] = {}
        # All resources each transaction currently has *queued* requests
        # on.  A set, not a scalar: one transaction can have several
        # outstanding requests (parallel inquiries), and granting one
        # must not lose track of the others.
        self._waiting_on: Dict[TransactionId, Set[str]] = {}
        self.deadlocks_detected = 0
        self.lock_timeouts = 0

    # -- queries -------------------------------------------------------------

    def holds(self, txn: TransactionId, resource: str,
              mode: Optional[str] = None) -> bool:
        lock = self._locks.get(resource)
        if lock is None:
            return False
        held = lock.mode_of(txn)
        if held is None:
            return False
        if mode is None:
            return True
        return held == mode or (held == EXCLUSIVE and mode == SHARED)

    def holders_of(self, resource: str) -> Dict[TransactionId, str]:
        lock = self._locks.get(resource)
        return dict(lock.holders) if lock else {}

    def locked_resources(self, txn: TransactionId) -> Set[str]:
        return set(self._held_by_txn.get(txn, set()))

    # -- acquisition -----------------------------------------------------------

    def acquire(self, txn: TransactionId, resource: str, mode: str,
                timeout: Optional[float] = None) -> Event:
        """Request ``mode`` on ``resource``; returns a grant event.

        The event triggers when granted, or fails with
        :class:`DeadlockError` (local cycle) or
        :class:`LockTimeoutError` (``timeout`` elapsed, default from the
        manager).  Re-acquiring a mode already covered is an immediate
        grant; S→X upgrade is supported and waits for other holders to
        drain, taking priority over queued fresh requests.
        """
        if mode not in (SHARED, EXCLUSIVE):
            raise ValueError(f"unknown lock mode {mode!r}")
        event = self.sim.event(name=f"lock:{resource}:{mode}")
        lock = self._locks.setdefault(resource, _ResourceLock())
        held = lock.mode_of(txn)

        if held == EXCLUSIVE or held == mode:
            event.trigger(mode)  # already covered
            return event

        if self._grantable(lock, txn, mode):
            self._grant(lock, txn, resource, mode)
            event.trigger(mode)
            return event

        # Must wait: deadlock check first.
        if self._would_deadlock(txn, resource, mode):
            self.deadlocks_detected += 1
            event.fail(DeadlockError(
                f"{self.name}: waiting for {mode} on {resource!r} "
                f"would deadlock {txn}"))
            return event

        waiter = _Waiter(txn=txn, mode=mode, event=event)
        if held == SHARED and mode == EXCLUSIVE:
            lock.queue.appendleft(waiter)  # upgrades jump the queue
        else:
            lock.queue.append(waiter)
        self._waiting_on.setdefault(txn, set()).add(resource)
        effective_timeout = timeout if timeout is not None \
            else self.default_timeout
        if effective_timeout is not None:
            self.sim.schedule(effective_timeout, self._expire, waiter,
                              resource)
        return event

    def _grantable(self, lock: _ResourceLock, txn: TransactionId,
                   mode: str) -> bool:
        other_holders = [m for t, m in lock.holders.items() if t != txn]
        if any(not compatible(m, mode) for m in other_holders):
            return False
        if mode == EXCLUSIVE and other_holders:
            return False
        # Fairness: a fresh shared request must not overtake a queued
        # exclusive request (starvation control).  Upgrades are exempt.
        if lock.mode_of(txn) is None:
            if any(w.mode == EXCLUSIVE for w in lock.queue):
                return False
        return True

    def _grant(self, lock: _ResourceLock, txn: TransactionId,
               resource: str, mode: str) -> None:
        lock.holders[txn] = mode
        self._held_by_txn.setdefault(txn, set()).add(resource)
        waited = self._waiting_on.get(txn)
        if waited is not None:
            waited.discard(resource)
            if not waited:
                del self._waiting_on[txn]

    # -- release ---------------------------------------------------------------

    def release_all(self, txn: TransactionId) -> None:
        """Drop every lock and queued request of ``txn`` (commit/abort).

        A request still queued (a slow representative's inquiry parked
        behind a writer after the quorum already closed) is failed at
        once with :class:`TransactionAborted`, so its handler replies
        now instead of sitting out the lock timer — it is not a
        timeout and is not counted as one.
        """
        resources = self._held_by_txn.pop(txn, set())
        waited = self._waiting_on.pop(txn, set())
        resources = resources | set(waited)
        for resource in resources:
            lock = self._locks.get(resource)
            if lock is None:
                continue
            lock.holders.pop(txn, None)
            for waiter in lock.queue:
                if waiter.txn == txn and waiter.event.pending:
                    waiter.event.fail(TransactionAborted(
                        txn, f"finished at {self.name} while waiting "
                        f"for {waiter.mode} on {resource!r}"))
            lock.queue = deque(w for w in lock.queue if w.txn != txn)
            self._promote(lock, resource)
            if not lock.holders and not lock.queue:
                del self._locks[resource]

    def _promote(self, lock: _ResourceLock, resource: str) -> None:
        """Grant queued requests that have become compatible, in order."""
        progressed = True
        while progressed and lock.queue:
            progressed = False
            head = lock.queue[0]
            if not head.event.pending:
                lock.queue.popleft()  # timed out or failed while queued
                progressed = True
                continue
            if self._grantable_waiter(lock, head):
                lock.queue.popleft()
                self._grant(lock, head.txn, resource, head.mode)
                head.event.trigger(head.mode)
                progressed = True

    def _grantable_waiter(self, lock: _ResourceLock, waiter: _Waiter) -> bool:
        other_holders = [m for t, m in lock.holders.items()
                         if t != waiter.txn]
        if any(not compatible(m, waiter.mode) for m in other_holders):
            return False
        if waiter.mode == EXCLUSIVE and other_holders:
            return False
        return True

    # -- failure handling --------------------------------------------------------

    def _expire(self, waiter: _Waiter, resource: str) -> None:
        if not waiter.event.pending:
            return
        lock = self._locks.get(resource)
        if lock is not None:
            lock.queue = deque(w for w in lock.queue if w is not waiter)
            self._promote(lock, resource)
        waited = self._waiting_on.get(waiter.txn)
        if waited is not None:
            waited.discard(resource)
            if not waited:
                del self._waiting_on[waiter.txn]
        self.lock_timeouts += 1
        waiter.event.fail(LockTimeoutError(
            f"{self.name}: {waiter.txn} timed out waiting for "
            f"{waiter.mode} on {resource!r}"))

    def clear(self) -> None:
        """Crash: drop the whole lock table; fail queued waiters."""
        for resource, lock in list(self._locks.items()):
            for waiter in lock.queue:
                if waiter.event.pending:
                    waiter.event.fail(LockTimeoutError(
                        f"{self.name}: server crashed"))
        self._locks.clear()
        self._held_by_txn.clear()
        self._waiting_on.clear()

    # -- deadlock detection ---------------------------------------------------------

    def _would_deadlock(self, txn: TransactionId, resource: str,
                        mode: str) -> bool:
        """DFS the local waits-for graph assuming ``txn`` waits on ``resource``."""
        start_blockers = self._blockers(resource, txn, mode)
        seen: Set[TransactionId] = set()
        stack: List[TransactionId] = list(start_blockers)
        while stack:
            blocker = stack.pop()
            if blocker == txn:
                return True
            if blocker in seen:
                continue
            seen.add(blocker)
            for waiting_resource in self._waiting_on.get(blocker, ()):
                waiting_mode = self._queued_mode(blocker,
                                                 waiting_resource)
                stack.extend(self._blockers(waiting_resource, blocker,
                                            waiting_mode))
        return False

    def _queued_mode(self, txn: TransactionId, resource: str) -> str:
        lock = self._locks.get(resource)
        if lock is not None:
            for waiter in lock.queue:
                if waiter.txn == txn:
                    return waiter.mode
        return EXCLUSIVE  # conservative

    def _blockers(self, resource: str, txn: TransactionId,
                  mode: str) -> Set[TransactionId]:
        """Transactions ``txn`` would wait behind on ``resource``."""
        lock = self._locks.get(resource)
        if lock is None:
            return set()
        blockers = {t for t, m in lock.holders.items()
                    if t != txn and not compatible(m, mode)}
        if mode == EXCLUSIVE:
            blockers |= {t for t in lock.holders if t != txn}
        # Queued conflicting requests ahead of us also block us — except
        # for an upgrade (we already hold the resource): upgrades jump
        # the queue, so only current holders can block them.
        if lock.mode_of(txn) is None:
            for waiter in lock.queue:
                if waiter.txn != txn and (not compatible(waiter.mode, mode)
                                          or waiter.mode == EXCLUSIVE
                                          or mode == EXCLUSIVE):
                    blockers.add(waiter.txn)
        return blockers
