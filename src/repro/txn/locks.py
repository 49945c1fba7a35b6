"""Per-server lock manager: shared/exclusive locks with deadlock detection.

Gifford's file suites inherit serial consistency from the transaction
system underneath them; this lock manager is that system's concurrency
control.  Representatives are locked in **shared** mode by version
inquiries and reads, and **exclusive** mode by writes, under strict
two-phase locking (locks released only at commit/abort).

Requests return events; every grant made at once is the manager's one
already-triggered event.  Before a request blocks, the manager
checks the local waits-for graph and fails the request with
:class:`~repro.errors.DeadlockError` if waiting would close a cycle.
Distributed deadlocks (cycles spanning servers) are broken by lock
timeouts — the classic pragmatic complement, and the reason suite
operations retry with fresh transactions.

The lock table is volatile: :meth:`LockManager.clear` drops everything
on a crash.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, Iterable, List, Optional, Set

from ..errors import DeadlockError, LockTimeoutError, TransactionAborted
from ..sim.events import Event
from .ids import TransactionId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.simulator import Simulator

SHARED = "S"
EXCLUSIVE = "X"

_NOTHING: frozenset = frozenset()


def compatible(held: str, requested: str) -> bool:
    """Lock mode compatibility: only S/S coexists."""
    return held == SHARED and requested == SHARED


@dataclass
class _Waiter:
    txn: TransactionId
    mode: str
    event: Event


class LockManager:
    """Strict two-phase locking for one server."""

    def __init__(self, sim: "Simulator", name: str = "",
                 default_timeout: Optional[float] = None) -> None:
        self.sim = sim
        self.name = name
        self.default_timeout = default_timeout
        #: resource -> its holders and the mode each holds.
        self._holders: Dict[str, Dict[TransactionId, str]] = {}
        #: resource -> requests queued on it, oldest first; only resources
        #: with a queue have an entry, and they always have holders.
        self._queues: Dict[str, Deque[_Waiter]] = {}
        self._held_by_txn: Dict[TransactionId, Set[str]] = {}
        # All resources each transaction currently has *queued* requests
        # on.  A set, not a scalar: one transaction can have several
        # outstanding requests (parallel inquiries), and granting one
        # must not lose track of the others.
        self._waiting_on: Dict[TransactionId, Set[str]] = {}
        self.deadlocks_detected = 0
        self.lock_timeouts = 0
        #: What every immediate grant returns.
        self._granted = sim.event(name=f"lock:{name}:granted").trigger()

    # -- queries -------------------------------------------------------------

    def holds(self, txn: TransactionId, resource: str,
              mode: Optional[str] = None) -> bool:
        held = self._holders.get(resource, {}).get(txn)
        if held is None:
            return False
        if mode is None:
            return True
        return held == mode or (held == EXCLUSIVE and mode == SHARED)

    def holders_of(self, resource: str) -> Dict[TransactionId, str]:
        return dict(self._holders.get(resource, {}))

    def locked_resources(self, txn: TransactionId) -> Set[str]:
        return set(self._held_by_txn.get(txn, set()))

    # -- acquisition -----------------------------------------------------------

    def acquire(self, txn: TransactionId, resource: str, mode: str,
                timeout: Optional[float] = None) -> Event:
        """Request ``mode`` on ``resource``; returns a grant event.

        An immediate grant — re-acquiring a mode already covered is one
        — returns the manager's shared triggered event.  Otherwise the
        event triggers when granted, or fails with
        :class:`DeadlockError` (local cycle) or
        :class:`LockTimeoutError` (``timeout`` elapsed, default from the
        manager).  S→X upgrade waits for other holders to drain, taking
        priority over queued fresh requests.
        """
        if mode not in (SHARED, EXCLUSIVE):
            raise ValueError(f"unknown lock mode {mode!r}")
        holders = self._holders.get(resource)
        if holders is None:
            holders = self._holders[resource] = {}
        else:
            held = holders.get(txn)
            if held == EXCLUSIVE or held == mode:
                return self._granted  # already covered
            if not self._grantable(holders, txn, mode,
                                   self._queues.get(resource, ())):
                return self._wait(txn, resource, mode, held, timeout)
        holders[txn] = mode
        self._held_by_txn.setdefault(txn, set()).add(resource)
        return self._granted

    def _wait(self, txn: TransactionId, resource: str, mode: str,
              held: Optional[str], timeout: Optional[float]) -> Event:
        """Queue a request that cannot be granted now — unless waiting
        would close a cycle in the local waits-for graph."""
        event = self.sim.event(name=f"lock:{resource}:{mode}")
        if self._would_deadlock(txn, resource, mode):
            self.deadlocks_detected += 1
            event.fail(DeadlockError(
                f"{self.name}: waiting for {mode} on {resource!r} "
                f"would deadlock {txn}"))
            return event
        waiter = _Waiter(txn=txn, mode=mode, event=event)
        queue = self._queues.setdefault(resource, deque())
        if held == SHARED and mode == EXCLUSIVE:
            queue.appendleft(waiter)  # upgrades jump the queue
        else:
            queue.append(waiter)
        self._waiting_on.setdefault(txn, set()).add(resource)
        effective_timeout = timeout if timeout is not None \
            else self.default_timeout
        if effective_timeout is not None:
            self.sim.schedule(effective_timeout, self._expire, waiter,
                              resource)
        return event

    @staticmethod
    def _grantable(holders: Dict[TransactionId, str], txn: TransactionId,
                   mode: str, ahead: Iterable[_Waiter]) -> bool:
        """May ``txn`` take ``mode`` now, queued behind ``ahead``?"""
        for holder, held in holders.items():
            if holder != txn and not compatible(held, mode):
                return False
        # Fairness: a fresh shared request must not overtake a queued
        # exclusive request (starvation control).  Upgrades are exempt.
        return txn in holders or all(w.mode != EXCLUSIVE for w in ahead)

    # -- release ---------------------------------------------------------------

    def release_all(self, txn: TransactionId) -> None:
        """Drop every lock and queued request of ``txn`` (commit/abort).

        A request still queued (a slow representative's inquiry parked
        behind a writer after the quorum already closed) is failed at
        once with :class:`TransactionAborted`, so its handler replies
        now instead of sitting out the lock timer — it is not a
        timeout and is not counted as one.
        """
        resources = self._held_by_txn.pop(txn, _NOTHING)
        waited = self._waiting_on.pop(txn, None)
        for resource in resources | waited if waited else resources:
            holders = self._holders.get(resource)
            if holders is None:
                continue
            holders.pop(txn, None)
            queue = self._queues.get(resource)
            if queue is None:
                if not holders:
                    del self._holders[resource]
                continue
            for waiter in queue:
                if waiter.txn == txn and waiter.event.pending:
                    waiter.event.fail(TransactionAborted(
                        txn, f"finished at {self.name} while waiting "
                        f"for {waiter.mode} on {resource!r}"))
            self._queues[resource] = deque(w for w in queue if w.txn != txn)
            self._promote(resource)

    def _promote(self, resource: str) -> None:
        """Grant queued requests that have become compatible, in order;
        forget the resource's queue, and the resource, once empty."""
        holders, queue = self._holders[resource], self._queues[resource]
        while queue:
            head = queue[0]
            if head.event.pending:  # else timed out or failed while queued
                if not self._grantable(holders, head.txn, head.mode, ()):
                    break
                holders[head.txn] = head.mode
                self._held_by_txn.setdefault(head.txn, set()).add(resource)
                self._stop_waiting(head.txn, resource)
                head.event.trigger(head.mode)
            queue.popleft()
        if not queue:
            del self._queues[resource]
            if not holders:
                del self._holders[resource]

    def _stop_waiting(self, txn: TransactionId, resource: str) -> None:
        waited = self._waiting_on.get(txn)
        if waited is not None:
            waited.discard(resource)
            if not waited:
                del self._waiting_on[txn]

    # -- failure handling --------------------------------------------------------

    def _expire(self, waiter: _Waiter, resource: str) -> None:
        if not waiter.event.pending:
            return
        queue = self._queues.get(resource)
        if queue is not None:
            self._queues[resource] = deque(w for w in queue
                                           if w is not waiter)
            self._promote(resource)
        self._stop_waiting(waiter.txn, resource)
        self.lock_timeouts += 1
        waiter.event.fail(LockTimeoutError(
            f"{self.name}: {waiter.txn} timed out waiting for "
            f"{waiter.mode} on {resource!r}"))

    def clear(self) -> None:
        """Crash: drop the whole lock table; fail queued waiters."""
        for queue in self._queues.values():
            for waiter in queue:
                if waiter.event.pending:
                    waiter.event.fail(LockTimeoutError(
                        f"{self.name}: server crashed"))
        self._holders.clear()
        self._queues.clear()
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
        for waiter in self._queues.get(resource, ()):
            if waiter.txn == txn:
                return waiter.mode
        return EXCLUSIVE  # conservative

    def _blockers(self, resource: str, txn: TransactionId,
                  mode: str) -> Set[TransactionId]:
        """Transactions ``txn`` would wait behind on ``resource``."""
        holders = self._holders.get(resource, {})
        blockers = {t for t, m in holders.items()
                    if t != txn and not compatible(m, mode)}
        # Queued conflicting requests ahead of us also block us — except
        # for an upgrade (we already hold the resource): upgrades jump
        # the queue, so only current holders can block them.
        if txn not in holders:
            for waiter in self._queues.get(resource, ()):
                if waiter.txn != txn and not compatible(waiter.mode, mode):
                    blockers.add(waiter.txn)
        return blockers
