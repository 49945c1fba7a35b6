"""Vote gathering: collect responses until a quorum condition is met.

The heart of the online protocol is "poll representatives in parallel
and stop as soon as enough votes have answered".  :func:`gather_until`
implements exactly that over any mapping of keys to reply events: it
resolves replies in arrival order, hands the gather so far to an
``enough`` predicate after each one, and returns as soon as the
predicate is satisfied (or every reply has settled).

It does so without a process or a composite event of its own.  One
callback per reply event appends ``(key, event)`` to an arrival list
and triggers the single event the gather is parked on; the gather,
running inside its caller's process, consumes the arrivals in order.
A reply therefore reaches the quorum check in two scheduler hops — the
reply's callback, then the caller's resume — and replies that settle
in the same instant are all consumed by one resume.

Late responses are *not* cancelled — they simply settle after the
gather has returned (their callbacks append to a list nobody reads any
more), which mirrors real datagram RPC; the transaction layer tracks
every attempted server so their locks are cleaned up at commit/abort
time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import (TYPE_CHECKING, Any, Callable, Dict, Generator, Hashable,
                    List, Mapping, Optional, Tuple)

from ..sim.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.simulator import Simulator


@dataclass(slots=True, eq=False)
class GatherResult:
    """Outcome of a gather: successes, failures, and the stop reason.

    ``order`` records every settled reply as ``(key, settled_at, ok)``
    tuples in arrival order, and ``closed_by`` names the key whose
    settlement first satisfied the predicate (``None`` when the gather
    was pre-satisfied, closed at a deadline, or ran out of replies).
    Together they let the observability layer attribute quorum wait
    time to the representative that actually gated each interval of
    the gather.
    """

    successes: Dict[Hashable, Any]
    failures: Dict[Hashable, BaseException]
    satisfied: bool
    order: List[Tuple[Hashable, float, bool]] = field(default_factory=list)
    closed_by: Optional[Hashable] = None


def _wake(parked: List[Optional[Event]], wake: Optional[Event]) -> None:
    """Trigger ``wake`` if the gather is still parked on it."""
    if wake is not None and parked[0] is wake:
        parked[0] = None
        wake.trigger()


def _arrived(arrivals: List[Tuple[Hashable, Event]],
             parked: List[Optional[Event]], key: Hashable,
             event: Event) -> None:
    """Reply callback: queue the arrival, wake the gather if parked."""
    arrivals.append((key, event))
    _wake(parked, parked[0])


def gather_until(sim: "Simulator", calls: Mapping[Hashable, Event],
                 enough: Callable[[GatherResult], Any],
                 ) -> Generator[Any, Any, GatherResult]:
    """Await ``calls`` in completion order until ``enough(gathered)``.

    ``calls`` maps an arbitrary key (e.g. a representative) to a reply
    event.  ``enough`` sees the gather so far (its ``successes``,
    ``failures`` and settle ``order``) after every reply and answers
    ``True`` (close), ``False`` (wait) or a time: wait, but wake then
    on one timer and ask again.  Returns a :class:`GatherResult`;
    ``satisfied`` records whether the predicate was met before replies
    ran out.
    This function never raises on individual call failures — they are
    collected in ``failures`` and it is the caller's policy what a
    failed inquiry means (the predicate sees them, e.g. to stop waiting
    for an optional responder that turned out to be down).
    """
    gathered = GatherResult({}, {}, False)
    if enough(gathered) is True:
        gathered.satisfied = True
        return gathered

    # A reply schedules its callback when it settles, so replies are
    # consumed in the order they settled — deterministic, since the
    # scheduler runs same-instant work in FIFO order.  Registration
    # (call) order only breaks ties among replies that had already
    # settled before the gather began.
    arrivals: List[Tuple[Hashable, Event]] = []
    parked: List[Optional[Event]] = [None]
    for key, event in calls.items():
        event.add_callback(partial(_arrived, arrivals, parked, key))
    successes, failures, order = (gathered.successes, gathered.failures,
                                  gathered.order)
    until: Optional[float] = None
    consumed = 0
    while consumed < len(calls):
        if consumed < len(arrivals):
            key, event = arrivals[consumed]
            consumed += 1
            ok = not event.failed
            order.append((key, sim.now, ok))
            if ok:
                successes[key] = event.value
            else:
                failures[key] = event.value
            closer: Optional[Hashable] = key
        elif until is None or sim.now < until:
            wake = sim.event()
            parked[0] = wake
            if until is not None:
                sim.schedule(until - sim.now, _wake, parked, wake)
            yield wake
            continue
        else:
            closer = None           # the deadline passed, no new reply
        decision = enough(gathered)
        if decision is True:
            gathered.satisfied = True
            gathered.closed_by = closer
            return gathered
        # Only a time still ahead is a deadline: anything else waits
        # for the next reply.
        until = decision if decision and decision > sim.now else None
    return gathered
