"""Meeting scheduling across calendars: multi-suite transactions.

Violet's model is one calendar *per user*, each its own file suite
(possibly with different vote tunings).  Scheduling a meeting must
update every attendee's calendar **atomically** — the meeting appears
on all of them or none — and must reject a slot any attendee has
already filled, without time-of-check/time-of-use races.

Both properties come straight from the transaction substrate: the
scheduler reads every attendee's calendar ``for_update`` (exclusive
locks on each suite's write quorum), checks conflicts, stages one write
per calendar, and commits with two-phase commit across all the suites'
servers.  This is exactly the workload Gifford built file suites for.
Each transaction runs in the manager's attempt loop
(:meth:`~repro.txn.coordinator.TransactionManager.transact`): a
calendar that adopts a newer configuration mid-transaction re-runs it
under the new one, like any suite operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from ..chaos.retry import RetryPolicy
from ..core.suite import FileSuiteClient
from ..txn.coordinator import TransactionManager
from .calendar import (Appointment, CalendarError, decode_calendar,
                       encode_calendar)


class SchedulingConflict(CalendarError):
    """The requested slot is taken on at least one attendee's calendar."""

    def __init__(self, blockers: Dict[str, str]) -> None:
        detail = ", ".join(f"{user} has {title!r}"
                           for user, title in sorted(blockers.items()))
        super().__init__(f"slot unavailable: {detail}")
        self.blockers = blockers


@dataclass(frozen=True)
class Meeting:
    """A scheduled meeting, mirrored on every participant's calendar."""

    meeting_id: str
    title: str
    start: float
    end: float
    organizer: str
    participants: Tuple[str, ...]


#: Attempts a scheduling transaction makes, ×2 from 50 ms apart.
ATTEMPTS = 4
RETRY = RetryPolicy(base=50.0, jitter=0.0)


class MeetingScheduler:
    """Schedules meetings across per-user calendar suites."""

    def __init__(self, manager: TransactionManager,
                 calendars: Dict[str, FileSuiteClient]) -> None:
        if not calendars:
            raise ValueError("need at least one calendar")
        self.manager = manager
        self.calendars = dict(calendars)
        self._next_meeting = 0

    def _users_of(self, organizer: str,
                  attendees: Sequence[str]) -> List[str]:
        users = [organizer, *attendees]
        unknown = [user for user in users if user not in self.calendars]
        if unknown:
            raise CalendarError(f"no calendar for {unknown}")
        # Deterministic order avoids lock-ordering deadlocks between
        # concurrent schedulers.
        return sorted(set(users))

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(self, organizer: str, attendees: Sequence[str],
                 title: str, start: float, end: float,
                 ) -> Generator[Any, Any, Meeting]:
        """Put the meeting on every participant's calendar, atomically.

        Raises :class:`SchedulingConflict` (without changing anything)
        if any participant is busy during [start, end).
        """
        users = self._users_of(organizer, attendees)
        self._next_meeting += 1
        meeting_id = (f"{self.manager.endpoint.host.name}"
                      f"-m{self._next_meeting}")
        meeting = Meeting(meeting_id=meeting_id, title=title, start=start,
                          end=end, organizer=organizer,
                          participants=tuple(users))

        def attempt(txn):
            states: Dict[str, Tuple[int, List[Appointment]]] = {}
            blockers: Dict[str, str] = {}
            for user in users:
                current = yield from self.calendars[user].read_in(
                    txn, for_update=True)
                next_id, entries = decode_calendar(current.data)
                states[user] = (next_id, entries)
                for entry in entries:
                    if entry.start < end and start < entry.end:
                        blockers[user] = entry.title
                        break
            if blockers:
                raise SchedulingConflict(blockers)
            for user in users:
                next_id, entries = states[user]
                entries.append(Appointment(
                    entry_id=next_id, title=title, start=start, end=end,
                    owner=organizer, attendees=tuple(u for u in users
                                                     if u != user),
                    meeting_id=meeting_id))
                yield from self.calendars[user].write_in(
                    txn, encode_calendar(next_id + 1, entries))
            return meeting

        result, _begun, _adopted = yield from self.manager.transact(
            attempt, RETRY, ATTEMPTS)
        return result

    def cancel(self, meeting: Meeting, by: str,
               ) -> Generator[Any, Any, None]:
        """Remove the meeting from every participant's calendar."""
        if by != meeting.organizer:
            raise CalendarError(
                f"only {meeting.organizer} may cancel {meeting.title!r}")

        def attempt(txn):
            for user in meeting.participants:
                current = yield from self.calendars[user].read_in(
                    txn, for_update=True)
                next_id, entries = decode_calendar(current.data)
                remaining = [entry for entry in entries
                             if entry.meeting_id != meeting.meeting_id]
                if len(remaining) != len(entries):
                    yield from self.calendars[user].write_in(
                        txn, encode_calendar(next_id, remaining))
            return None

        yield from self.manager.transact(attempt, RETRY, ATTEMPTS)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def find_free_slot(self, users: Sequence[str], duration: float,
                       window_start: float, window_end: float,
                       granularity: float = 0.5,
                       ) -> Generator[Any, Any, Optional[float]]:
        """Earliest start in the window where every user is free.

        A convenience query (non-transactional across users — the
        subsequent :meth:`schedule` re-checks under locks, so a race
        simply surfaces as :class:`SchedulingConflict`).
        """
        participants = self._users_of(users[0], users[1:])
        busy: List[Tuple[float, float]] = []
        for user in participants:
            result = yield from self.calendars[user].read()
            _next_id, entries = decode_calendar(result.data)
            busy.extend((entry.start, entry.end) for entry in entries)
        slot = window_start
        while slot + duration <= window_end:
            if all(not (slot < b_end and b_start < slot + duration)
                   for b_start, b_end in busy):
                return slot
            slot += granularity
        return None

