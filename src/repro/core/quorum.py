"""Quorum mathematics: intersection, cheapest quorums, availability.

Pure functions over vote assignments — no simulation state.  These back
both the online protocol (choosing which representatives to contact,
and :class:`QuorumRule`, when a version inquiry may stop waiting) and
the closed-form analysis that reproduces the paper's example table.
"""

from __future__ import annotations

import itertools
from typing import (Any, Dict, Iterable, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

from ..chaos.health import CLOSED, OPEN
from ..errors import InvalidConfigurationError
from .votes import Representative, SuiteConfiguration


def votes_of(reps: Iterable[Representative]) -> int:
    """Total votes held by ``reps``."""
    return sum(rep.votes for rep in reps)


def is_quorum(reps: Iterable[Representative], threshold: int) -> bool:
    """True if ``reps`` jointly hold at least ``threshold`` votes."""
    return votes_of(reps) >= threshold


def quorums_intersect(config: SuiteConfiguration) -> bool:
    """Check the intersection property by brute force (used in tests).

    True iff every subset with >= r votes intersects every subset with
    >= w votes, and every two subsets with >= w votes intersect.
    """
    voting = config.voting
    n = len(voting)
    subsets = []
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            subset = frozenset(combo)
            subsets.append((subset, sum(voting[i].votes for i in combo)))
    read_quorums = [s for s, v in subsets if v >= config.read_quorum]
    write_quorums = [s for s, v in subsets if v >= config.write_quorum]
    for read_q in read_quorums:
        for write_q in write_quorums:
            if not read_q & write_q:
                return False
    for first in write_quorums:
        for second in write_quorums:
            if not first & second:
                return False
    return True


def cheapest_quorum(reps: Sequence[Representative], threshold: int,
                    cost: Optional[Mapping[str, float]] = None,
                    ) -> List[Representative]:
    """The quorum minimising the *slowest member's* cost.

    Representatives are contacted in parallel, so a quorum's latency is
    the maximum over its members.  Sorting by cost and taking the
    shortest vote-sufficient prefix is optimal for that metric: any
    quorum whose slowest member costs ``c`` is dominated by the prefix
    of all representatives costing at most ``c``.

    ``cost`` maps ``rep_id`` to a number; defaults to each
    representative's ``latency_hint``.  Ties break on ``rep_id`` for
    determinism.  Weak (zero-vote) representatives are never included.
    Raises :class:`InvalidConfigurationError` if the votes cannot reach
    ``threshold``.
    """
    def cost_of(rep: Representative) -> float:
        if cost is not None:
            return cost.get(rep.rep_id, float("inf"))
        return rep.latency_hint

    voting = [rep for rep in reps if rep.votes > 0]
    ordered = sorted(voting, key=lambda rep: (cost_of(rep), rep.rep_id))
    chosen: List[Representative] = []
    gathered = 0
    for rep in ordered:
        if gathered >= threshold:
            break
        chosen.append(rep)
        gathered += rep.votes
    if gathered < threshold:
        raise InvalidConfigurationError(
            f"votes {gathered} cannot reach threshold {threshold}")
    # Trim members whose votes turned out unnecessary (a cheap small
    # holder may be subsumed once a later big holder joined) — walk from
    # the most expensive end.
    for rep in sorted(chosen, key=lambda r: (-cost_of(r), r.rep_id)):
        if gathered - rep.votes >= threshold:
            chosen.remove(rep)
            gathered -= rep.votes
    return chosen


def _cost(rep: Representative) -> Tuple[float, str]:
    """Cheapest first: by latency hint, ties on ``rep_id``."""
    return (rep.latency_hint, rep.rep_id)


class Verdict(NamedTuple):
    """What an inquiry does next: **close**; **wait** ``until`` a time
    (``None``: the next reply); or **hedge** — close and fetch the data
    from ``hedge`` while the piggyback stays eligible.  A close at the
    deadline names the representative it stopped waiting for in
    ``waited_on``: the wait is charged to it."""

    close: bool
    until: Optional[float] = None
    hedge: Optional[Representative] = None
    waited_on: Optional[Representative] = None

    @property
    def wake(self) -> Any:
        """As :func:`~repro.core.gather.gather_until` reads a verdict."""
        return self.close or (self.until or False)


_CLOSE = Verdict(True)
_WAIT = Verdict(False)


class QuorumRule:
    """When one version inquiry may stop waiting — a pure rule.

    Built from the representatives that may be polled, the vote
    ``threshold``, the start time and each server's breaker verdict
    (``closed``; ``half-open``, an admitted probe; ``open``, refused; a
    missing server is closed).  ``data_rep``, the piggyback target, is
    the cheapest by ``(latency_hint, rep_id)`` among breaker-*closed*
    representatives: a probe is never trusted with the payload.

    Any ``r`` votes suffice (Gifford).  Once they are in, a preferred
    reply still out — the data-bearing one (bulkier, so often last;
    closing without it pays a second data trip), or a weak
    representative's cheaper than the best voting responder — gets a
    grace until
    ``started + 2 × max(vote close − started, its latency hint)``.
    Past it a missing data-bearing reply is hedged to the cheapest
    current responder, and a missing weak one is given up.
    """

    __slots__ = ("threshold", "started", "polled", "vetoed", "data_rep",
                 "weak")

    def __init__(self, reps: Sequence[Representative], threshold: int,
                 started: float,
                 breakers: Optional[Mapping[str, str]] = None,
                 read_data: bool = False) -> None:
        breakers = breakers or {}
        self.threshold = threshold
        self.started = started
        self.polled = [rep for rep in reps
                       if breakers.get(rep.server, CLOSED) != OPEN]
        self.vetoed = [rep for rep in reps
                       if breakers.get(rep.server, CLOSED) == OPEN]
        trusted = [rep for rep in self.polled
                   if breakers.get(rep.server, CLOSED) == CLOSED]
        self.data_rep = (min(trusted, key=_cost)
                         if read_data and trusted else None)
        self.weak = [rep for rep in self.polled if rep.weak]

    @property
    def attainable(self) -> int:
        """Votes the polled representatives hold (fail fast below
        ``threshold``)."""
        return votes_of(self.polled)

    def verdict(self, order: Sequence[Tuple[Representative, float, bool]],
                successes: Mapping[Representative, Dict[str, Any]],
                now: float) -> Verdict:
        """The verdict at ``now``, given every settled reply as ``(rep,
        settled_at, ok)`` in arrival order and the successes' stats."""
        votes, voted_at = 0, None
        data_rep = self.data_rep
        waiting = data_rep
        for rep, at, ok in order:
            if rep is data_rep:
                waiting = None
            if ok and voted_at is None:
                votes += rep.votes
                if votes >= self.threshold:
                    voted_at = at
        if voted_at is None:
            return _WAIT
        if waiting is None and self.weak:
            waiting = self._cheaper_weak(order, successes)
        if waiting is None:
            return _CLOSE
        deadline = self.started + 2.0 * max(voted_at - self.started,
                                             waiting.latency_hint)
        if now < deadline:
            return Verdict(False, until=deadline)
        if waiting is data_rep:
            current = max(stat["version"] for stat in successes.values())
            return Verdict(True, hedge=self.serving(successes, current)[0],
                           waited_on=waiting)
        return Verdict(True, waited_on=waiting)

    def _cheaper_weak(self, order, successes) -> Optional[Representative]:
        """The cheapest unsettled weak representative cheaper than the
        best voting responder: serving from it is the point of
        caching."""
        settled = [rep for rep, _at, _ok in order]
        best = min((rep.latency_hint for rep in successes if rep.votes > 0),
                   default=float("inf"))
        return min((rep for rep in self.weak
                    if rep not in settled and rep.latency_hint < best),
                   key=_cost, default=None)

    @staticmethod
    def serving(successes: Mapping[Representative, Dict[str, Any]],
                current: int) -> List[Representative]:
        """Responders at the ``current`` (highest replied) version,
        cheapest first."""
        return sorted((rep for rep, stat in successes.items()
                       if stat["version"] == current), key=_cost)


def quorum_latency(reps: Sequence[Representative], threshold: int,
                   latency: Optional[Mapping[str, float]] = None) -> float:
    """Latency of the cheapest quorum (max over its members)."""
    quorum = cheapest_quorum(reps, threshold, cost=latency)
    if latency is not None:
        # Same default as cheapest_quorum's cost_of: a representative
        # absent from the map costs infinity.  Indexing directly here
        # used to raise KeyError on partial maps, because the selection
        # above happily picks an unmapped representative when the
        # mapped ones cannot reach the threshold.
        return max(latency.get(rep.rep_id, float("inf")) for rep in quorum)
    return max(rep.latency_hint for rep in quorum)


def minimal_quorums(reps: Sequence[Representative], threshold: int,
                    ) -> List[frozenset]:
    """All minimal vote-sufficient subsets (by rep_id).

    Minimal: removing any member drops the subset below ``threshold``.
    Exponential in the number of voting representatives; fine for the
    suite sizes the paper considers (a handful of servers).
    """
    voting = [rep for rep in reps if rep.votes > 0]
    result: List[frozenset] = []
    for size in range(1, len(voting) + 1):
        for combo in itertools.combinations(voting, size):
            total = votes_of(combo)
            if total < threshold:
                continue
            if all(total - rep.votes < threshold for rep in combo):
                result.append(frozenset(rep.rep_id for rep in combo))
    return result


def availability_of_votes(
        reps: Sequence[Representative],
        availability: Mapping[str, float],
        threshold: int) -> float:
    """P[available representatives jointly hold >= threshold votes].

    Representatives fail independently; ``availability`` maps ``rep_id``
    to its probability of being up.  Exact dynamic programming over the
    distribution of the available vote total — the computation behind
    the blocking probabilities in the paper's example table
    (blocking probability = 1 - this value).
    """
    distribution: Dict[int, float] = {0: 1.0}
    for rep in reps:
        p_up = availability.get(rep.rep_id)
        if p_up is None:
            raise KeyError(f"no availability for {rep.rep_id}")
        if not 0.0 <= p_up <= 1.0:
            raise ValueError(f"availability of {rep.rep_id} not in [0,1]")
        updated: Dict[int, float] = {}
        for total, probability in distribution.items():
            up_total = total + rep.votes
            updated[up_total] = updated.get(up_total, 0.0) \
                + probability * p_up
            updated[total] = updated.get(total, 0.0) \
                + probability * (1.0 - p_up)
        distribution = updated
    return sum(probability for total, probability in distribution.items()
               if total >= threshold)


def blocking_probability(reps: Sequence[Representative],
                         availability: Mapping[str, float],
                         threshold: int) -> float:
    """P[an operation needing ``threshold`` votes cannot proceed]."""
    return 1.0 - availability_of_votes(reps, availability, threshold)


def feasible_quorum_pairs(total_votes: int) -> List[Tuple[int, int]]:
    """All (r, w) pairs satisfying the intersection rules for ``total_votes``.

    Used by the quorum trade-off sweep (experiment F4).
    """
    pairs = []
    for w in range(total_votes // 2 + 1, total_votes + 1):
        for r in range(max(1, total_votes - w + 1), total_votes + 1):
            pairs.append((r, w))
    return pairs
