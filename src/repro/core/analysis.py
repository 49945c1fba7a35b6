"""Closed-form performance and reliability analysis of a file suite.

Reproduces the arithmetic behind the paper's example table (Section 3):
given per-representative latencies and availabilities plus a vote
assignment and quorums, compute each operation's latency and blocking
probability.

Model (the paper's):

* Representatives are accessed in parallel, so a quorum's latency is
  the **maximum** over its members, and the best quorum is the one
  minimising that maximum.
* The version-number inquiry moves no file data; its cost is negligible
  next to a file transfer, so **read latency is the latency of the
  cheapest representative able to serve the data** — which may be a
  weak representative (the paper's Example 1 quotes 65 ms for exactly
  this reason).  ``read_latency_strict`` is also provided for the
  conservative two-phase accounting (inquiry quorum, then transfer).
* **Write latency** is the latency of the slowest member of the
  cheapest write quorum.
* Representatives fail independently; an operation **blocks** when the
  up representatives hold fewer votes than its quorum.  Blocking
  probabilities are computed exactly (dynamic programming over the
  available-vote distribution).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from .quorum import (availability_of_votes, blocking_probability,
                     cheapest_quorum, quorum_latency)
from .votes import Representative, SuiteConfiguration

Availability = Union[float, Mapping[str, float]]


@dataclass(frozen=True)
class OperationEstimate:
    """Predicted behaviour of one operation class."""

    latency: float
    blocking_probability: float


@dataclass(frozen=True)
class SuiteEstimate:
    """The analytic row for a suite — one column of the paper's table."""

    name: str
    read: OperationEstimate
    write: OperationEstimate

    def as_row(self) -> Dict[str, float]:
        return {
            "read_latency": self.read.latency,
            "read_blocking": self.read.blocking_probability,
            "write_latency": self.write.latency,
            "write_blocking": self.write.blocking_probability,
        }


class SuiteAnalysis:
    """Analytic model of one suite configuration.

    ``latency`` maps ``rep_id`` to the representative's read/write
    latency (defaults to the configuration's latency hints);
    ``availability`` is either one probability shared by every
    representative (the paper uses 0.99) or a per-``rep_id`` map.
    """

    def __init__(self, config: SuiteConfiguration,
                 latency: Optional[Mapping[str, float]] = None,
                 availability: Availability = 0.99) -> None:
        self.config = config
        if latency is None:
            latency = {rep.rep_id: rep.latency_hint
                       for rep in config.representatives}
        self.latency = dict(latency)
        if isinstance(availability, Mapping):
            self.availability = dict(availability)
        else:
            self.availability = {rep.rep_id: float(availability)
                                 for rep in config.representatives}

    # ------------------------------------------------------------------
    # Latency
    # ------------------------------------------------------------------

    def read_latency(self, use_weak: bool = True) -> float:
        """Latency of the cheapest representative able to serve a read.

        The paper's model: the version inquiry is (comparatively) free,
        data comes from the fastest current representative — including
        weak ones when ``use_weak``.
        """
        candidates = [rep for rep in self.config.representatives
                      if use_weak or rep.votes > 0]
        return min(self.latency[rep.rep_id] for rep in candidates)

    def read_latency_strict(
            self, inquiry_latency: Optional[Mapping[str, float]] = None,
            use_weak: bool = True) -> float:
        """Two-phase accounting: inquiry quorum, then the data transfer.

        ``inquiry_latency`` is the cost of a version-number inquiry per
        representative (defaults to zero — the paper's assumption).
        """
        inquiry = 0.0
        if inquiry_latency is not None:
            inquiry = quorum_latency(self.config.voting,
                                     self.config.read_quorum,
                                     latency=dict(inquiry_latency))
        return inquiry + self.read_latency(use_weak=use_weak)

    def write_latency(self) -> float:
        """Slowest member of the cheapest write quorum."""
        return quorum_latency(self.config.voting, self.config.write_quorum,
                              latency=self.latency)

    def write_quorum_members(self) -> List[str]:
        """The rep_ids of the cheapest write quorum (for reporting)."""
        quorum = cheapest_quorum(self.config.voting,
                                 self.config.write_quorum,
                                 cost=self.latency)
        return sorted(rep.rep_id for rep in quorum)

    def mean_latency(self, read_fraction: float,
                     use_weak: bool = True) -> float:
        """Mean operation latency under a read/write mix."""
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError("read fraction must be in [0, 1]")
        return (read_fraction * self.read_latency(use_weak=use_weak)
                + (1.0 - read_fraction) * self.write_latency())

    # ------------------------------------------------------------------
    # Reliability
    # ------------------------------------------------------------------

    def read_blocking_probability(self) -> float:
        """P[fewer than r votes are up]."""
        return blocking_probability(self.config.voting, self.availability,
                                    self.config.read_quorum)

    def write_blocking_probability(self) -> float:
        """P[fewer than w votes are up]."""
        return blocking_probability(self.config.voting, self.availability,
                                    self.config.write_quorum)

    def read_availability(self) -> float:
        return availability_of_votes(self.config.voting, self.availability,
                                     self.config.read_quorum)

    def write_availability(self) -> float:
        return availability_of_votes(self.config.voting, self.availability,
                                     self.config.write_quorum)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def estimate(self, use_weak: bool = True) -> SuiteEstimate:
        return SuiteEstimate(
            name=self.config.suite_name,
            read=OperationEstimate(
                latency=self.read_latency(use_weak=use_weak),
                blocking_probability=self.read_blocking_probability()),
            write=OperationEstimate(
                latency=self.write_latency(),
                blocking_probability=self.write_blocking_probability()),
        )


def message_cost(config: SuiteConfiguration) -> Dict[str, int]:
    """Messages per operation in the happy path (request + reply each).

    * **read** — one round: a version inquiry to every representative
      (weak ones included: they are read candidates).  The data rides
      the cheapest representative's inquiry reply (the
      single-round-trip fast path) and every representative drops its
      shared lock as it replies (a suite ``read()`` is its
      transaction's only operation), so neither a data transfer nor a
      lock-release round appears in the count.  A ``read_in`` inside a
      caller's transaction holds its locks until that transaction's
      commit, whose messages belong to the commit, not the read.
    * **read_fallback** — the legacy two-trip read (fast path off,
      piggyback target stale or reply truncated): the same messages
      plus one dedicated data request + reply.
    * **write** — an exclusive inquiry to every voting representative,
      then the data staged at the cheapest write quorum by calls that
      carry the vote request (a suite ``write()`` stages once per
      representative, so its stage is its phase 1), a release to each
      polled representative left out of the quorum, and phase 2 to the
      quorum that staged.  A ``write_in`` inside a caller's
      transaction stages without voting; that transaction's commit
      then runs phase 1 as a round of its own, to every participant.
    * **refresh** — per representative brought current in the
      background from data the operation already held: one one-phase
      install call and its reply.

    ``tests/test_message_accounting.py`` pins the implementation to
    exactly these numbers, so a protocol regression that adds a round
    trip cannot land silently.
    """
    voting = len(config.voting)
    total = len(config.representatives)
    quorum = len(cheapest_quorum(config.voting, config.write_quorum))
    read = 2 * total
    read_fallback = read + 2
    inquiry, stage_and_vote = 2 * voting, 2 * quorum
    release, commit = 2 * (voting - quorum), 2 * quorum
    write = inquiry + stage_and_vote + release + commit
    return {"read": read, "read_fallback": read_fallback, "write": write,
            "refresh": 2}


def availability_sweep(config: SuiteConfiguration,
                       latencies: Mapping[str, float],
                       probabilities: Iterable[float],
                       ) -> List[Tuple[float, float, float]]:
    """(p, read blocking, write blocking) rows for experiment F1."""
    rows = []
    for p in probabilities:
        analysis = SuiteAnalysis(config, latency=dict(latencies),
                                 availability=p)
        rows.append((p, analysis.read_blocking_probability(),
                     analysis.write_blocking_probability()))
    return rows


def quorum_tradeoff(config: SuiteConfiguration,
                    availability: Availability,
                    ) -> List[Dict[str, float]]:
    """Read vs write availability along the feasible (r, w) frontier.

    Slides (r, w) over every pair legal for the configuration's vote
    total (experiment F4).  Returns one row per pair.
    """
    from .quorum import feasible_quorum_pairs

    rows = []
    total = config.total_votes
    for r, w in feasible_quorum_pairs(total):
        shifted = config.evolve(read_quorum=r, write_quorum=w)
        analysis = SuiteAnalysis(shifted, availability=availability)
        rows.append({
            "r": float(r),
            "w": float(w),
            "read_availability": analysis.read_availability(),
            "write_availability": analysis.write_availability(),
        })
    return rows
