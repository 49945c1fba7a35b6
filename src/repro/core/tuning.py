"""Choosing a vote assignment: the paper's tuning problem, automated.

Gifford's Section 3 argues by example that votes and quorums should be
matched to the file's environment — per-representative latency and
availability, and the workload's read/write mix.  This module turns
that argument into a small optimizer: enumerate vote assignments and
quorum pairs over the given servers (bounded per-representative votes
keep the space tiny for realistic suite sizes), score each candidate
with the closed-form model, and return the non-dominated front or the
single best configuration under explicit constraints.

The paper's own examples fall out as optima of the right objectives —
asserted in ``tests/test_core_tuning.py`` and explored by
``benchmarks/bench_fig_tuning.py``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import InvalidConfigurationError
from .analysis import SuiteAnalysis
from .votes import Representative, SuiteConfiguration


@dataclass(frozen=True)
class ServerProfile:
    """What the tuner knows about one candidate server."""

    name: str
    latency: float          # round-trip data transfer cost (ms)
    availability: float     # probability of being up

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError(f"{self.name}: negative latency")
        if not 0.0 < self.availability <= 1.0:
            raise ValueError(f"{self.name}: availability must be in (0,1]")


@dataclass(frozen=True)
class Candidate:
    """One scored configuration."""

    config: SuiteConfiguration
    read_latency: float
    write_latency: float
    read_availability: float
    write_availability: float
    mean_latency: float

    @property
    def votes(self) -> Tuple[int, ...]:
        return tuple(rep.votes for rep in self.config.representatives)

    @property
    def quorums(self) -> Tuple[int, int]:
        return (self.config.read_quorum, self.config.write_quorum)

    def dominates(self, other: "Candidate") -> bool:
        """Pareto dominance on (mean latency, read avail, write avail)."""
        at_least = (self.mean_latency <= other.mean_latency
                    and self.read_availability >= other.read_availability
                    and self.write_availability >= other.write_availability)
        strictly = (self.mean_latency < other.mean_latency
                    or self.read_availability > other.read_availability
                    or self.write_availability > other.write_availability)
        return at_least and strictly


def enumerate_configurations(servers: Sequence[ServerProfile],
                             max_votes_per_rep: int = 3,
                             allow_weak: bool = True,
                             suite_name: str = "tuned",
                             total_votes: Optional[int] = None,
                             quorums: Optional[Tuple[int, int]] = None,
                             ) -> Iterator[SuiteConfiguration]:
    """Yield every valid (assignment, r, w) combination.

    Vote patterns that are permutations of each other are all yielded —
    *which* server gets the weight matters, since latencies and
    availabilities differ.  Assignments with zero total votes are
    skipped; weak (zero-vote) representatives are included unless
    ``allow_weak`` is false.  ``total_votes`` keeps only assignments
    of that total and ``quorums`` only that ``(r, w)`` pair: the space
    of a reassignment that leaves the quorum sizes as they are.
    """
    if not servers:
        return
    lower = 0 if allow_weak else 1
    for votes in itertools.product(range(lower, max_votes_per_rep + 1),
                                   repeat=len(servers)):
        total = sum(votes)
        if total == 0 or total_votes not in (None, total):
            continue
        representatives = tuple(
            Representative(rep_id=f"rep-{profile.name}",
                           server=profile.name, votes=vote,
                           latency_hint=profile.latency)
            for profile, vote in zip(servers, votes))
        for write_quorum in range(total // 2 + 1, total + 1):
            for read_quorum in range(total - write_quorum + 1, total + 1):
                if quorums not in (None, (read_quorum, write_quorum)):
                    continue
                try:
                    yield SuiteConfiguration(
                        suite_name=suite_name,
                        representatives=representatives,
                        read_quorum=read_quorum,
                        write_quorum=write_quorum)
                except InvalidConfigurationError:  # pragma: no cover
                    continue


def score(config: SuiteConfiguration, servers: Sequence[ServerProfile],
          read_fraction: float,
          inquiry_latency: Optional[Dict[str, float]] = None,
          blocked_cost: float = 0.0) -> Candidate:
    """Evaluate one configuration with the closed-form model.

    ``inquiry_latency`` (server name → version-inquiry round-trip cost)
    switches reads to the strict two-phase accounting: gathering ``r``
    votes of inquiries, then the cheapest data transfer.  Without it
    the paper's pure model is used, under which the read quorum size
    affects only availability.  ``blocked_cost`` is what an operation
    that finds its quorum unavailable costs: each operation class's
    mean latency then adds its blocking probability times it.
    """
    by_server = {profile.name: profile for profile in servers}
    reps = config.representatives
    analysis = SuiteAnalysis(
        config,
        latency={rep.rep_id: by_server[rep.server].latency for rep in reps},
        availability={rep.rep_id: by_server[rep.server].availability
                      for rep in reps})
    if inquiry_latency is not None:
        read_latency = analysis.read_latency_strict(
            {rep.rep_id: inquiry_latency[rep.server] for rep in reps
             if rep.server in inquiry_latency})
    else:
        read_latency = analysis.read_latency()
    write_latency = analysis.write_latency()
    read_availability = analysis.read_availability()
    write_availability = analysis.write_availability()
    read_cost = read_latency + (1.0 - read_availability) * blocked_cost
    write_cost = write_latency + (1.0 - write_availability) * blocked_cost
    return Candidate(
        config=config,
        read_latency=read_latency,
        write_latency=write_latency,
        read_availability=read_availability,
        write_availability=write_availability,
        mean_latency=(read_fraction * read_cost
                      + (1.0 - read_fraction) * write_cost),
    )


def pareto_front(candidates: Iterable[Candidate]) -> List[Candidate]:
    """Non-dominated candidates, ordered by mean latency."""
    pool = list(candidates)
    front = [candidate for candidate in pool
             if not any(other.dominates(candidate) for other in pool)]
    return sorted(front, key=lambda c: (c.mean_latency,
                                        -c.read_availability,
                                        -c.write_availability))


def best_configuration(servers: Sequence[ServerProfile],
                       read_fraction: float,
                       min_read_availability: float = 0.0,
                       min_write_availability: float = 0.0,
                       max_votes_per_rep: int = 3,
                       allow_weak: bool = True,
                       suite_name: str = "tuned",
                       inquiry_latency: Optional[Dict[str, float]] = None,
                       total_votes: Optional[int] = None,
                       quorums: Optional[Tuple[int, int]] = None,
                       blocked_cost: float = 0.0,
                       ) -> Candidate:
    """The minimum-mean-latency configuration meeting the constraints.

    ``total_votes`` and ``quorums`` narrow the search as
    :func:`enumerate_configurations` does; ``blocked_cost`` prices
    blocking as :func:`score` does.  Raises
    :class:`InvalidConfigurationError` if no configuration over the
    given servers can meet the availability floors.
    """
    best: Optional[Candidate] = None
    for config in enumerate_configurations(
            servers, max_votes_per_rep=max_votes_per_rep,
            allow_weak=allow_weak, suite_name=suite_name,
            total_votes=total_votes, quorums=quorums):
        candidate = score(config, servers, read_fraction,
                          inquiry_latency=inquiry_latency,
                          blocked_cost=blocked_cost)
        if candidate.read_availability < min_read_availability:
            continue
        if candidate.write_availability < min_write_availability:
            continue
        if best is None or _preferred(candidate, best):
            best = candidate
    if best is None:
        raise InvalidConfigurationError(
            "no vote assignment over these servers meets the "
            "availability constraints")
    return best


def _preferred(challenger: Candidate, incumbent: Candidate) -> bool:
    """Deterministic total order: latency, then availabilities, then
    smaller total votes (simpler suites win ties)."""
    challenger_key = (challenger.mean_latency,
                      -challenger.read_availability,
                      -challenger.write_availability,
                      challenger.config.total_votes,
                      challenger.votes)
    incumbent_key = (incumbent.mean_latency,
                     -incumbent.read_availability,
                     -incumbent.write_availability,
                     incumbent.config.total_votes,
                     incumbent.votes)
    return challenger_key < incumbent_key


def tune(servers: Sequence[ServerProfile], read_fraction: float,
         max_votes_per_rep: int = 3, allow_weak: bool = True,
         inquiry_latency: Optional[Dict[str, float]] = None,
         ) -> List[Candidate]:
    """Score the whole space and return the Pareto front."""
    candidates = [score(config, servers, read_fraction,
                        inquiry_latency=inquiry_latency)
                  for config in enumerate_configurations(
                      servers, max_votes_per_rep=max_votes_per_rep,
                      allow_weak=allow_weak)]
    return pareto_front(candidates)
