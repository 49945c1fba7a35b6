"""The planner, the autopilot's settings, and the hard safety gate.

**The planner** (:func:`plan_move`) is a pure function of one window's
profiles.  It asks :func:`repro.core.tuning.best_configuration` — the
paper's closed-form model — for the best vote vector that keeps the
total votes and the current ``r`` and ``w``, scoring reads with the
inquiry quorum and pricing blocking at a caller's timeout, and applies
one hysteresis rule: move toward that vector when its predicted mean
latency beats the current vector's by more than :data:`MARGIN_MS` (a
*demote*), or, off the seed weights, back toward the seed as soon as
the seed vector is within that margin of it (a *restore*).  A move
shifts at most ``max_shift_per_round`` votes.

:class:`AutopilotPolicy` holds the five settings a deployment may
tune; what counts as a worthwhile move is the model's, not a weight
here.

**The gate** is the last line: a pure function over the *proposed*
vote vector that rejects anything violating Gifford's feasibility
rules — ``r + w > N`` and ``2w > N`` with ``N`` the proposed total,
quorums within ``[1, N]`` — or dropping the count of voting
representatives below the survivability floor
(``min_voting_reps``).  The controller consults it before every
reconfiguration, and a rejection is recorded, not retried blindly.
Because the gate checks the raw vote dictionary *before* a
:class:`SuiteConfiguration` is constructed, an infeasible proposal is
refused as data instead of exploding in the constructor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, NamedTuple, Optional, Sequence

from ..core.tuning import ServerProfile, best_configuration, score
from ..core.votes import SuiteConfiguration

#: Predicted mean-latency gain (ms) a move must beat; within it the
#: seed weights are good enough to go back to.
MARGIN_MS = 5.0


@dataclass(frozen=True)
class AutopilotPolicy:
    """Tunable knobs; the defaults favour stability over reactivity."""

    #: Votes moved by a single reassignment.
    max_shift_per_round: int = 1
    #: Consecutive observations a move must stay warranted before it
    #: is proposed.
    patience: int = 2
    #: Quiet period after an applied reassignment (ms).
    cooldown_ms: float = 1_500.0
    #: Survivability floor: a proposal may never leave fewer voting
    #: representatives than this.
    min_voting_reps: int = 2
    #: Default pacing of the background loop (ms between observations).
    interval_ms: float = 500.0


class Move(NamedTuple):
    """One warranted reassignment: ``votes`` is the proposed vector, and
    ``rep_id`` the donor of a demote or the taker of a restore."""

    kind: str                               # "demote" | "restore"
    rep_id: str
    votes: Dict[str, int]
    gain_ms: float                          # predicted mean-latency gain


def with_votes(config: SuiteConfiguration,
               votes: Dict[str, int]) -> SuiteConfiguration:
    """``config`` with the vote vector ``votes`` (keyed by rep_id)."""
    return config.evolve(representatives=tuple(
        replace(rep, votes=votes[rep.rep_id])
        for rep in config.representatives))


def plan_move(config: SuiteConfiguration,
              profiles: Sequence[ServerProfile], read_fraction: float,
              seed_votes: Dict[str, int], blocked_cost: float,
              max_shift: int = 1) -> Optional[Move]:
    """The move ``profiles`` (one per representative's server) warrant
    from ``config``: toward the model's best vector, back toward
    ``seed_votes``, or none."""
    # Worst first: among equally good vectors the model's tie break (the
    # smaller vote tuple) keeps votes off the worse representatives, and
    # so does the choice of donor in _toward.
    profiles = sorted(profiles, key=lambda profile: (
        profile.availability, -profile.latency, profile.name))
    model = dict(inquiry_latency={profile.name: profile.latency
                                  for profile in profiles},
                 blocked_cost=blocked_cost)
    total = config.total_votes
    best = best_configuration(
        profiles, read_fraction, max_votes_per_rep=total,
        suite_name=config.suite_name, total_votes=total,
        quorums=(config.read_quorum, config.write_quorum), **model)
    current = score(config, profiles, read_fraction, **model).mean_latency
    votes = {rep.rep_id: rep.votes for rep in config.representatives}
    order = {profile.name: index for index, profile in enumerate(profiles)}
    ranked = sorted(votes, key=lambda rep_id: order[
        config.representative(rep_id).server])
    if votes != seed_votes:
        seed = score(with_votes(config, seed_votes), profiles,
                     read_fraction, **model).mean_latency
        if seed - best.mean_latency <= MARGIN_MS:
            return _toward(ranked, votes, seed_votes, "restore",
                           current - seed, max_shift)
    if current - best.mean_latency > MARGIN_MS:
        chosen = {rep.server: rep.votes
                  for rep in best.config.representatives}
        target = {rep.rep_id: chosen[rep.server]
                  for rep in config.representatives}
        return _toward(ranked, votes, target, "demote",
                       current - best.mean_latency, max_shift)
    return None


def _toward(ranked: List[str], votes: Dict[str, int],
            target: Dict[str, int], kind: str, gain: float,
            max_shift: int) -> Move:
    """Move up to ``max_shift`` votes from the representative furthest
    above ``target`` to the one furthest below it, ties to the worst
    donor and the best taker (``ranked`` is worst first)."""
    donor = max(ranked, key=lambda rep_id: votes[rep_id] - target[rep_id])
    taker = max(reversed(ranked),
                key=lambda rep_id: target[rep_id] - votes[rep_id])
    shift = min(max_shift, votes[donor] - target[donor],
                target[taker] - votes[taker])
    proposal = dict(votes)
    proposal[donor] -= shift
    proposal[taker] += shift
    return Move(kind, donor if kind == "demote" else taker, proposal,
                round(gain, 3))


def gate_proposal(current: SuiteConfiguration, votes: Dict[str, int],
                  policy: AutopilotPolicy) -> Optional[str]:
    """Why ``votes`` must be rejected, or ``None`` if it is safe.

    ``votes`` maps every ``rep_id`` of ``current`` to its proposed
    weight; the read/write quorum sizes are taken from ``current``
    unchanged.  Pure and side-effect free — the caller decides what to
    do with the verdict.
    """
    unknown = set(votes) - {rep.rep_id
                            for rep in current.representatives}
    if unknown:
        return f"unknown representatives: {sorted(unknown)}"
    if any(v < 0 for v in votes.values()):
        return "negative votes"
    total = sum(votes.values())
    if total <= 0:
        return "no votes left in the suite"
    r, w = current.read_quorum, current.write_quorum
    if not 1 <= r <= total:
        return f"read quorum {r} outside [1, {total}]"
    if not 1 <= w <= total:
        return f"write quorum {w} outside [1, {total}]"
    if r + w <= total:
        return (f"r + w = {r + w} would not exceed total votes {total} "
                "(a read quorum could miss the latest write)")
    if 2 * w <= total:
        return (f"2w = {2 * w} would not exceed total votes {total} "
                "(two write quorums could be disjoint)")
    voting = sum(1 for v in votes.values() if v > 0)
    if voting < policy.min_voting_reps:
        return (f"only {voting} voting representatives left, floor is "
                f"{policy.min_voting_reps}")
    return None
