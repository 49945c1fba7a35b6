"""The vote autopilot: observe → score → plan → gate → reconfigure.

:class:`WeightAutopilot` is a deterministic control loop over one
file suite.  Each step it folds the registries into per-representative
signals (:mod:`~repro.autonomy.signals`), scores them with hysteresis
(:mod:`~repro.autonomy.policy`), and — at most one reassignment per
step, never inside the cooldown — moves ``max_shift_per_round`` votes:

* **demote** — a representative hot for ``demote_patience``
  consecutive observations (instantaneous score and EWMA both past
  ``demote_threshold``) donates votes to the healthiest representative;
* **restore** — a representative below its seed weight, healthy for
  ``restore_patience`` consecutive observations with its breaker
  closed, takes votes back from whoever is above seed weight.

Total votes are conserved, so ``r + w > N`` and ``2w > N`` keep
holding with the same quorum sizes; the safety gate re-checks anyway
and additionally enforces the ``min_voting_reps`` survivability floor.
An accepted proposal is executed through
:func:`repro.core.reconfig.change_configuration` — an ordinary write
under the *old* configuration's quorums, so the paper's safety
argument covers every autonomous change.  Everything observable lands
in ``autonomy.*`` metrics and the JSON-safe :meth:`state`.

The controller contains no wall-clock reads and no randomness: on the
simulator it is stepped by the scheduler (``start()`` spawns
:meth:`run` as a process) and replays bit-identically per seed; the
live kernel runs the same generator as a background task.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import (TYPE_CHECKING, Any, Callable, Dict, Generator, List,
                    Optional, Tuple)

from ..chaos.health import CLOSED, OPEN
from ..core.reconfig import change_configuration
from ..core.suite import FileSuiteClient
from ..core.votes import Representative, SuiteConfiguration
from ..errors import ReproError
from .policy import AutopilotPolicy, gate_proposal, score_signals
from .signals import RepSignals, collect_signals

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..chaos.health import HealthTracker
    from ..sim.simulator import Process


@dataclass
class ReassignmentRecord:
    """One proposal's fate — applied, gate-rejected, or failed."""

    at: float
    kind: str                               # "demote" | "restore"
    rep_id: str
    server: str
    score: float
    votes_before: Dict[str, int]
    votes_after: Dict[str, int]
    applied: bool = False
    config_version: Optional[int] = None
    rejected_by_gate: Optional[str] = None
    error: Optional[str] = None

    def to_json(self) -> Dict[str, Any]:
        return asdict(self)


class WeightAutopilot:
    """Autonomous vote reassignment for one suite client.

    The breaker terms come from the suite's :attr:`~repro.core.suite.
    FileSuiteClient.health` — the :class:`HealthTracker` its client's
    RPC endpoint feeds; without one, breaker terms read closed and the
    autopilot steers on lag and blocking share alone.
    """

    def __init__(self, suite: FileSuiteClient,
                 policy: Optional[AutopilotPolicy] = None,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.suite = suite
        self.health: Optional["HealthTracker"] = suite.health
        self.policy = policy or AutopilotPolicy()
        self.metrics = suite.metrics
        self.clock = clock or (lambda: suite.sim.now)
        self.seed_votes: Dict[str, int] = {
            rep.rep_id: rep.votes
            for rep in suite.config.representatives}
        self.records: List[ReassignmentRecord] = []
        #: server -> {"rep_id", "score", "at"} — the last observation
        #: that crossed the demote threshold (kept after recovery, as
        #: diagnostic history for ``repro doctor``).
        self.flagged: Dict[str, Dict[str, Any]] = {}
        self.ewma: Dict[str, float] = {}
        self._hot_streak: Dict[str, int] = {}
        self._cool_streak: Dict[str, int] = {}
        self._last_opens: Dict[str, int] = {}
        self._last_wait: Dict[str, float] = {}
        self._last_applied_at: Optional[float] = None
        self._scores: Dict[str, float] = {}
        self._stopped = False
        self._process: Optional["Process"] = None
        self._mirror_weights()

    # ------------------------------------------------------------------
    # Observation and scoring
    # ------------------------------------------------------------------

    def weights(self) -> Dict[str, int]:
        """The live vote vector, keyed by rep_id."""
        return {rep.rep_id: rep.votes
                for rep in self.suite.config.representatives}

    def observe(self) -> Dict[str, RepSignals]:
        """Collect signals and update scores, streaks and flags."""
        config = self.suite.config
        self._rebaseline_if_members_changed(config)
        snapshot = self.health.snapshot() if self.health is not None \
            else {}
        signals = collect_signals(config, self.metrics, snapshot,
                                  previous_wait=self._last_wait)
        num_reps = len(config.representatives)
        alpha = self.policy.ewma_alpha
        now = self.clock()
        self._scores: Dict[str, float] = {}
        for rep_id, sig in signals.items():
            opens_delta = sig.opens - self._last_opens.get(rep_id, 0)
            self._last_opens[rep_id] = sig.opens
            inst = score_signals(sig, self.policy,
                                 opens_delta=opens_delta,
                                 num_reps=num_reps)
            self._scores[rep_id] = inst
            previous = self.ewma.get(rep_id, inst)
            self.ewma[rep_id] = alpha * inst + (1 - alpha) * previous
            if inst >= self.policy.demote_threshold:
                self._hot_streak[rep_id] = \
                    self._hot_streak.get(rep_id, 0) + 1
                self._cool_streak[rep_id] = 0
                self.flagged[sig.server] = {
                    "rep_id": rep_id, "score": inst, "at": now}
            elif inst <= self.policy.restore_threshold \
                    and sig.breaker_state == CLOSED:
                self._cool_streak[rep_id] = \
                    self._cool_streak.get(rep_id, 0) + 1
                self._hot_streak[rep_id] = 0
            else:
                self._hot_streak[rep_id] = 0
                self._cool_streak[rep_id] = 0
        self._mirror_weights()
        return signals

    def _rebaseline_if_members_changed(
            self, config: SuiteConfiguration) -> None:
        current = {rep.rep_id for rep in config.representatives}
        if current == set(self.seed_votes):
            return
        # Membership changed under us (e.g. a manual reconfiguration
        # added or dropped a representative): the current vector is the
        # new baseline the autopilot protects and restores toward.
        self.seed_votes = {rep.rep_id: rep.votes
                           for rep in config.representatives}
        for stale in set(self.ewma) - current:
            for table in (self.ewma, self._hot_streak,
                          self._cool_streak, self._last_opens,
                          self._last_wait):
                table.pop(stale, None)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def plan(self, signals: Dict[str, RepSignals],
             ) -> Optional[Tuple[str, str, Dict[str, int]]]:
        """Pick at most one reassignment: ``(kind, rep_id, votes)``."""
        now = self.clock()
        if self._last_applied_at is not None and \
                now - self._last_applied_at < self.policy.cooldown_ms:
            return None
        votes = self.weights()
        demote = self._plan_demotion(signals, votes)
        if demote is not None:
            return demote
        return self._plan_restoration(signals, votes)

    def _plan_demotion(self, signals: Dict[str, RepSignals],
                       votes: Dict[str, int],
                       ) -> Optional[Tuple[str, str, Dict[str, int]]]:
        policy = self.policy
        candidates = [
            rep_id for rep_id, sig in signals.items()
            if votes[rep_id] > 0
            and self._hot_streak.get(rep_id, 0) >= policy.demote_patience
            and self.ewma.get(rep_id, 0.0) >= policy.demote_threshold]
        if not candidates:
            return None
        worst = max(candidates,
                    key=lambda rep_id: (self.ewma[rep_id],
                                        self._scores[rep_id], rep_id))
        recipients = [
            rep_id for rep_id, sig in signals.items()
            if rep_id != worst
            and self.seed_votes.get(rep_id, 0) > 0
            and sig.breaker_state != OPEN
            and self.ewma.get(rep_id, 0.0) < policy.demote_threshold]
        if not recipients:
            return None                     # nowhere safe to park votes
        healthiest = min(recipients,
                         key=lambda rep_id: (self.ewma.get(rep_id, 0.0),
                                             rep_id))
        shift = min(policy.max_shift_per_round, votes[worst])
        proposal = dict(votes)
        proposal[worst] -= shift
        proposal[healthiest] += shift
        return ("demote", worst, proposal)

    def _plan_restoration(self, signals: Dict[str, RepSignals],
                          votes: Dict[str, int],
                          ) -> Optional[Tuple[str, str, Dict[str, int]]]:
        policy = self.policy
        candidates = sorted(
            rep_id for rep_id, sig in signals.items()
            if votes[rep_id] < self.seed_votes.get(rep_id, 0)
            and sig.breaker_state == CLOSED
            and self._cool_streak.get(rep_id, 0) >= policy.restore_patience)
        if not candidates:
            return None
        target = candidates[0]
        donors = [rep_id for rep_id in votes
                  if votes[rep_id] > self.seed_votes.get(rep_id, 0)]
        if not donors:
            return None
        donor = max(donors,
                    key=lambda rep_id: (votes[rep_id]
                                        - self.seed_votes.get(rep_id, 0),
                                        rep_id))
        shift = min(policy.max_shift_per_round,
                    self.seed_votes[target] - votes[target],
                    votes[donor] - self.seed_votes.get(donor, 0))
        if shift <= 0:
            return None
        proposal = dict(votes)
        proposal[target] += shift
        proposal[donor] -= shift
        return ("restore", target, proposal)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> Generator[Any, Any,
                                Optional[ReassignmentRecord]]:
        """One control round.  Returns the record if a proposal was
        made (applied or not), else ``None``."""
        signals = self.observe()
        planned = self.plan(signals)
        if planned is None:
            return None
        kind, rep_id, proposal = planned
        self.metrics.counter(self._metric("proposals")).increment()
        config = self.suite.config
        record = ReassignmentRecord(
            at=self.clock(), kind=kind, rep_id=rep_id,
            server=config.representative(rep_id).server,
            score=self._scores.get(rep_id, 0.0),
            votes_before=self.weights(), votes_after=dict(proposal))
        reason = gate_proposal(config, proposal, self.policy)
        if reason is not None:
            record.rejected_by_gate = reason
            self.metrics.counter(
                self._metric("rejected_gate")).increment()
            self.records.append(record)
            self._record_flight(record)
            return record
        reps = tuple(
            Representative(rep_id=rep.rep_id, server=rep.server,
                           votes=proposal[rep.rep_id],
                           latency_hint=rep.latency_hint)
            for rep in config.representatives)
        target = config.evolve(representatives=reps)
        try:
            installed = yield from change_configuration(
                self.suite, target)
        except ReproError as exc:
            record.error = f"{type(exc).__name__}: {exc}"
            self.metrics.counter(self._metric("errors")).increment()
        else:
            record.applied = True
            record.config_version = installed.config_version
            record.votes_after = self.weights()
            self.metrics.counter(self._metric("applied")).increment()
            self._last_applied_at = self.clock()
            # The demoted representative stops failing foreground
            # writes; keep judging it on fresh evidence only.
            self._hot_streak[rep_id] = 0
            self._cool_streak[rep_id] = 0
        self._mirror_weights()
        self.records.append(record)
        self._record_flight(record)
        return record

    def _record_flight(self, record: ReassignmentRecord) -> None:
        """Ledger entries double as black-box ``autopilot`` records —
        the journal is how a reassignment is audited offline (total
        votes conserved, config_version monotonic) after the process
        that made it is gone."""
        flight = getattr(self.suite, "flight", None)
        if flight is None or flight.closed:
            return
        flight.emit("autopilot", suite=self.suite.config.suite_name,
                    **record.to_json())

    def run(self, interval_ms: Optional[float] = None,
            ) -> Generator[Any, Any, None]:
        """The background loop: step, sleep, repeat until stopped."""
        interval = interval_ms if interval_ms is not None \
            else self.policy.interval_ms
        while not self._stopped:
            yield from self.step()
            yield self.suite.sim.timeout(interval)

    def start(self, interval_ms: Optional[float] = None) -> "Process":
        """Spawn :meth:`run` on the suite's kernel (sim or live)."""
        self._stopped = False
        self._process = self.suite.sim.spawn(
            self.run(interval_ms),
            name=f"autopilot:{self.suite.config.suite_name}")
        return self._process

    def stop(self) -> None:
        self._stopped = True
        if self._process is not None and self._process.alive:
            self._process.kill()
            self._process = None

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def _metric(self, name: str) -> str:
        return (f"autonomy.{name}"
                f"[suite={self.suite.config.suite_name}]")

    def _mirror_weights(self) -> None:
        suite = self.suite.config.suite_name
        for rep in self.suite.config.representatives:
            self.metrics.gauge(
                f"autonomy.weight[suite={suite},rep={rep.rep_id}]"
            ).set(float(rep.votes))

    def at_seed_weights(self) -> bool:
        """True when the live vote vector matches the seed baseline."""
        return self.weights() == self.seed_votes

    def state(self) -> Dict[str, Any]:
        """JSON-safe view for the CLI, doctor, and soak artifacts."""
        return {
            "suite": self.suite.config.suite_name,
            "config_version": self.suite.config.config_version,
            "seed_votes": dict(self.seed_votes),
            "weights": self.weights(),
            "at_seed_weights": self.at_seed_weights(),
            "flagged": {server: dict(info)
                        for server, info in sorted(self.flagged.items())},
            "ewma": {rep_id: round(value, 4)
                     for rep_id, value in sorted(self.ewma.items())},
            "cooldown_until": (
                self._last_applied_at + self.policy.cooldown_ms
                if self._last_applied_at is not None else None),
            "proposals": self.metrics.counter_value(
                self._metric("proposals")),
            "applied": self.metrics.counter_value(
                self._metric("applied")),
            "rejected_gate": self.metrics.counter_value(
                self._metric("rejected_gate")),
            "errors": self.metrics.counter_value(
                self._metric("errors")),
            "reassignments": [record.to_json()
                              for record in self.records],
            "policy": asdict(self.policy),
        }
