"""The vote autopilot: observe → plan → hysteresis → gate → reconfigure.

:class:`WeightAutopilot` is a deterministic control loop over one
file suite.  Each step it **observes** one
:class:`~repro.core.tuning.ServerProfile` per representative, and the
read fraction, over the window since the last step
(:mod:`~repro.autonomy.signals`); **plans** the warranted move with
the paper's model (:func:`~repro.autonomy.policy.plan_move`); holds it
until ``patience`` consecutive observations warranted a move of that
kind, and never inside the cooldown (**hysteresis**); then passes it
through the **gate**.

Total votes are conserved, so ``r + w > N`` and ``2w > N`` keep
holding with the same quorum sizes; the safety **gate** re-checks
anyway and additionally enforces the ``min_voting_reps`` survivability
floor.  An accepted proposal is executed through
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
                    Optional)

from ..core.reconfig import change_configuration
from ..core.suite import FileSuiteClient
from ..core.tuning import ServerProfile
from ..errors import ReproError
from .policy import AutopilotPolicy, Move, gate_proposal, plan_move, \
    with_votes
from .signals import collect_profiles

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
    gain_ms: float                          # predicted mean-latency gain
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

    Availability comes from the suite's :attr:`~repro.core.suite.
    FileSuiteClient.health` — the :class:`HealthTracker` its client's
    RPC endpoint feeds; without one, every breaker reads closed and the
    autopilot steers on quorum latency alone.
    """

    def __init__(self, suite: FileSuiteClient,
                 policy: Optional[AutopilotPolicy] = None,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.suite = suite
        self.health: Optional["HealthTracker"] = suite.health
        self.policy = policy or AutopilotPolicy()
        self.metrics = suite.metrics
        self.clock = clock or (lambda: suite.sim.now)
        self.seed_votes = self.weights()
        self.records: List[ReassignmentRecord] = []
        #: server -> {"rep_id", "gain_ms", "at"} — the last observation
        #: that warranted moving votes off it (kept after recovery, as
        #: diagnostic history for ``repro doctor``).
        self.flagged: Dict[str, Dict[str, Any]] = {}
        #: The last window's evidence, in the configuration's order.
        self.profiles: List[ServerProfile] = []
        self._seen: Dict[str, float] = {}
        #: The kind of move the last observation warranted, and for how
        #: many consecutive observations one of that kind was.
        self._kind: Optional[str] = None
        self._streak = 0
        self._last_applied_at: Optional[float] = None
        self._stopped = False
        self._process: Optional["Process"] = None
        self._mirror_weights()

    def weights(self) -> Dict[str, int]:
        """The live vote vector, keyed by rep_id."""
        return {rep.rep_id: rep.votes
                for rep in self.suite.config.representatives}

    # ------------------------------------------------------------------
    # Observation, planning and hysteresis
    # ------------------------------------------------------------------

    def observe(self) -> Optional[Move]:
        """Fold the window's evidence into profiles and plan.  Returns
        the warranted move, or ``None``, and counts for how many
        consecutive observations a move of its kind was warranted."""
        config = self.suite.config
        if {rep.rep_id for rep in config.representatives} \
                != set(self.seed_votes) \
                or config.total_votes != sum(self.seed_votes.values()):
            # Membership or the vote total changed under us (e.g. a
            # manual reconfiguration added a representative): the
            # current vector is the new baseline the autopilot
            # protects and restores toward.
            self.seed_votes = self.weights()
        snapshot = self.health.snapshot() if self.health is not None \
            else {}
        timeout = self.suite.inquiry_timeout
        self.profiles, read_fraction = collect_profiles(
            config, self.metrics, snapshot, self._seen, timeout)
        move = plan_move(config, self.profiles, read_fraction,
                         self.seed_votes, timeout,
                         self.policy.max_shift_per_round)
        self._mirror_weights()
        kind = move.kind if move is not None else None
        self._streak = self._streak + 1 if kind is not None \
            and kind == self._kind else int(kind is not None)
        self._kind = kind
        if kind == "demote":
            self.flagged[config.representative(move.rep_id).server] = {
                "rep_id": move.rep_id, "gain_ms": move.gain_ms,
                "at": self.clock()}
        return move

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> Generator[Any, Any,
                                Optional[ReassignmentRecord]]:
        """One control round.  Returns the record if a proposal was
        made (applied or not), else ``None``."""
        move = self.observe()
        now = self.clock()
        if move is None or self._streak < self.policy.patience or (
                self._last_applied_at is not None
                and now - self._last_applied_at < self.policy.cooldown_ms):
            return None
        self.metrics.counter(self._metric("proposals")).increment()
        config = self.suite.config
        record = ReassignmentRecord(
            at=now, kind=move.kind, rep_id=move.rep_id,
            server=config.representative(move.rep_id).server,
            gain_ms=move.gain_ms, votes_before=self.weights(),
            votes_after=dict(move.votes))
        reason = gate_proposal(config, move.votes, self.policy)
        if reason is not None:
            record.rejected_by_gate = reason
            self.metrics.counter(
                self._metric("rejected_gate")).increment()
            self.records.append(record)
            self._record_flight(record)
            return record
        try:
            installed = yield from change_configuration(
                self.suite, with_votes(config, move.votes))
        except ReproError as exc:
            record.error = f"{type(exc).__name__}: {exc}"
            self.metrics.counter(self._metric("errors")).increment()
        else:
            record.applied = True
            record.config_version = installed.config_version
            record.votes_after = self.weights()
            self.metrics.counter(self._metric("applied")).increment()
            self._last_applied_at = self.clock()
            # The next move is judged on fresh evidence only.
            self._kind, self._streak = None, 0
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
            "profiles": {
                rep.rep_id: {"latency_ms": round(profile.latency, 3),
                             "availability": round(profile.availability, 4)}
                for rep, profile in zip(self.suite.config.representatives,
                                        self.profiles)},
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
