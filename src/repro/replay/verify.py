"""Offline audit of one flight journal.

Three independent cross-checks over the same artifact:

1. **Invariants** — the ``op`` records are the complete history the
   soak driver saw, so :func:`~repro.verification.check_history`
   runs over them exactly as it runs over an in-process soak: unique
   versions, version-payload binding, no phantom reads, real-time
   order, representative monotonicity.  This is what lets the checker audit a *live* run
   after the fact.
2. **Plane agreement** — every finished gather left both a ``quorum``
   record in the journal and an increment in the run's own
   ``quorum.blocking.*`` counters (snapshotted as the journal's final
   ``metrics`` record).  The verifier parses each ``quorum`` record
   back into the :class:`~repro.obs.critical_path.QuorumPath` the suite
   wrote it from, sums the increments its one attribution rule
   (:meth:`~repro.obs.critical_path.QuorumPath.blocking`) yields, and
   demands the two planes agree; a disagreement means one of them
   dropped or invented evidence.
3. **Ledger audit** — autopilot reassignments must conserve total
   votes and carry monotonically increasing configuration versions;
   reconfigurations must step the version forward.

SLO verdicts are re-derived too, but as information — the journal is
the evidence, the objectives are the reader's choice.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..verification import InvariantReport, OpRecord, check_history
from ..obs.critical_path import QuorumPath
from ..obs.flight import JournalStats, load_flight_journal
from ..obs.slo import (SLOEvaluator, SLOStatus, read_latency_slo,
                       success_rate_slo)

#: Relative tolerance for gauge comparison: marginal waits are sums of
#: clock differences, so live journals accumulate float rounding.
GAUGE_TOLERANCE = 1e-6


@dataclass
class ReplayVerdict:
    """Everything :func:`verify_journal` concluded from one journal."""

    directory: str
    stats: JournalStats
    runtime: str = "unknown"
    seed: Optional[int] = None
    #: Invariant verdict per suite rebuilt from ``op`` records.
    reports: Dict[str, InvariantReport] = field(default_factory=dict)
    histories: Dict[str, List[OpRecord]] = field(default_factory=dict)
    #: Human-readable plane disagreements (empty = planes agree).
    plane_mismatches: List[str] = field(default_factory=list)
    #: Whether the metrics cross-check could run at all (a torn run
    #: may end before its final ``metrics`` snapshot).
    plane_checked: bool = False
    #: Ledger problems (vote conservation, version monotonicity).
    ledger_findings: List[str] = field(default_factory=list)
    #: Re-derived SLO verdicts, worst first (informational).
    slos: List[SLOStatus] = field(default_factory=list)
    #: Journal-level problems that precede any checking.
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (not self.errors
                and not self.plane_mismatches
                and not self.ledger_findings
                and all(report.ok for report in self.reports.values()))

    def findings(self) -> List[str]:
        """Every failure as one flat list of sentences."""
        out = list(self.errors)
        for name in sorted(self.reports):
            report = self.reports[name]
            for violation in report.violations:
                out.append(f"[{name}] op {violation.index}: "
                           f"{violation.rule}: {violation.detail}")
        out.extend(self.plane_mismatches)
        out.extend(self.ledger_findings)
        return out

    def summary(self) -> str:
        ops = sum(report.ops for report in self.reports.values())
        verdict = "OK" if self.ok else (
            f"{len(self.findings())} FINDING"
            f"{'S' if len(self.findings()) != 1 else ''}")
        planes = ("planes agree" if self.plane_checked
                  and not self.plane_mismatches else
                  "planes DISAGREE" if self.plane_mismatches else
                  "plane check skipped (no metrics record)")
        return (f"[replay-verify] {verdict}: {self.stats.summary()}, "
                f"{ops} ops over {len(self.reports)} suite(s), "
                f"runtime={self.runtime} | {planes}")


def _rebuild_histories(records: List[Dict[str, Any]],
                       default_suite: str,
                       ) -> Dict[str, List[OpRecord]]:
    histories: Dict[str, List[OpRecord]] = {}
    for record in records:
        if record.get("kind") != "op":
            continue
        data = dict(record.get("data", {}))
        suite = data.pop("suite", default_suite)
        histories.setdefault(suite, []).append(OpRecord.from_json(data))
    return histories


def _compare_planes(derived: Dict[str, float],
                    exported: Dict[str, float]) -> List[str]:
    mismatches: List[str] = []
    for name in sorted(set(derived) | set(exported)):
        want = exported.get(name)
        got = derived.get(name)
        if want is None:
            mismatches.append(
                f"journal derives {name}={got:g} but the run never "
                f"exported that counter")
            continue
        if got is None:
            mismatches.append(
                f"run exported {name}={want:g} but the journal holds "
                f"no gather explaining it")
            continue
        scale = max(abs(want), abs(got), 1.0)
        if abs(want - got) > GAUGE_TOLERANCE * scale:
            mismatches.append(
                f"{name}: journal-derived {got:g} != exported {want:g}")
    return mismatches


def _audit_ledger(records: List[Dict[str, Any]]) -> List[str]:
    findings: List[str] = []
    config_versions: Dict[str, int] = {}
    for record in records:
        kind = record.get("kind")
        data = record.get("data", {})
        if kind == "autopilot" and data.get("applied"):
            before = sum(data.get("votes_before", {}).values())
            after = sum(data.get("votes_after", {}).values())
            if before != after:
                findings.append(
                    f"autopilot {data.get('kind')} of "
                    f"{data.get('rep_id')} changed total votes "
                    f"{before} -> {after} (must conserve)")
        if kind == "reconfig":
            suite = data.get("suite", "?")
            version = data.get("config_version")
            if version is None:
                continue
            floor = config_versions.get(suite)
            if floor is not None and version <= floor:
                findings.append(
                    f"[{suite}] reconfig version went backwards: "
                    f"{floor} -> {version}")
            config_versions[suite] = version
    return findings


def _derive_slos(histories: Dict[str, List[OpRecord]],
                 read_threshold_ms: float) -> List[SLOStatus]:
    evaluator = SLOEvaluator([read_latency_slo(read_threshold_ms),
                              success_rate_slo()])
    ops: List[OpRecord] = []
    for history in histories.values():
        ops.extend(history)
    ops.sort(key=lambda op: (op.finished, op.index))
    now = 0.0
    for op in ops:
        now = max(now, op.finished)
        evaluator.observe("success", op.finished, 1.0 if op.ok else 0.0)
        if op.kind == "read" and op.ok:
            evaluator.observe("read_latency", op.finished,
                              op.finished - op.started)
    return evaluator.evaluate(now) if ops else []


def verify_journal(directory: str,
                   read_threshold_ms: float = 250.0) -> ReplayVerdict:
    """Audit one journal directory; never raises on bad *content*.

    Journal-format damage outside the permitted torn tail still raises
    :class:`~repro.obs.flight.FlightJournalError` — that is corruption,
    not an incident to analyse.
    """
    records, stats = load_flight_journal(directory)
    verdict = ReplayVerdict(directory=directory, stats=stats)

    meta = next((record.get("data", {}) for record in records
                 if record.get("kind") == "meta"), None)
    if meta is None:
        verdict.errors.append("journal has no meta record")
        return verdict
    verdict.runtime = str(meta.get("runtime", "unknown"))
    verdict.seed = meta.get("seed")

    # -- invariants over the rebuilt histories ------------------------
    initial_tags: Dict[str, str] = dict(meta.get("initial_tags", {}))
    default_tag = meta.get("initial_tag")
    default_suite = "suite"
    verdict.histories = _rebuild_histories(records, default_suite)
    for name in sorted(verdict.histories):
        tag = initial_tags.get(name, default_tag)
        verdict.reports[name] = check_history(
            verdict.histories[name], initial_tag=tag)

    # -- plane agreement ----------------------------------------------
    # Each gather's increments, summed the way the run's counters were.
    exported: Optional[Dict[str, float]] = None
    derived: Dict[str, float] = defaultdict(float)
    for record in records:
        if record.get("kind") == "metrics":
            exported = {name: float(value) for name, value
                        in record["data"].get("blocking", {}).items()}
        elif record.get("kind") == "quorum":
            counted, waits = QuorumPath.from_record(record["data"]).blocking()
            for name in counted:
                derived[name] += 1.0
            for name, wait in waits.items():
                derived[name] += wait
    if exported is not None:
        verdict.plane_checked = True
        verdict.plane_mismatches = _compare_planes(derived, exported)

    # -- ledger + SLOs ------------------------------------------------
    verdict.ledger_findings = _audit_ledger(records)
    verdict.slos = _derive_slos(verdict.histories, read_threshold_ms)
    return verdict
