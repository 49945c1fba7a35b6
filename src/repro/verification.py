"""History checking: independent verification of suite consistency.

The tests that assert "reads see the last committed write" encode the
expectation inline.  This module is the opposite approach, in the style
of external consistency checkers: *record* every operation clients
perform against a suite — reads and writes, successful and failed, each
with its real-time interval — then check the whole history against the
model of an atomic, version-numbered register, with no knowledge of how
the protocol works.  The soaks, the multi-client tests and ``repro
replay --verify`` all judge their histories here.

The model's rules for a valid history:

* **unique-version** — no two successful writes install the same
  version number, and none reuses the install version (this is what
  ``2w > N`` buys: write quorums intersect, so versions totally order
  writes).
* **version-payload** — every successful read of version *v* returns
  the payload the version-*v* write installed.
* **phantom-read** — every successful read's version was installed by
  the suite's install or by some successful write.  A failed write is
  provably uncommitted: the client-side coordinator can only raise
  before the commit decision point.
* **real-time** — if operation *a* finished before operation *b*
  started, *b*'s version is at least *a*'s, and strictly greater if *b*
  is a write (``r + w > N``: every read quorum meets the last write
  quorum).  On a sequential client's history this is exactly "commits
  strictly increase" and "reads return the latest commit".
* **rep-monotonic** — a representative never reports a lower version
  to an operation than it reported to one that had finished before that
  operation started; failed operations included (representatives never
  move backwards — the refresher's ``only_if_newer`` staging exists to
  guarantee this).

"Finished before started" means ``a.finished <= b.started``; of two
instantaneous operations at the same instant, the one recorded first
comes first.

A :class:`HistoryRecorder` wraps any suite-like client and records
automatically; :func:`check_history` returns an :class:`InvariantReport`
(``ok`` ⇒ the history is strictly serializable under the register
model).
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from .errors import ReproError


@dataclass
class OpRecord:
    """One client operation, as recorded by a :class:`HistoryRecorder`."""

    index: int                 # position in the history / soak op number
    kind: str                  # "read" | "write"
    ok: bool
    started: float             # runtime clock, ms
    finished: float
    version: Optional[int] = None   # committed (write) / returned (read)
    tag: Optional[str] = None       # payload written / read back
    served_by: Optional[str] = None
    quorum: List[str] = field(default_factory=list)
    #: Version each responding representative reported in the inquiry.
    observed: Dict[str, int] = field(default_factory=dict)
    error: Optional[str] = None
    attempts: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("read", "write"):
            raise ValueError(f"unknown operation kind {self.kind!r}")
        if self.finished < self.started:
            raise ValueError("operation finishes before it starts")
        if self.ok and self.version is None:
            raise ValueError("a successful operation has a version")

    def to_json(self) -> Dict[str, object]:
        # Hand-rolled (field order) rather than dataclasses.asdict:
        # the flight recorder serialises every op as it happens, and
        # asdict's recursive deep-copy costs ~100x a flat build.
        return {"index": self.index, "kind": self.kind, "ok": self.ok,
                "started": self.started, "finished": self.finished,
                "version": self.version, "tag": self.tag,
                "served_by": self.served_by,
                "quorum": list(self.quorum),
                "observed": dict(self.observed),
                "error": self.error, "attempts": self.attempts}

    @classmethod
    def from_json(cls, raw: Dict[str, object]) -> "OpRecord":
        return cls(**raw)  # type: ignore[arg-type]


@dataclass(frozen=True)
class Violation:
    """One rule broken at one operation of the history."""

    index: int                 # OpRecord.index where it was detected
    rule: str
    detail: str


@dataclass
class InvariantReport:
    """Outcome of checking one history."""

    ok: bool
    violations: List[Violation]
    ops: int
    committed_writes: int
    successful_reads: int
    failed_ops: int
    final_version: int

    def summary(self) -> str:
        verdict = "OK" if self.ok else (
            f"{len(self.violations)} VIOLATION"
            f"{'S' if len(self.violations) != 1 else ''}")
        return (f"{verdict}: {self.ops} ops "
                f"({self.committed_writes} commits, "
                f"{self.successful_reads} reads, "
                f"{self.failed_ops} failed), "
                f"final version {self.final_version}")


def check_history(history: Sequence[OpRecord],
                  initial_version: int = 1,
                  initial_tag: Optional[str] = None) -> InvariantReport:
    """Check a history against the atomic register model.

    ``initial_version``/``initial_tag`` describe the state
    :func:`~repro.core.suite.install_suite` left behind; a ``None`` tag
    (here or on a record) leaves that payload unchecked.
    """
    violations: List[Violation] = []
    writes = [op for op in history if op.ok and op.kind == "write"]
    reads = [op for op in history if op.ok and op.kind == "read"]

    payloads: Dict[int, Optional[str]] = {
        initial_version: initial_tag}
    for op in writes:
        if op.version in payloads:
            violations.append(Violation(
                op.index, "unique-version",
                f"version {op.version} committed twice"))
        else:
            payloads[op.version] = op.tag
    for op in reads:
        if op.version not in payloads:
            violations.append(Violation(
                op.index, "phantom-read",
                f"read returned version {op.version}, which no write "
                "installed"))
        elif None not in (op.tag, payloads[op.version]) \
                and op.tag != payloads[op.version]:
            violations.append(Violation(
                op.index, "version-payload",
                f"read at version {op.version} returned payload "
                f"{op.tag!r}, committed payload was "
                f"{payloads[op.version]!r}"))

    # Real-time order by one sweep: visit operations by start time;
    # a heap keyed by finish time releases every earlier-visited
    # operation that finished by the visited one's start into the
    # floors it must not go below.
    order = sorted(range(len(history)), key=lambda position: (
        history[position].started, history[position].finished,
        position))
    finished: List[Tuple[float, int]] = []
    floor: Tuple[int, Optional[int]] = (initial_version, None)
    rep_floor: Dict[str, int] = {}
    for position in order:
        op = history[position]
        while finished and finished[0][0] <= op.started:
            earlier = history[heapq.heappop(finished)[1]]
            if earlier.ok and earlier.version > floor[0]:
                floor = (earlier.version, earlier.index)
            for rep_id, version in earlier.observed.items():
                rep_floor[rep_id] = max(rep_floor.get(rep_id, version),
                                        version)
        if op.ok and (op.version < floor[0] or (
                op.kind == "write" and op.version == floor[0])):
            seen = ("the install" if floor[1] is None
                    else f"op {floor[1]}")
            violations.append(Violation(
                op.index, "real-time",
                f"{op.kind} of version {op.version} started after "
                f"{seen} had seen version {floor[0]}"))
        for rep_id, version in sorted(op.observed.items()):
            if version < rep_floor.get(rep_id, version):
                violations.append(Violation(
                    op.index, "rep-monotonic",
                    f"{rep_id} reported version {version} after having "
                    f"reported {rep_floor[rep_id]}"))
        heapq.heappush(finished, (op.finished, position))

    violations.sort(key=lambda violation: violation.index)
    return InvariantReport(
        ok=not violations, violations=violations, ops=len(history),
        committed_writes=len(writes), successful_reads=len(reads),
        failed_ops=sum(1 for op in history if not op.ok),
        final_version=max([initial_version]
                          + [op.version for op in writes]))


class HistoryRecorder:
    """Wraps a suite-like client, recording every operation it issues.

    Failed operations (a :class:`~repro.errors.ReproError`) are
    recorded too, then re-raised.  Payloads are stored as ``tag`` strings
    decoded byte-for-byte (latin-1), so distinct payloads stay distinct.
    Clients of one suite share one history list::

        history = []
        alice = HistoryRecorder(suite, history)
        result = yield from alice.read()
        ...
        assert check_history(history).ok

    ``index`` defaults to the record's position in the history.
    """

    def __init__(self, target: Any, history: List[OpRecord]) -> None:
        self.target = target
        self.history = history

    def read(self, index: Optional[int] = None,
             ) -> Generator[Any, Any, Any]:
        started = self.target.sim.now
        try:
            result = yield from self.target.read()
        except ReproError as exc:
            self._failed(index, "read", started, None, exc)
            raise
        self.history.append(OpRecord(
            index=self._index(index), kind="read", ok=True,
            started=started, finished=self.target.sim.now,
            version=result.version, tag=result.data.decode("latin-1"),
            served_by=result.served_by, quorum=list(result.quorum),
            observed=dict(result.observed), attempts=result.attempts))
        return result

    def write(self, data: bytes, index: Optional[int] = None,
              ) -> Generator[Any, Any, Any]:
        tag = bytes(data).decode("latin-1")
        started = self.target.sim.now
        try:
            result = yield from self.target.write(data)
        except ReproError as exc:
            self._failed(index, "write", started, tag, exc)
            raise
        self.history.append(OpRecord(
            index=self._index(index), kind="write", ok=True,
            started=started, finished=self.target.sim.now,
            version=result.version, tag=tag, quorum=list(result.quorum),
            observed=dict(result.observed), attempts=result.attempts))
        return result

    def _index(self, index: Optional[int]) -> int:
        return len(self.history) if index is None else index

    def _failed(self, index: Optional[int], kind: str, started: float,
                tag: Optional[str], exc: ReproError) -> None:
        self.history.append(OpRecord(
            index=self._index(index), kind=kind, ok=False,
            started=started, finished=self.target.sim.now, tag=tag,
            error=type(exc).__name__))


# ---------------------------------------------------------------------------
# History (de)serialisation — the CI artifact uploaded on a failed soak
# ---------------------------------------------------------------------------

def history_to_json(history: Sequence[OpRecord]) -> str:
    """The history as a JSON array (one object per operation)."""
    return json.dumps([op.to_json() for op in history], indent=1)


def history_from_json(text: str) -> List[OpRecord]:
    return [OpRecord.from_json(raw) for raw in json.loads(text)]
