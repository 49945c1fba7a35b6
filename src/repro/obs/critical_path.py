"""Quorum critical-path reconstruction and blocking attribution.

A weighted-voting operation is as fast as the *last* reply it needed:
the gather in :func:`repro.core.gather.gather_until` returns the moment
the vote predicate is satisfied, so every interval of its wait is gated
by exactly one representative — the one whose reply ended it.

:class:`QuorumPath` is the one record of a finished gather and
:meth:`QuorumPath.attribution` the one rule that charges its wait.
``core.suite`` builds the record from each gather and writes the span
events, the ``quorum.blocking.*`` counters and the flight journal's
``quorum`` record from it; :func:`extract_quorum_paths` (spans) and
``repro replay --verify`` (journals) parse their evidence back into it.
:class:`CriticalPathReport` aggregates paths into the
per-representative load signal the ROADMAP's weight-reassignment work
needs:

* **blocked time** — milliseconds of gather wait charged to each rep
  (marginal interval attribution: reply at ``t_i`` is charged
  ``t_i - t_{i-1}``; a gather the quorum rule closed at its deadline
  charges its whole wait to the representative it waited for);
* **closes** — how often each rep's reply was the one that closed a
  quorum (the strict critical-path endpoint);
* per-suite read/write breakdowns of operation counts and mean
  assembly wait.

:mod:`repro.obs.aggregate` merges the ``quorum.blocking.*`` families
across a fleet, and :func:`attribution_from_samples` decodes them back
into a report so ``repro doctor`` gives one answer from either source.

2PC phases block on *all* participants, so their critical path is
simply the slowest reply; :func:`extract_phase_laggards` counts, per
server, how often it arrived last in a ``2pc.prepare``/``2pc.commit``
phase (from the ``2pc.reply`` events the coordinator stamps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from .spans import Span

__all__ = [
    "QuorumPath",
    "CriticalPathReport",
    "extract_quorum_paths",
    "extract_phase_laggards",
    "analyze_quorum_paths",
    "attribution_from_samples",
]


#: The fields a journaled ``quorum`` record carries, in record order.
_RECORD_KEYS = ("suite", "mode", "threshold", "votes", "satisfied",
                "started", "order", "closed_by", "observed")


@dataclass(slots=True)
class QuorumPath:
    """One finished quorum gather, the record every plane is written
    from or parsed into.  ``order`` holds ``(rep_id, at, ok)`` per
    settled reply in arrival order; a gather closed at the quorum
    rule's deadline ends it with ``(rep_id, deadline, None)`` for the
    representative it stopped waiting for, which is then its
    ``closed_by``.  ``observed`` maps each successful reply to its
    version.  Only the trace reader fills ``trace_id`` and
    ``waited``."""

    suite: str
    mode: str
    threshold: int
    votes: int
    satisfied: bool
    started: float
    order: List[Tuple[str, float, Optional[bool]]]
    closed_by: Optional[str]
    observed: Dict[str, int]
    trace_id: str = ""
    waited: float = 0.0

    @classmethod
    def from_gather(cls, suite: str, mode: str, threshold: int,
                    started: float, gathered: Any,
                    waited_on: Any = None,
                    closed_at: float = 0.0) -> "QuorumPath":
        """Record a gather whose keys carry ``rep_id`` and ``votes``;
        ``waited_on`` is the representative a deadline close at
        ``closed_at`` stopped waiting for."""
        successes = gathered.successes
        closer = gathered.closed_by
        order = [(rep.rep_id, at, ok) for rep, at, ok in gathered.order]
        if waited_on is not None:
            closer = waited_on
            order.append((waited_on.rep_id, closed_at, None))
        return cls(suite, mode, threshold,
                   sum(rep.votes for rep in successes), gathered.satisfied,
                   started, order,
                   closer.rep_id if closer is not None else None,
                   {rep.rep_id: stat["version"]
                    for rep, stat in successes.items()})

    def to_record(self) -> Dict[str, Any]:
        """The flight journal's ``quorum`` record payload."""
        return {key: getattr(self, key) for key in _RECORD_KEYS}

    @classmethod
    def from_record(cls, data: Mapping[str, Any]) -> "QuorumPath":
        """Parse a journaled ``quorum`` record back into the record."""
        fields = {key: data[key] for key in _RECORD_KEYS}
        fields["order"] = [tuple(reply) for reply in fields["order"]]
        return cls(**fields)

    def annotate(self, span: Any, gathered: Any) -> None:
        """One arrival-stamped event per reply on the ``quorum.assemble``
        span — what :func:`extract_quorum_paths` reads back."""
        for rep, at, ok in gathered.order:
            if ok:
                span.event("version.collect", rep=rep.rep_id,
                           version=self.observed[rep.rep_id],
                           votes=rep.votes, at=at, waited=at - self.started)
            else:
                span.event("inquiry.failed", rep=rep.rep_id, at=at,
                           waited=at - self.started,
                           error=type(gathered.failures[rep]).__name__)
        if self.order and self.order[-1][2] is None:
            rep_id, at, _ok = self.order[-1]
            span.event("inquiry.deadline", rep=rep_id, at=at,
                       waited=at - self.started)

    def attribution(self) -> Dict[str, float]:
        """The one blocking-attribution rule: by ``(at, rep_id)``, each
        positive settle-to-settle interval (the first from the inquiry
        send) is charged to the rep whose reply ended it.  A gather the
        quorum rule closed at its deadline waited on one representative
        from send to close: the whole wait is charged to it."""
        if self.order and self.order[-1][2] is None:
            rep, at, _ok = self.order[-1]
            return {rep: at - self.started} if at > self.started else {}
        charged: Dict[str, float] = {}
        previous = self.started
        for rep, at, _ok in sorted(self.order,
                                   key=lambda item: (item[1], item[0])):
            marginal = at - previous
            previous = at
            if marginal > 0.0:
                charged[rep] = charged.get(rep, 0.0) + marginal
        return charged

    def blocking(self) -> Tuple[List[str], Dict[str, float]]:
        """This gather's ``quorum.blocking.*`` increments: the counters
        it bumps by one, and the wait gauges' deltas."""
        suite = self.suite
        counted = [f"quorum.blocking.gathers[suite={suite},mode={self.mode}]"]
        if self.closed_by is not None:
            counted.append(f"quorum.blocking.closed[suite={suite},"
                           f"rep={self.closed_by}]")
        return counted, {
            f"quorum.blocking.wait_ms[suite={suite},rep={rep}]": charged
            for rep, charged in self.attribution().items()}


#: The ``quorum.assemble`` span events that each add one ``order``
#: entry, and the ``ok`` flag they stand for.
_SETTLED = {"version.collect": True, "inquiry.failed": False,
            "inquiry.deadline": None}


def extract_quorum_paths(spans: Iterable[Span]) -> List[QuorumPath]:
    """Rebuild every quorum assembly recorded in ``spans``."""
    paths: List[QuorumPath] = []
    for span in spans:
        if span.name != "quorum.assemble":
            continue
        attrs = span.attrs
        path = QuorumPath(
            str(attrs.get("suite", "?")), str(attrs.get("mode", "?")),
            int(attrs.get("threshold", 0)), 0, False, span.start, [], None,
            {}, trace_id=span.trace_id)
        waited = None
        for event in span.events:
            attrs = event.attrs
            if event.name in _SETTLED:
                rep = str(attrs.get("rep", "?"))
                ok = _SETTLED[event.name]
                path.order.append(
                    (rep, float(attrs.get("at", event.time)), ok))
                if ok:
                    path.observed[rep] = attrs.get("version")
            elif event.name in ("quorum.satisfied", "quorum.failed"):
                path.votes = int(attrs.get("votes", 0))
                if event.name == "quorum.satisfied":
                    path.satisfied = True
                    path.closed_by = str(attrs.get("closed_by") or "") or None
                    waited = attrs.get("waited")
        path.waited = float(waited) if waited is not None else max(
            (at for _rep, at, _ok in path.order),
            default=span.start) - span.start
        paths.append(path)
    return paths


def extract_phase_laggards(spans: Iterable[Span]) -> Dict[str, int]:
    """Per-server count of arriving *last* in a 2PC phase.

    Prepare/commit wait for every participant, so the slowest reply is
    the whole phase's critical path.  Phases with a single reply are
    skipped — being last among one is not a signal.
    """
    laggards: Dict[str, int] = {}
    for span in spans:
        if span.name not in ("2pc.prepare", "2pc.commit"):
            continue
        replies = [event for event in span.events
                   if event.name == "2pc.reply"]
        if len(replies) < 2:
            continue
        last = max(replies,
                   key=lambda event: (float(event.attrs.get(
                       "at", event.time)), str(event.attrs.get("server"))))
        server = str(last.attrs.get("server", "?"))
        laggards[server] = laggards.get(server, 0) + 1
    return laggards


class CriticalPathReport:
    """Aggregated blocking attribution across many quorum operations."""

    def __init__(self, paths: Optional[List[QuorumPath]] = None,
                 phase_laggards: Optional[Dict[str, int]] = None) -> None:
        self.paths = paths if paths is not None else []
        self.phase_laggards = phase_laggards or {}
        # (suite, rep) -> accumulators
        self.blocked_ms: Dict[Tuple[str, str], float] = {}
        self.closes: Dict[Tuple[str, str], int] = {}
        # (suite, mode) -> (operation count, total wait)
        self.operations: Dict[Tuple[str, str], int] = {}
        self.total_wait: Dict[Tuple[str, str], float] = {}
        for path in self.paths:
            self._fold(path)

    def _fold(self, path: QuorumPath) -> None:
        op_key = (path.suite, path.mode)
        self.operations[op_key] = self.operations.get(op_key, 0) + 1
        self.total_wait[op_key] = (self.total_wait.get(op_key, 0.0)
                                   + path.waited)
        for rep, charged in path.attribution().items():
            key = (path.suite, rep)
            self.blocked_ms[key] = self.blocked_ms.get(key, 0.0) + charged
        if path.closed_by is not None:
            key = (path.suite, path.closed_by)
            self.closes[key] = self.closes.get(key, 0) + 1

    # -- queries -------------------------------------------------------

    @property
    def total_blocked_ms(self) -> float:
        return sum(self.blocked_ms.values())

    def rep_blocked_ms(self) -> Dict[str, float]:
        """Blocked milliseconds per representative, summed over suites."""
        out: Dict[str, float] = {}
        for (_suite, rep), charged in self.blocked_ms.items():
            out[rep] = out.get(rep, 0.0) + charged
        return out

    def rep_closes(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for (_suite, rep), count in self.closes.items():
            out[rep] = out.get(rep, 0) + count
        return out

    def blocking_share(self) -> Dict[str, float]:
        """Each rep's fraction of all attributed gather wait, in [0, 1]."""
        total = self.total_blocked_ms
        if total <= 0.0:
            return {}
        return {rep: charged / total
                for rep, charged in self.rep_blocked_ms().items()}

    def top_blockers(self, n: int = 5) -> List[Tuple[str, float, int]]:
        """``(rep, blocked_ms, closes)`` sorted by blocked time, descending.

        Ties break on close count then rep id, so the ranking is
        deterministic for seeded runs.
        """
        closes = self.rep_closes()
        rows = [(rep, charged, closes.get(rep, 0))
                for rep, charged in self.rep_blocked_ms().items()]
        rows.sort(key=lambda row: (-row[1], -row[2], row[0]))
        return rows[:n]

    def suite_breakdown(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """suite -> mode -> {operations, mean_wait_ms}."""
        out: Dict[str, Dict[str, Dict[str, float]]] = {}
        for (suite, mode), count in sorted(self.operations.items()):
            wait = self.total_wait.get((suite, mode), 0.0)
            out.setdefault(suite, {})[mode] = {
                "operations": float(count),
                "mean_wait_ms": wait / count if count else 0.0,
            }
        return out

    def render(self, top: int = 5) -> str:
        """Human-readable summary for soak verdicts and ``repro doctor``."""
        operations = len(self.paths) or sum(self.operations.values())
        lines = [f"quorum critical path: {operations} operations, "
                 f"{self.total_blocked_ms:.1f} ms attributed wait"]
        share = self.blocking_share()
        for rep, blocked, closes in self.top_blockers(top):
            lines.append(
                f"  {rep}: blocked {blocked:.1f} ms "
                f"({share.get(rep, 0.0):6.1%} share), "
                f"closed {closes} quorums")
        if self.phase_laggards:
            slowest = sorted(self.phase_laggards.items(),
                             key=lambda item: (-item[1], item[0]))
            laggard_text = ", ".join(f"{server}×{count}"
                                     for server, count in slowest[:top])
            lines.append(f"  2pc last-reply laggards: {laggard_text}")
        return "\n".join(lines)


def analyze_quorum_paths(spans: Iterable[Span]) -> CriticalPathReport:
    """One-call analysis: spans in, aggregated attribution out."""
    spans = list(spans)
    return CriticalPathReport(paths=extract_quorum_paths(spans),
                              phase_laggards=extract_phase_laggards(spans))


def attribution_from_samples(
        samples: Iterable[Tuple[str, Mapping[str, Any], float]],
        prefix: str = "repro_") -> CriticalPathReport:
    """Decode ``quorum.blocking.*`` metric samples into a report.

    ``samples`` is the :func:`repro.obs.prom.parse_exposition` shape —
    ``(name, labels, value)`` — typically an aggregated fleet view.
    The report has no per-operation paths (metrics are already
    aggregated) but answers the same ``top_blockers`` /
    ``blocking_share`` queries, so the doctor can cross-check the trace
    analysis against the online counters.
    """
    wait_family = prefix + "quorum_blocking_wait_ms"
    closed_family = prefix + "quorum_blocking_closed_total"
    gathers_family = prefix + "quorum_blocking_gathers_total"
    report = CriticalPathReport()
    for name, labels, value in samples:
        suite = str(labels.get("suite", "?"))
        rep = str(labels.get("rep", "?"))
        if name == wait_family:
            key = (suite, rep)
            report.blocked_ms[key] = (report.blocked_ms.get(key, 0.0)
                                      + float(value))
        elif name == closed_family:
            key = (suite, rep)
            report.closes[key] = report.closes.get(key, 0) + int(value)
        elif name == gathers_family:
            mode = str(labels.get("mode", "?"))
            op_key = (suite, mode)
            report.operations[op_key] = (report.operations.get(op_key, 0)
                                         + int(value))
    return report
