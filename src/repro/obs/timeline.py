"""Render exported spans as per-operation timelines.

Backs ``repro trace``: group a (possibly merged, multi-process) span
export by trace id, rebuild each trace's parent/child tree, and print
it as an indented timeline with per-span offsets and durations relative
to the trace root.  Spans whose parent is missing from the export (a
process whose file was not merged in) attach under the root with a
marker rather than vanishing — a partial trace should look partial,
not complete.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .spans import SERVER, Span


class TraceSummary:
    """One trace's headline facts, for listings."""

    __slots__ = ("trace_id", "root_name", "origin", "start", "duration",
                 "span_count", "status")

    def __init__(self, trace_id: str, root_name: str, origin: str,
                 start: float, duration: float, span_count: int,
                 status: str) -> None:
        self.trace_id = trace_id
        self.root_name = root_name
        self.origin = origin
        self.start = start
        self.duration = duration
        self.span_count = span_count
        self.status = status


def group_traces(spans: Iterable[Span]) -> Dict[str, List[Span]]:
    traces: Dict[str, List[Span]] = {}
    for span in spans:
        traces.setdefault(span.trace_id, []).append(span)
    return traces


def summarize(spans: Iterable[Span]) -> List[TraceSummary]:
    """One :class:`TraceSummary` per trace, in start order."""
    summaries = []
    for trace_id, members in group_traces(spans).items():
        root = _find_root(members)
        start = min(span.start for span in members)
        end = max(span.end_time if span.end_time is not None else span.start
                  for span in members)
        status = "error" if any(span.status == "error"
                                for span in members) else "ok"
        summaries.append(TraceSummary(
            trace_id=trace_id,
            root_name=root.name if root is not None else "?",
            origin=root.origin if root is not None else "?",
            start=start, duration=end - start, span_count=len(members),
            status=status))
    summaries.sort(key=lambda summary: (summary.start, summary.trace_id))
    return summaries


def _find_root(members: List[Span]) -> Optional[Span]:
    ids = {span.span_id for span in members}
    for span in sorted(members, key=lambda span: span.start):
        if span.parent_id is None or span.parent_id not in ids:
            if span.parent_id is None:
                return span
    return None


def render_trace(spans: List[Span], events: bool = True) -> str:
    """The indented timeline of one trace (all spans share a trace id)."""
    if not spans:
        return "(no spans)"
    ids = {span.span_id for span in spans}
    roots: List[Span] = []
    orphans: List[Span] = []
    children: Dict[str, List[Span]] = {}
    for span in spans:
        if span.parent_id is None:
            roots.append(span)
        elif span.parent_id not in ids:
            orphans.append(span)
        else:
            children.setdefault(span.parent_id, []).append(span)
    for member_list in children.values():
        member_list.sort(key=lambda span: (span.start, span.span_id))
    roots.sort(key=lambda span: (span.start, span.span_id))
    orphans.sort(key=lambda span: (span.start, span.span_id))

    epoch = min(span.start for span in spans)
    width = max(len(span.name) for span in spans) + 2
    lines = [f"trace {spans[0].trace_id} "
             f"({len(spans)} span{'s' if len(spans) != 1 else ''})"]

    def render(span: Span, depth: int) -> None:
        indent = "  " * depth
        offset = span.start - epoch
        duration = (f"{span.duration:9.3f}ms" if span.finished
                    else "     open")
        mark = " !" if span.status == "error" else ""
        origin = f" @{span.origin}" if span.origin else ""
        lines.append(
            f"  {indent}{span.name:<{width}} +{offset:9.3f}ms "
            f"{duration}  [{span.kind}{origin}]{mark}")
        if events:
            for event in span.events:
                detail = " ".join(f"{key}={value}"
                                  for key, value in event.attrs.items())
                lines.append(
                    f"  {indent}  · {event.name} "
                    f"+{event.time - epoch:9.3f}ms"
                    + (f" {detail}" if detail else ""))
        if span.status == "error" and span.error:
            lines.append(f"  {indent}  ! {span.error}")
        for child in children.get(span.span_id, ()):  # noqa: B023
            render(child, depth + 1)

    for root in roots:
        render(root, 0)
    if orphans:
        lines.append("  (parent span not in this export:)")
        for orphan in orphans:
            render(orphan, 1)
    return "\n".join(lines)


def breakdown(spans: Iterable[Span]) -> Dict[str, Tuple[int, float]]:
    """Per-span-name ``(count, mean duration)`` across finished spans.

    The bench harness and ``repro perf profile`` use this to turn a
    traced run into a latency breakdown: how much of an operation went
    to quorum assembly vs two-phase commit vs raw RPC.  An RPC is two
    spans of one name — the caller's round trip and the handler that
    served it — so server-kind spans are keyed ``name@server``: a round
    trip is never averaged with the serve time it contains.
    """
    totals: Dict[str, Tuple[int, float]] = {}
    for span in spans:
        if not span.finished:
            continue
        key = f"{span.name}@server" if span.kind == SERVER else span.name
        count, total = totals.get(key, (0, 0.0))
        totals[key] = (count + 1, total + span.duration)
    return {name: (count, total / count)
            for name, (count, total) in sorted(totals.items())}
