"""The trace collector and its sinks.

A :class:`TraceCollector` is the per-process entry point of the
observability layer: it mints trace/span ids, stamps times from the
owning runtime's clock (virtual milliseconds on the simulator,
wall-clock milliseconds on the live kernel), and hands every finished
span to its sinks.

Sinks are deliberately dumb: an object with ``emit(span)``.  Two are
provided — :class:`RingBufferSink` (bounded in-memory buffer with drop
accounting; every collector has one so recent spans are always
inspectable) and :class:`JsonlSink` (append-only JSONL file export).
Merging the JSONL exports of several processes reassembles the
distributed trace; :func:`load_jsonl` reads them back.

Id scheme: ``{origin}-t{n}`` / ``{origin}-s{n}`` — deterministic under
the simulator (one collector, one counter, deterministic event order)
and collision-free live because every process's origin name is unique
(client runtimes embed a per-boot suffix).
"""

from __future__ import annotations

import json
import os
from collections import deque
from typing import (Any, Callable, Deque, Dict, IO, Iterable, List,
                    Optional, Union)

from .spans import INTERNAL, NOOP_SPAN, NoopSpan, Span, TraceContext

#: Anything accepted as a parent when starting a span.
ParentLike = Union[Span, NoopSpan, TraceContext, None]


class RingBufferSink:
    """Keeps the last ``capacity`` finished spans; counts what it drops.

    The in-memory counterpart of a tracing backend: oldest spans are
    evicted first, and every eviction is counted so a truncated buffer
    can never masquerade as a complete record — anything that
    aggregates the buffer (``repro perf profile``, the O1 bench)
    checks ``dropped`` is 0 first.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.dropped = 0
        self._spans: Deque[Span] = deque()

    def emit(self, span: Span) -> None:
        if len(self._spans) >= self.capacity:
            self._spans.popleft()
            self.dropped += 1
        self._spans.append(span)

    def spans(self) -> List[Span]:
        return list(self._spans)

    def clear(self) -> None:
        self._spans.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._spans)


class JsonlSink:
    """Appends each finished span as one JSON line to a file.

    Usable as a context manager: ``with JsonlSink(path) as sink: ...``
    flushes on exit and closes the file when the sink opened it itself
    (a caller-provided handle is flushed but left open — the caller
    owns its lifetime).  ``close`` is idempotent, and always flushes
    before closing so no buffered span can be lost at shutdown.

    With ``max_bytes`` (path targets only) the export is size-bounded:
    when the active file would exceed the cap it is rotated to
    ``path.1`` (older generations shift to ``path.2``, ...) and at most
    ``keep`` files survive in total — a soak can run for hours without
    growing its trace artifact without bound.  Readers that want the
    whole retained window read ``path.N`` ... ``path.1`` then ``path``.
    """

    def __init__(self, target: "str | IO[str]",
                 max_bytes: Optional[int] = None,
                 keep: int = 4) -> None:
        if isinstance(target, str):
            self._path: Optional[str] = target
            self._file: IO[str] = open(target, "a", encoding="utf-8")
            self._owned = True
        else:
            if max_bytes is not None:
                raise ValueError(
                    "rotation requires a path target, not a handle")
            self._path = None
            self._file = target
            self._owned = False
        if max_bytes is not None and max_bytes < 1024:
            raise ValueError("max_bytes must be at least 1024")
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.max_bytes = max_bytes
        self.keep = keep
        self.rotations = 0
        self._bytes = (os.path.getsize(self._path)
                       if self._path is not None
                       and os.path.exists(self._path) else 0)
        self._closed = False

    def emit(self, span: Span) -> None:
        if self._closed:
            raise ValueError("emit on a closed JsonlSink")
        line = json.dumps(span.to_dict(), separators=(",", ":")) + "\n"
        size = len(line.encode("utf-8"))
        if self.max_bytes is not None and self._bytes \
                and self._bytes + size > self.max_bytes:
            self._rotate()
        self._file.write(line)
        self._bytes += size

    def _rotate(self) -> None:
        """Shift the generation chain and reopen the active path."""
        self._file.flush()
        self._file.close()
        oldest = f"{self._path}.{self.keep - 1}"
        if self.keep > 1 and os.path.exists(oldest):
            os.remove(oldest)
        for index in range(self.keep - 2, 0, -1):
            generation = f"{self._path}.{index}"
            if os.path.exists(generation):
                os.replace(generation, f"{self._path}.{index + 1}")
        if self.keep > 1:
            os.replace(self._path, f"{self._path}.1")
        else:
            os.remove(self._path)
        self._file = open(self._path, "a", encoding="utf-8")
        self._bytes = 0
        self.rotations += 1

    def flush(self) -> None:
        if not self._closed:
            self._file.flush()

    def close(self) -> None:
        if self._closed:
            return
        self._file.flush()
        if self._owned:
            self._file.close()
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class TraceCollector:
    """Creates spans and routes the finished ones to sinks.

    ``enabled=False`` makes every factory return the shared
    :data:`~repro.obs.spans.NOOP_SPAN`, so an untraced deployment pays
    one predicate check per would-be span and allocates nothing.
    """

    def __init__(self, clock: Callable[[], float], origin: str = "",
                 enabled: bool = True, capacity: int = 4096,
                 sinks: Optional[List[Any]] = None) -> None:
        self.clock = clock
        self.origin = origin
        self.enabled = enabled
        self.ring = RingBufferSink(capacity=capacity)
        self.sinks: List[Any] = [self.ring] + list(sinks or [])
        self._next_trace = 0
        self._next_span = 0

    # -- clock -------------------------------------------------------------

    def now(self) -> float:
        return self.clock()

    # -- span factories ----------------------------------------------------

    def start_trace(self, name: str, kind: str = "client",
                    **attrs: Any) -> "Span | NoopSpan":
        """Open the root span of a brand-new trace."""
        if not self.enabled:
            return NOOP_SPAN
        self._next_trace += 1
        trace_id = f"{self.origin}-t{self._next_trace}" if self.origin \
            else f"t{self._next_trace}"
        return self._make(trace_id, parent_id=None, name=name, kind=kind,
                          attrs=attrs)

    def start_span(self, name: str, parent: ParentLike,
                   kind: str = INTERNAL, **attrs: Any) -> "Span | NoopSpan":
        """Open a child span of ``parent`` (a span or a remote context).

        A falsy parent (``None`` or the no-op span) yields the no-op
        span: children of nothing are never recorded, so a disabled
        caller disables its whole subtree.
        """
        if not self.enabled or not parent:
            return NOOP_SPAN
        context = parent.context if isinstance(parent, Span) else parent
        if context is None:
            return NOOP_SPAN
        return self._make(context.trace_id, parent_id=context.span_id,
                          name=name, kind=kind, attrs=attrs)

    def _make(self, trace_id: str, parent_id: Optional[str], name: str,
              kind: str, attrs: Dict[str, Any]) -> Span:
        self._next_span += 1
        span_id = f"{self.origin}-s{self._next_span}" if self.origin \
            else f"s{self._next_span}"
        return Span(collector=self, trace_id=trace_id, span_id=span_id,
                    parent_id=parent_id, name=name, kind=kind,
                    origin=self.origin, start=self.now(),
                    attrs=dict(attrs))

    def _emit(self, span: Span) -> None:
        for sink in self.sinks:
            sink.emit(span)

    # -- inspection and export ---------------------------------------------

    def spans(self) -> List[Span]:
        """Finished spans currently held by the ring buffer."""
        return self.ring.spans()

    @property
    def dropped(self) -> int:
        return self.ring.dropped

    def export_jsonl(self, path: str, mode: str = "w") -> int:
        """Write the ring buffer to ``path`` as JSONL; returns the count."""
        spans = self.spans()
        with open(path, mode, encoding="utf-8") as handle:
            dump_jsonl(spans, handle)
        return len(spans)


def dump_jsonl(spans: Iterable[Span], handle: IO[str]) -> None:
    for span in spans:
        handle.write(json.dumps(span.to_dict(), separators=(",", ":"))
                     + "\n")


def dumps_jsonl(spans: Iterable[Span]) -> str:
    """The spans as one JSONL string (e.g. for an HTTP response)."""
    return "".join(json.dumps(span.to_dict(), separators=(",", ":")) + "\n"
                   for span in spans)


class SpanLog(List[Span]):
    """Loaded spans, plus how many torn trailing bytes were dropped.

    A plain ``list`` of spans to every existing caller;
    ``dropped_bytes`` is non-zero when the file ended in a truncated
    record (a crash mid-write) that :func:`load_jsonl` discarded.
    """

    dropped_bytes: int = 0


def load_jsonl(source: "str | IO[str]") -> SpanLog:
    """Read spans back from a JSONL file or handle (blank lines skipped).

    A process that dies mid-write leaves a truncated final line; that
    is expected physics, not corruption, so the complete prefix is
    returned with the torn tail counted in ``.dropped_bytes`` — the
    same policy the flight journal applies to its torn trailing
    record.  A malformed line with real records *after* it still
    raises: nothing can truncate the middle of an append-only file.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return load_jsonl(handle)
    text = source.read()
    lines = text.split("\n")
    spans = SpanLog()
    for position, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            spans.append(Span.from_dict(json.loads(stripped)))
        except (ValueError, KeyError, TypeError):
            if any(rest.strip() for rest in lines[position + 1:]):
                raise
            spans.dropped_bytes = len(
                "\n".join(lines[position:]).encode("utf-8"))
            break
    return spans
