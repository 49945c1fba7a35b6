"""Outside-in layer ledger: exclusive time per layer, traced from here.

:func:`install` replaces each layer's entry points (:data:`TARGETS`)
with timing wrappers for the duration of a traced run — patching every
name *where it is looked up* — and :func:`uninstall` restores the
originals.  The program under ``src/`` is not edited and does not know.

One stack of active entry points spans the whole process.  Every push
and pop charges the wall time since the previous transition to the
entry point then on top, so self times are exclusive by construction
and sum to the window's wall time.  Synchronous entry points push for
the call; generator entry points are driven through a proxy generator
that pushes for each ``send``/``throw`` step, so time is attributed per
resume.  What no wrapper covers (the asyncio loop, selector and socket
syscalls, the benchmark's own tasks between their explicit ``bench``
sections) stays on the root entry ``untraced``; time blocked in the
selector is split off as ``idle`` by CPU clock, which is what lets the
sum of self times be checked against ``time.process_time``.

Wrappers also record spans (bounded by :data:`SPAN_CAP`) written as
JSON lines when the run ends: one span per synchronous call, one per
generator lifetime.
"""

from __future__ import annotations

import importlib
import json
import selectors
import time
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional

#: The root entry: whatever no wrapper covers.
ROOT = "untraced"
#: Wall time blocked in ``select`` beyond the CPU it used.
IDLE = "idle"
#: The benchmark's own load generator and checker.
BENCH = "bench"

#: Spans kept per traced window; later spans are counted, not stored.
SPAN_CAP = 50_000


class Target(NamedTuple):
    """One wrapped entry point."""

    layer: str
    module: str          # module whose namespace holds the name
    owner: str           # class in that module, or "" for a function
    attr: str
    kind: str            # "sync", "gen" or "spawn"
    #: Private names are hooks of convenience: skipped when a later
    #: change renames them, and their time then falls to the enclosing
    #: layer.  Public names missing is an error the run reports.
    optional: bool = False
    #: Key of a hook in :meth:`Ledger._hooks` run after the call.
    hook: str = ""


_CODEC_SITES = ("repro.live.codec", "repro.live.transport")

TARGETS: List[Target] = [
    Target("core.suite", "repro.core.suite", "FileSuiteClient", "read",
           "gen", hook="op"),
    Target("core.suite", "repro.core.suite", "FileSuiteClient", "write",
           "gen", hook="op"),
    Target("core.suite", "repro.core.suite", "FileSuiteClient", "read_in",
           "gen"),
    Target("core.suite", "repro.core.suite", "FileSuiteClient", "write_in",
           "gen"),
    Target("core.refresh", "repro.core.refresh", "BackgroundRefresher",
           "schedule", "sync"),
    Target("core.refresh", "repro.core.refresh", "BackgroundRefresher",
           "_refresh", "gen", optional=True),
    Target("txn.coordinator", "repro.txn.coordinator", "TransactionManager",
           "begin", "sync", hook="begin"),
    Target("txn.coordinator", "repro.txn.coordinator", "TransactionManager",
           "commit", "gen", hook="latency"),
    Target("txn.coordinator", "repro.txn.coordinator", "TransactionManager",
           "abort", "gen"),
    Target("txn.coordinator", "repro.txn.coordinator", "Transaction", "call",
           "sync"),
    *(Target("txn.participant", "repro.txn.participant",
             "TransactionParticipant", name, "gen", hook="txn")
      for name in ("stat", "read", "stage_write", "prepare", "commit",
                   "abort")),
    Target("txn.locks", "repro.txn.locks", "LockManager", "acquire", "sync",
           hook="lock"),
    Target("txn.locks", "repro.txn.locks", "LockManager", "release_all",
           "sync"),
    Target("rpc", "repro.rpc.endpoint", "RpcEndpoint", "call", "sync"),
    Target("rpc", "repro.rpc.endpoint", "RpcEndpoint", "dispatch_message",
           "sync"),
    Target("rpc", "repro.rpc.endpoint", "RpcEndpoint", "_handle", "gen",
           optional=True),
    *(Target("live.codec", site, "", name, "sync")
      for site in _CODEC_SITES
      for name in ("encode_frame", "encode_binary_body", "encode_json_body",
                   "encode_batch_body", "decode_wire_body")),
    Target("live.transport", "repro.live.transport", "TransportNode", "send",
           "sync"),
    Target("live.transport", "repro.live.transport", "FrameParser", "feed",
           "sync", hook="wire"),
    Target("live.transport", "repro.live.transport", "_Connection",
           "data_received", "sync", optional=True),
    Target("live.transport", "repro.live.transport", "_Connection", "_flush",
           "sync", optional=True),
    Target("live.runtime", "repro.live.runtime", "LiveKernel", "schedule",
           "sync"),
    Target("live.runtime", "repro.live.runtime", "LiveKernel", "_run_due",
           "sync", optional=True),
    Target("live.runtime", "repro.live.runtime", "LiveRuntime", "run",
           "sync"),
    Target("live.runtime", "repro.sim.simulator", "Simulator", "spawn",
           "spawn"),
    Target("storage", "repro.storage.server", "StorageServer", "execute",
           "gen"),
    Target("storage", "repro.storage.server", "StorageServer", "stat",
           "sync"),
    Target("storage", "repro.storage.stable", "StableStore", "write_primary",
           "sync", hook="page"),
    Target("storage", "repro.storage.stable", "StableStore", "write_shadow",
           "sync", hook="page"),
    Target("storage", "repro.storage.stable", "StableStore", "read", "sync"),
    Target("obs", "repro.obs.collector", "TraceCollector", "start_trace",
           "sync", hook="span"),
    Target("obs", "repro.obs.collector", "TraceCollector", "start_span",
           "sync", hook="span"),
    Target("obs", "repro.obs.spans", "Span", "end", "sync"),
    Target("obs", "repro.obs.spans", "Span", "event", "sync"),
    Target("obs", "repro.sim.metrics", "MetricsRegistry", "counter", "sync"),
    Target("obs", "repro.sim.metrics", "MetricsRegistry", "gauge", "sync"),
    Target("obs", "repro.sim.metrics", "MetricsRegistry", "histogram",
           "sync"),
]

#: Layer names in ledger order (the root and the benchmark first).
LAYERS: List[str] = [ROOT, BENCH] + list(dict.fromkeys(
    target.layer for target in TARGETS))


def entry_name(target: Target) -> str:
    """Display name of an entry point: ``Class.attr`` or ``function``."""
    return f"{target.owner}.{target.attr}" if target.owner else target.attr


class Ledger:
    """The active-entry stack, its self times, counts, samples and spans."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns,
                 cpu_clock: Callable[[], int] = time.process_time_ns,
                 ) -> None:
        self.clock = clock
        self.cpu_clock = cpu_clock
        #: Off: every wrapper is one flag test in front of the original.
        self.active = False
        self.names: List[str] = []
        self.layers: List[str] = []
        self.self_ns: List[int] = []
        self.calls: List[int] = []
        self._ids: Dict[str, int] = {}
        self.root = self.entry(ROOT, ROOT)
        self.idle = self.entry(IDLE, IDLE)
        self.bench = self.entry(BENCH, BENCH)
        self.stack: List[int] = [self.root]
        #: ``[time of the last transition]`` — a cell, so the closures
        #: below share it without an attribute lookup per transition.
        self.last = [0]
        #: CPU nanoseconds spent inside ``select`` (moved from ``idle``
        #: to ``untraced`` when reporting).
        self.select_cpu_ns = 0
        #: Generator steps of spawned processes.
        self.resumes = [0]
        self.wire_bytes = 0
        self.page_bytes = 0
        self.obs_spans = 0
        self.lock_waits_ms: List[float] = []
        self.latencies_ms: Dict[int, List[float]] = {}
        #: ``[entry, start_ns, end_ns, parent span, op]`` per span.
        self.spans: List[List[Any]] = []
        self.spans_lost = 0
        self.span_stack: List[int] = [-1]
        #: Operation the running code belongs to, if known.
        self.op: Optional[int] = None
        self._next_op = 0
        self._txn_ops: Dict[str, int] = {}
        self.missing: List[str] = []
        self._patched: List[Any] = []
        self.reset()

    # -- registry ----------------------------------------------------------

    def entry(self, layer: str, name: str) -> int:
        """Id of the entry point ``name`` in ``layer`` (created once)."""
        key = f"{layer}:{name}"
        if key not in self._ids:
            self._ids[key] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self.self_ns.append(0)
            self.calls.append(0)
        return self._ids[key]

    def reset(self) -> None:
        """Zero every accumulator; the window starts now."""
        self.self_ns[:] = [0] * len(self.names)
        self.calls[:] = [0] * len(self.names)
        self.select_cpu_ns = 0
        self.resumes[0] = 0
        self.wire_bytes = self.page_bytes = self.obs_spans = 0
        self.lock_waits_ms = []
        self.latencies_ms = {}
        self.spans = []
        self.spans_lost = 0
        self.last[0] = self.clock()

    def settle(self) -> None:
        """Charge the time since the last transition to the running entry."""
        now = self.clock()
        self.self_ns[self.stack[-1]] += now - self.last[0]
        self.last[0] = now

    # -- explicit sections (the benchmark's own code) ------------------------

    def push(self, entry: int) -> None:
        if self.active:
            self.settle()
            self.stack.append(entry)
            self.calls[entry] += 1

    def pop(self) -> None:
        if self.active and len(self.stack) > 1:
            self.settle()
            self.stack.pop()

    # -- spans -------------------------------------------------------------

    def _open_span(self, entry: int, start: int, op: Optional[int]) -> int:
        if len(self.spans) >= SPAN_CAP:
            self.spans_lost += 1
            return -1
        self.spans.append([entry, start, start, self.span_stack[-1], op])
        return len(self.spans) - 1

    def new_op(self) -> int:
        self._next_op += 1
        return self._next_op

    # -- hooks -------------------------------------------------------------

    def _hooks(self) -> Dict[str, Callable[..., None]]:
        def begin(result: Any, args: Any, kwargs: Any, start: int) -> None:
            if self.op is not None and hasattr(result, "txn_id"):
                self._txn_ops[str(result.txn_id)] = self.op

        def lock(result: Any, args: Any, kwargs: Any, start: int) -> None:
            if not result.pending:
                self.lock_waits_ms.append(0.0)
                return
            waits, clock = self.lock_waits_ms, self.clock
            result.add_callback(
                lambda _event: waits.append((clock() - start) / 1e6))

        def wire(result: Any, args: Any, kwargs: Any, start: int) -> None:
            self.wire_bytes += len(args[1]) if len(args) > 1 \
                else len(kwargs.get("data", b""))

        def page(result: Any, args: Any, kwargs: Any, start: int) -> None:
            self.page_bytes += len(args[2]) if len(args) > 2 \
                else len(kwargs.get("payload", b""))

        def span(result: Any, args: Any, kwargs: Any, start: int) -> None:
            if result:
                self.obs_spans += 1

        return {"begin": begin, "lock": lock, "wire": wire, "page": page,
                "span": span}

    def _op_of(self, target: Target, args: Any, kwargs: Any) -> Optional[int]:
        """Operation a generator entry point runs on behalf of."""
        if target.hook == "op":
            return self.new_op()
        if target.hook == "txn":
            txn = kwargs.get("txn") or (args[1] if len(args) > 1 else None)
            return self._txn_ops.get(txn, self.op)
        if target.attr == "_handle" and len(args) > 1:
            txn = getattr(args[1], "args", {}).get("txn")
            return self._txn_ops.get(txn, self.op)
        return self.op

    # -- wrappers ----------------------------------------------------------

    def wrap_sync(self, entry: int, original: Callable[..., Any],
                  hook: Optional[Callable[..., None]] = None,
                  ) -> Callable[..., Any]:
        stack, span_stack, last = self.stack, self.span_stack, self.last
        clock = self.clock

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return original(*args, **kwargs)
            self_ns = self.self_ns
            start = clock()
            self_ns[stack[-1]] += start - last[0]
            last[0] = start
            stack.append(entry)
            self.calls[entry] += 1
            index = self._open_span(entry, start, self.op)
            span_stack.append(index)
            try:
                result = original(*args, **kwargs)
                if hook is not None:
                    hook(result, args, kwargs, start)
                return result
            finally:
                now = clock()
                self_ns[entry] += now - last[0]
                last[0] = now
                stack.pop()
                span_stack.pop()
                if index >= 0:
                    self.spans[index][2] = now

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        return wrapper

    def wrap_gen(self, entry: int, original: Callable[..., Any],
                 target: Target) -> Callable[..., Any]:
        latency = target.hook == "latency"

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = original(*args, **kwargs)
            if not self.active or not hasattr(result, "send"):
                return result
            self.calls[entry] += 1
            op = self._op_of(target, args, kwargs)
            index = self._open_span(entry, self.clock(), op)
            proxy = self._drive(entry, result, index, op, latency)
            proxy.__name__ = getattr(result, "__name__", target.attr)
            return proxy

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        return wrapper

    def _drive(self, entry: int, generator: Any, index: int,
               op: Optional[int], latency: bool) -> Iterator[Any]:
        """Proxy generator: push ``entry`` around every resume step."""
        stack, span_stack, last = self.stack, self.span_stack, self.last
        clock = self.clock
        born = clock()
        value: Any = None
        error: Optional[BaseException] = None
        try:
            while True:
                self_ns = self.self_ns
                now = clock()
                self_ns[stack[-1]] += now - last[0]
                last[0] = now
                stack.append(entry)
                span_stack.append(index)
                saved, self.op = self.op, op
                try:
                    if error is not None:
                        target = generator.throw(error)
                    else:
                        target = generator.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    now = clock()
                    self_ns[entry] += now - last[0]
                    last[0] = now
                    stack.pop()
                    span_stack.pop()
                    self.op = saved
                try:
                    value = yield target
                    error = None
                except GeneratorExit:
                    generator.close()
                    raise
                except BaseException as exc:  # noqa: BLE001 - forwarded
                    value, error = None, exc
        finally:
            now = clock()
            if index >= 0 and index < len(self.spans):
                self.spans[index][2] = now
            if latency:
                self.latencies_ms.setdefault(entry, []).append(
                    (now - born) / 1e6)

    def wrap_spawn(self, entry: int, original: Callable[..., Any],
                   ) -> Callable[..., Any]:
        """``spawn(generator)``: timed, and the process's resumes counted."""
        resumes = self.resumes

        def counted(generator: Any) -> Iterator[Any]:
            value: Any = None
            error: Optional[BaseException] = None
            while True:
                resumes[0] += 1
                try:
                    if error is not None:
                        target = generator.throw(error)
                    else:
                        target = generator.send(value)
                except StopIteration as stop:
                    return stop.value
                try:
                    value = yield target
                    error = None
                except GeneratorExit:
                    generator.close()
                    raise
                except BaseException as exc:  # noqa: BLE001 - forwarded
                    value, error = None, exc

        def spawn(kernel: Any, generator: Any, name: str = "") -> Any:
            if self.active and hasattr(generator, "send"):
                proxy = counted(generator)
                proxy.__name__ = getattr(generator, "__name__", "process")
                generator = proxy
            return original(kernel, generator, name=name)

        spawn.__wrapped__ = original  # type: ignore[attr-defined]
        return self.wrap_sync(entry, spawn)

    def wrap_select(self, original: Callable[..., Any]
                    ) -> Callable[..., Any]:
        """``selector.select``: wall time is idle, its CPU stays untraced."""
        cpu_clock = self.cpu_clock

        def select(selector: Any, timeout: Optional[float] = None) -> Any:
            if not self.active:
                return original(selector, timeout)
            self.settle()
            self.stack.append(self.idle)
            cpu = cpu_clock()
            try:
                return original(selector, timeout)
            finally:
                self.select_cpu_ns += cpu_clock() - cpu
                self.settle()
                self.stack.pop()

        select.__wrapped__ = original  # type: ignore[attr-defined]
        return select

    # -- reporting ---------------------------------------------------------

    def layer_self_ns(self) -> Dict[str, int]:
        """Self time per layer; ``idle`` holds only the blocked wall time."""
        totals: Dict[str, int] = {}
        for index, spent in enumerate(self.self_ns):
            layer = self.layers[index]
            totals[layer] = totals.get(layer, 0) + spent
        totals[ROOT] = totals.get(ROOT, 0) + self.select_cpu_ns
        totals[IDLE] = totals.get(IDLE, 0) - self.select_cpu_ns
        return totals

    def entry_rows(self) -> List[Dict[str, Any]]:
        """Per entry point: layer, name, calls and self time."""
        return [{"layer": self.layers[index], "entry": self.names[index],
                 "calls": self.calls[index], "self_ns": self.self_ns[index]}
                for index in range(len(self.names))]

    def layer_calls(self, layer: str, *names: str) -> int:
        """Calls into ``layer`` (restricted to the entries in ``names``)."""
        return sum(self.calls[index] for index in range(len(self.names))
                   if self.layers[index] == layer
                   and (not names or self.names[index] in names))

    def entry_self_ns(self, layer: str, *names: str) -> int:
        return sum(self.self_ns[index] for index in range(len(self.names))
                   if self.layers[index] == layer
                   and self.names[index] in names)

    def latencies(self, layer: str, name: str) -> List[float]:
        return self.latencies_ms.get(self._ids.get(f"{layer}:{name}", -1),
                                     [])

    def write_spans(self, path: str, origin_ns: int) -> int:
        """Dump the recorded spans as JSON lines; returns the count."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (entry, start, end, parent, op) in enumerate(
                    self.spans):
                handle.write(json.dumps({
                    "span": index, "parent": parent if parent >= 0 else None,
                    "op": op, "layer": self.layers[entry],
                    "name": self.names[entry],
                    "start_us": round((start - origin_ns) / 1e3, 3),
                    "end_us": round((end - origin_ns) / 1e3, 3),
                }) + "\n")
        return len(self.spans)


def _resolve(target: Target) -> Any:
    module = importlib.import_module(target.module)
    return getattr(module, target.owner) if target.owner else module


def install(ledger: Ledger) -> None:
    """Patch every target in place; :func:`uninstall` undoes it.

    Must run before the cluster is built: handler tables and transport
    callbacks capture bound methods at construction time.
    """
    if ledger._patched:
        raise RuntimeError("ledger already installed")
    hooks = ledger._hooks()
    for target in TARGETS:
        try:
            owner = _resolve(target)
            original = owner.__dict__[target.attr] if target.owner \
                else getattr(owner, target.attr)
        except (ImportError, AttributeError, KeyError):
            if not target.optional:
                ledger.missing.append(
                    f"{target.module}:{entry_name(target)}")
            continue
        entry = ledger.entry(target.layer, entry_name(target))
        if target.kind == "gen":
            wrapper = ledger.wrap_gen(entry, original, target)
        elif target.kind == "spawn":
            wrapper = ledger.wrap_spawn(entry, original)
        else:
            wrapper = ledger.wrap_sync(entry, original,
                                       hooks.get(target.hook))
        setattr(owner, target.attr, wrapper)
        ledger._patched.append((owner, target.attr, original))
    selector = selectors.DefaultSelector
    original = selector.__dict__.get("select")
    if original is not None:
        setattr(selector, "select", ledger.wrap_select(original))
        ledger._patched.append((selector, "select", original))
    ledger.reset()


def uninstall(ledger: Ledger) -> None:
    """Restore every original, newest patch first."""
    ledger.active = False
    while ledger._patched:
        owner, attr, original = ledger._patched.pop()
        setattr(owner, attr, original)


def patched_names() -> List[Any]:
    """``(owner, attr)`` of every name :func:`install` may replace."""
    names: List[Any] = []
    for target in TARGETS:
        try:
            names.append((_resolve(target), target.attr))
        except (ImportError, AttributeError):
            continue
    names.append((selectors.DefaultSelector, "select"))
    return names
