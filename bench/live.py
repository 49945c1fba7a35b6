"""Drive one workload against the live loopback cluster.

One process, one thread, one event loop hosts the load generator, the
client runtime and the three storage daemons
(:class:`repro.live.LoopbackCluster` with its defaults as shipped:
``obs=True``, ``fsync=False``, flight and profiler off, on disk-backed
stable stores in a fresh directory), so on a two-core box the numbers
measure the program and not the scheduler.

A run is: set up (possibly several times, to time it), warm up, then
one or more back-to-back measured phases, then quiesce, verify the
final state and tear down.  Every operation's reference time (issue
time, or due time in the open loop), completion time and verdict is
logged; phases are cut out of that log afterwards.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.live import LoopbackCluster

from .check import INSTALLER, Checker, encode_payload
from .layers import Ledger
from .stats import percentile
from .workloads import SERVERS, Plan, suite_configuration

#: A measured phase is cut into slices of about this many seconds (at
#: least MIN_SLICES of them), and its end-to-end numbers come from the
#: quietest third of the slices: see :func:`phase_stats`.
SLICE_SECONDS = 1.0
MIN_SLICES = 5
QUIET_SHARE = 1.0 / 3.0

#: Seconds an operation may stay outstanding after the last phase, and
#: the ceiling on waiting for background work to drain.
GRACE_SECONDS = 5.0

#: Open loop: more than this many seconds' worth of arrivals still in
#: flight when the window ends means the backlog was growing.
BACKLOG_SECONDS = 0.25


class RunInvalid(RuntimeError):
    """The run cannot be trusted (set-up failed its own read-back)."""


@dataclass
class PhaseSpec:
    name: str
    seconds: float
    traced: bool = False


@dataclass
class PhaseMark:
    """Clock readings at a phase's sub-window edges, counters at its ends."""

    spec: PhaseSpec
    #: ``(perf_counter, process_time)`` at every slice edge.
    edges: List[Tuple[float, float]]
    counters_start: Dict[str, float]
    counters_end: Dict[str, float]
    #: Seconds this process sat runnable but off the CPU during the phase.
    run_delay_seconds: float = 0.0

    @property
    def start(self) -> float:
        return self.edges[0][0]

    @property
    def end(self) -> float:
        return self.edges[-1][0]


@dataclass
class OpLog:
    """What the load generator saw, one entry per operation."""

    #: Reference time of every operation issued.
    issued: List[float] = field(default_factory=list)
    #: ``(is_write, reference, done, ok, attempts)`` per finished one.
    records: List[Tuple[bool, float, float, bool, int]] = field(
        default_factory=list)
    #: Open loop: ``(due, launched - due)`` per arrival.
    lags: List[Tuple[float, float]] = field(default_factory=list)
    errors: Dict[str, int] = field(default_factory=dict)


@dataclass
class LiveResult:
    setup_seconds: List[float]
    marks: List[PhaseMark]
    log: OpLog
    checker: Checker
    #: Reasons the run is void (orphan failures, stuck operations...).
    invalid: List[str]
    cancelled: int


def counters(cluster: LoopbackCluster) -> Dict[str, float]:
    """Sum the program's own public counters over client and servers."""
    client = cluster.client
    assert client is not None
    endpoints = [client.endpoint] + [s.endpoint
                                     for s in cluster.servers.values()]
    nodes = [client.transport] + [s.transport
                                  for s in cluster.servers.values()]
    totals: Dict[str, float] = {
        "rpc.calls_sent": sum(e.calls_sent for e in endpoints),
        "rpc.requests_served": sum(e.requests_served for e in endpoints),
        "rpc.retransmissions": sum(e.retransmissions for e in endpoints),
        "rpc.duplicates_suppressed": sum(e.duplicates_suppressed
                                         for e in endpoints),
    }
    for name in ("frames_sent", "frames_received", "frames_dropped",
                 "batches_sent", "messages_batched"):
        totals[f"transport.{name}"] = sum(getattr(n, name) for n in nodes)
    reads = writes = deadlocks = timeouts = 0
    for server in cluster.servers.values():
        for careful in (server.server.stable.primary,
                        server.server.stable.shadow):
            reads += careful.pages.reads
            writes += careful.pages.writes
        deadlocks += server.participant.locks.deadlocks_detected
        timeouts += server.participant.locks.lock_timeouts
    totals.update({"storage.page_reads": reads,
                   "storage.page_writes": writes,
                   "locks.deadlocks": deadlocks,
                   "locks.timeouts": timeouts})
    for name in ("suite.retries", "suite.read_fastpath",
                 "suite.read_fallback", "suite.read_cached",
                 "refresh.transactions", "refresh.scheduled",
                 "refresh.completed", "refresh.abandoned"):
        totals[name] = client.metrics.counter_value(name)
    return totals


async def boot(plan: Plan, data_root: str,
               ) -> Tuple[LoopbackCluster, List[Any], Checker]:
    """Start the cluster, install every suite and read each one back."""
    workload = plan.workload
    checker = Checker(plan.suite_names)
    cluster = LoopbackCluster(SERVERS, data_root=data_root)
    await cluster.start()
    try:
        suites = []
        for name in plan.suite_names:
            suites.append(await cluster.install(
                suite_configuration(name), encode_payload(
                    name, INSTALLER, 0, workload.payload, plan.filler)))
        for index, suite in enumerate(suites):
            result = await cluster.read(suite)
            if result.version != 1 or not checker.read_done(
                    index, 1, result.version, result.data):
                raise RunInvalid(
                    f"set-up read-back of {plan.suite_names[index]} failed: "
                    f"{checker.violations}")
    except BaseException:
        await cluster.close()
        raise
    return cluster, suites, checker


def _run_delay() -> float:
    """Seconds this process has waited on a run queue (Linux schedstat)."""
    try:
        with open("/proc/self/schedstat", encoding="ascii") as handle:
            return int(handle.read().split()[1]) / 1e9
    except (OSError, ValueError, IndexError):
        return 0.0


async def _sleep_until(moment: float) -> None:
    await asyncio.sleep(max(0.0, moment - time.perf_counter()))


async def _quiesce(cluster: LoopbackCluster) -> bool:
    """Wait until the refresher and every endpoint have gone quiet."""
    deadline = time.perf_counter() + GRACE_SECONDS
    previous: Optional[Tuple[float, float]] = None
    while time.perf_counter() < deadline:
        now = counters(cluster)
        refreshing = now["refresh.scheduled"] - now["refresh.completed"] \
            - now["refresh.abandoned"]
        activity = (now["rpc.calls_sent"], now["rpc.requests_served"])
        if refreshing == 0 and activity == previous:
            return True
        previous = activity
        await asyncio.sleep(0.05)
    return False


def _orphans(cluster: LoopbackCluster) -> List[str]:
    kernels = {"client": cluster.client.kernel}  # type: ignore[union-attr]
    kernels.update({name: server.kernel
                    for name, server in cluster.servers.items()})
    return [f"unhandled failure in live process {process!r} on {where}: "
            f"{type(exc).__name__}: {exc}"
            for where, kernel in kernels.items()
            for process, exc in kernel.orphan_failures]


async def run_workload(plan: Plan, warmup: float, phases: Sequence[PhaseSpec],
                       scratch_dir: str, ledger: Optional[Ledger] = None,
                       setup_rounds: int = 1) -> LiveResult:
    """Set up ``setup_rounds`` times, then run the load over ``phases``."""
    os.makedirs(scratch_dir, exist_ok=True)
    setup_seconds: List[float] = []
    for round_index in range(setup_rounds):
        data_root = tempfile.mkdtemp(prefix="cluster-", dir=scratch_dir)
        started = time.perf_counter()
        try:
            cluster, suites, checker = await boot(plan, data_root)
        except BaseException:
            shutil.rmtree(data_root, ignore_errors=True)
            raise
        setup_seconds.append(time.perf_counter() - started)
        if round_index + 1 < setup_rounds:
            await cluster.close()
            shutil.rmtree(data_root, ignore_errors=True)
    try:
        result = await _drive(plan, warmup, phases, cluster, suites, checker,
                              ledger)
    finally:
        await cluster.close()
        shutil.rmtree(data_root, ignore_errors=True)
    result.setup_seconds = setup_seconds
    return result


async def _drive(plan: Plan, warmup: float, phases: Sequence[PhaseSpec],
                 cluster: LoopbackCluster, suites: List[Any],
                 checker: Checker, ledger: Optional[Ledger]) -> LiveResult:
    workload = plan.workload
    ops, names = plan.ops, plan.suite_names
    log = OpLog()
    stop = asyncio.Event()
    sequence = [0]
    # The load generator's own work is a layer of the ledger too.
    if ledger is not None:
        enter, leave = (lambda: ledger.push(ledger.bench)), ledger.pop
    else:
        enter = leave = lambda: None

    async def one_op(index: int, writer: str,
                     due: Optional[float] = None) -> None:
        suite_index, is_write = ops[index % len(ops)]
        enter()
        floor = checker.issue(suite_index, is_write)
        data, seq = b"", 0
        if is_write:
            sequence[0] += 1
            seq = sequence[0]
            data = encode_payload(names[suite_index], writer, seq,
                                  workload.payload, plan.filler)
        reference = time.perf_counter() if due is None else due
        log.issued.append(reference)
        leave()
        try:
            if is_write:
                result = await cluster.write(suites[suite_index], data)
            else:
                result = await cluster.read(suites[suite_index])
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - the op failed; count it
            log.records.append((is_write, reference, time.perf_counter(),
                                False, 0))
            kind = type(exc).__name__
            log.errors[kind] = log.errors.get(kind, 0) + 1
            return
        done = time.perf_counter()
        enter()
        if is_write:
            ok = checker.write_done(suite_index, floor, result.version,
                                    writer, seq)
        else:
            ok = checker.read_done(suite_index, floor, result.version,
                                   result.data)
        log.records.append((is_write, reference, done, ok, result.attempts))
        leave()

    async def closed_client(client: int) -> None:
        index = client
        while not stop.is_set():
            await one_op(index, f"c{client}")
            index += workload.clients

    in_flight: set = set()

    async def open_generator(origin: float) -> None:
        for index, offset in enumerate(plan.due):
            due = origin + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            log.lags.append((due, time.perf_counter() - due))
            task = asyncio.ensure_future(one_op(index, "g", due))
            in_flight.add(task)
            task.add_done_callback(in_flight.discard)

    # Collect what set-up left behind (including discarded clusters) and
    # take the survivors out of the collector's sight; GC stays enabled.
    gc.collect()
    gc.freeze()
    origin = time.perf_counter() + warmup
    if workload.loop == "open":
        drivers = [asyncio.ensure_future(open_generator(origin))]
    else:
        drivers = [asyncio.ensure_future(closed_client(client))
                   for client in range(workload.clients)]

    marks: List[PhaseMark] = []
    invalid: List[str] = []
    boundary = origin
    try:
        await _sleep_until(boundary)
        for spec in phases:
            tracing = ledger if spec.traced else None
            if tracing is not None:
                tracing.reset()
                tracing.active = True
            edges = [(time.perf_counter(), time.process_time())]
            before, delayed = counters(cluster), _run_delay()
            slices = max(MIN_SLICES, round(spec.seconds / SLICE_SECONDS))
            for _slice in range(slices):
                boundary += spec.seconds / slices
                await _sleep_until(boundary)
                if tracing is not None:
                    tracing.settle()
                edges.append((time.perf_counter(), time.process_time()))
            if tracing is not None:
                tracing.active = False
            marks.append(PhaseMark(spec=spec, edges=edges,
                                   counters_start=before,
                                   counters_end=counters(cluster),
                                   run_delay_seconds=_run_delay() - delayed))
    finally:
        stop.set()
    # Stop issuing, then give what is in flight its grace period.
    waiting = set(drivers) | in_flight
    _done, pending = await asyncio.wait(waiting, timeout=GRACE_SECONDS)
    pending |= {task for task in in_flight if not task.done()}
    for task in pending:
        task.cancel()
    if pending:
        await asyncio.gather(*pending, return_exceptions=True)
    for task in drivers:
        if task.done() and not task.cancelled() and task.exception():
            invalid.append(f"load generator died: {task.exception()!r}")
    if not await _quiesce(cluster):
        invalid.append("background work did not go idle within "
                       f"{GRACE_SECONDS:.0f} s of the window")
    for index, suite in enumerate(suites):
        try:
            final = await cluster.read(suite)
        except Exception as exc:  # noqa: BLE001 - reported, not raised
            checker.violations.append(
                f"final read of {names[index]} failed: {exc!r}")
            continue
        checker.final(index, final.version, final.data)
    await _quiesce(cluster)
    invalid.extend(_orphans(cluster))
    return LiveResult(setup_seconds=[], marks=marks, log=log,
                      checker=checker, invalid=invalid,
                      cancelled=len(pending))


def phase_stats(result: LiveResult, mark: PhaseMark,
                plan: Plan) -> Dict[str, Any]:
    """Cut one phase out of the operation log and summarise it.

    Interference from outside the process (a neighbour on the host, a
    burst on the other core) only ever slows a slice down, and it shows
    as CPU time per operation going up.  The end-to-end numbers are
    therefore taken over the **quietest third** of the phase's slices —
    those with the lowest CPU time per completed operation — so that
    they estimate the program's own speed.  Every slice offers the same
    mix (see ``workloads.py``), so ranking by cost does not select for
    cheap operations.  Whole-phase figures are kept beside them.
    """
    start, end = mark.start, mark.end
    times = [moment for moment, _cpu in mark.edges]
    slices = len(times) - 1
    log = result.log

    def slice_of(moment: float) -> int:
        return min(bisect.bisect_right(times, moment) - 1, slices - 1)

    attempted = sum(1 for moment in log.issued if start <= moment < end)
    issued_here = [r for r in log.records if start <= r[1] < end]
    finished_here = [r for r in log.records
                     if r[3] and start <= r[2] < end]
    ops = len(finished_here)
    cpu_seconds = mark.edges[-1][1] - mark.edges[0][1]
    stats: Dict[str, Any] = {
        "seconds": end - start,
        "attempted": attempted,
        "failed": (attempted - len(issued_here)
                   + sum(1 for r in issued_here if not r[3])),
        "ops": ops,
        "reads": sum(1 for r in finished_here if not r[0]),
        "writes": sum(1 for r in finished_here if r[0]),
        "attempts": sum(r[4] for r in finished_here),
        "cpu_seconds": cpu_seconds,
        "run_delay_seconds": mark.run_delay_seconds,
        "counters": {name: mark.counters_end[name] - value
                     for name, value in mark.counters_start.items()},
    }
    done_in = [0] * slices
    for record in finished_here:
        done_in[slice_of(record[2])] += 1
    rows = []
    for index in range(slices):
        (t0, cpu0), (t1, cpu1) = mark.edges[index], mark.edges[index + 1]
        rows.append({"seconds": t1 - t0, "cpu_seconds": cpu1 - cpu0,
                     "ops": done_in[index]})
    ranked = sorted((index for index in range(slices) if done_in[index]),
                    key=lambda index: rows[index]["cpu_seconds"]
                    / done_in[index])
    quiet = set(ranked[:max(2, round(slices * QUIET_SHARE))])
    for index, row in enumerate(rows):
        row["quiet"] = index in quiet
    stats["slices"] = rows

    def summarise(keep: Any) -> Dict[str, Any]:
        kept = [row for index, row in enumerate(rows) if keep(index)]
        kept_ops = sum(row["ops"] for row in kept)
        by_kind = {"op": [], "read": [], "write": []}  # type: Dict[str, List]
        for is_write, reference, done, ok, _attempts in issued_here:
            if ok and keep(slice_of(reference)):
                elapsed = (done - reference) * 1000.0
                by_kind["op"].append(elapsed)
                by_kind["write" if is_write else "read"].append(elapsed)
        latency = {}
        for kind, samples in by_kind.items():
            samples.sort()
            latency[kind] = {
                "count": len(samples),
                **{f"p{p}": percentile(samples, p) if samples else 0.0
                   for p in (50, 95, 99)}}
        return {
            "ops_per_s": (kept_ops / sum(row["seconds"] for row in kept)
                          if kept else 0.0),
            "cpu_ms_per_op": (sum(row["cpu_seconds"] for row in kept)
                              * 1000.0 / kept_ops if kept_ops
                              else float("nan")),
            "latency_ms": latency}

    stats["whole"] = summarise(lambda index: True)
    stats.update(summarise(quiet.__contains__))
    stats["op_p50_ms"] = stats["latency_ms"]["op"]["p50"]
    stats["op_p95_ms"] = stats["latency_ms"]["op"]["p95"]
    if plan.workload.loop == "open":
        lags = sorted(lag * 1000.0 for due, lag in log.lags
                      if start <= due < end)
        stats["sched_lag_p99_ms"] = percentile(lags, 99) if lags else 0.0
        checkpoints = times[slices // 5::max(1, slices // 5)][:5]
        stats["in_flight"] = [
            sum(1 for moment in log.issued if start <= moment < edge)
            - sum(1 for r in log.records
                  if start <= r[1] < edge and r[2] < edge)
            for edge in checkpoints[:-1] + [end]]
        stats["offered_ops_per_s"] = attempted / (end - start)
    return stats


def validity(stats: Dict[str, Any], plan: Plan) -> List[str]:
    """Open-loop runs must keep up: achieved == offered, no backlog."""
    if plan.workload.loop != "open":
        return []
    problems = []
    offered = stats["offered_ops_per_s"]
    achieved = stats["ops"] / stats["seconds"]
    if abs(achieved - offered) > 0.02 * offered:
        problems.append(f"achieved {achieved:.1f} ops/s differs from the "
                        f"offered {offered:.1f} by more than 2%")
    if stats["in_flight"][-1] > BACKLOG_SECONDS * plan.workload.rate:
        problems.append(f"{stats['in_flight'][-1]} operations in flight at "
                        f"window end (per sub-window: {stats['in_flight']})")
    return problems
