"""The file suite: weighted-voting reads and writes.

This module implements the paper's algorithm over the transaction
substrate:

**Read** — poll representatives for their version numbers (a *version
number inquiry*, which moves no data and takes shared locks) until
representatives holding at least ``r`` votes have answered.  The highest
version number in the quorum is the *current* version: because
``r + w > N``, the quorum must include a member of the most recent write
quorum.  Read the data from the cheapest representative that is current
— which may be a zero-vote **weak representative** (a cache), since
currency, not votes, qualifies a representative to serve data.

The inquiry and the data fetch are collapsed into **one round trip**
by default: the cheapest polled representative is asked to piggyback
the file contents onto its stat reply (``read_data=True``), and when
that reply turns out to be current the follow-up ``txn.read`` is
skipped.  The fallback to the literal two-trip sequence — piggyback
target stale, down, or over the ``read_max_bytes`` ceiling, or a
``for_update`` read that stages a write next — keeps behaviour
otherwise identical (``read_fastpath=False`` disables the path).

A read that is its transaction's **only operation** — :meth:`read` and
:meth:`current_version`, which own their transaction — is one round in
total: every inquiry (and the fallback fetch) carries ``release=True``,
so each representative takes the shared lock exactly as before, builds
its reply and drops the lock as the handler returns; nothing is
enrolled for commit and no release round follows.  That is safe
because a version becomes observable only after its writer's decision,
by which time every member of its write quorum is prepared
(exclusive-locked, across crashes) or applied — any later read quorum
meets one of them and is either blocked by it or shown the new version
(``docs/PROTOCOL.md``, "Single-operation reads").  :meth:`read_in`
inside a caller's transaction, ``for_update`` reads and writes hold
their locks to commit, strict two-phase locking as ever.

**Write** — poll voting representatives (exclusive locks) until ``w``
votes have answered, compute ``new version = current + 1``, stage the
new data at a cheapest write quorum, and commit via two-phase commit so
the whole quorum moves atomically.  Because ``2w > N``, two writes can
never commit against disjoint quorums, so version numbers totally order
writes.

Representatives discovered to be stale, and representatives outside the
write quorum (including weak ones), are handed to the **background
refresher** (:mod:`repro.core.refresh`) together with the version and
bytes the operation already holds — bringing copies current never adds
latency to the foreground operation, and costs one call per copy.

Every operation runs inside a transaction; by default each call manages
its own transaction and retries transient failures (deadlock, lock
timeout, lost quorum) with jittered backoff, exactly the discipline the
paper assumes from its transactional storage system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Dict, Generator, List, Optional,
                    Sequence, Tuple)

from ..chaos.retry import RetryPolicy
from ..errors import (DeadlockError, HostUnreachableError, LockTimeoutError,
                      QuorumUnattainableError, QuorumUnavailableError,
                      RemoteError, ReproError, RpcTimeout,
                      StaleConfigurationError, TransactionAborted)
from ..obs.collector import TraceCollector
from ..obs.spans import NOOP_SPAN
from ..sim.metrics import MetricsRegistry
from ..sim.rng import RandomStreams
from ..sim.trace import Tracer
from ..txn.coordinator import Transaction, TransactionManager
from ..txn.locks import EXCLUSIVE, SHARED
from .gather import GatherResult, gather_until
from .quorum import cheapest_quorum
from .votes import Representative, SuiteConfiguration

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.simulator import Simulator
    from .refresh import BackgroundRefresher

#: Errors that abort one attempt but are worth retrying with a fresh
#: transaction.
RETRYABLE = (DeadlockError, LockTimeoutError, QuorumUnavailableError,
             RpcTimeout, HostUnreachableError, TransactionAborted,
             RemoteError)


@dataclass
class ReadResult:
    """Outcome of a suite read."""

    data: bytes
    version: int
    served_by: str                      # rep_id that supplied the data
    quorum: List[str]                   # rep_ids whose votes were counted
    stale: List[str]                    # responders below the current version
    attempts: int = 1
    #: Version each responding representative reported in the inquiry —
    #: the raw material for external invariant checking.
    observed: Dict[str, int] = field(default_factory=dict)
    #: Configuration-adoption retries this operation absorbed (a
    #: representative's stamp revealed a newer configuration mid-flight).
    #: Counted separately from ``attempts`` because adopting a config is
    #: progress, not failure — but traces need the true attempt count.
    config_refreshes: int = 0


@dataclass
class WriteResult:
    """Outcome of a suite write."""

    version: int
    quorum: List[str]                   # rep_ids written
    stale: List[str]                    # reps left behind (refresh targets)
    attempts: int = 1
    observed: Dict[str, int] = field(default_factory=dict)
    config_refreshes: int = 0


class FileSuiteClient:
    """Client-side handle for one replicated file suite.

    The client holds a copy of the suite configuration (vote assignment,
    quorums, latency hints).  If any representative reports a newer
    ``config_version``, the client adopts the new configuration and
    retries — configuration is itself replicated data.
    """

    def __init__(self, manager: TransactionManager,
                 config: SuiteConfiguration,
                 inquiry_timeout: float = 1_000.0,
                 weak_inquiry_timeout: Optional[float] = None,
                 data_timeout: float = 5_000.0,
                 max_attempts: int = 4,
                 retry_backoff: float = 50.0,
                 read_fastpath: bool = True,
                 read_max_bytes: int = 64 * 1024,
                 refresher: Optional["BackgroundRefresher"] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 streams: Optional[RandomStreams] = None,
                 tracer: Optional[Tracer] = None,
                 collector: Optional[TraceCollector] = None,
                 health: Optional[Any] = None,
                 profiler: Optional[Any] = None,
                 flight: Optional[Any] = None) -> None:
        self.manager = manager
        self.sim = manager.sim
        self.config = config
        self.inquiry_timeout = inquiry_timeout
        #: How long a read waits for a silent weak representative before
        #: giving up on the cache.  Weak reps are normally local and
        #: answer fast; a short bound here caps the cost of a dead one.
        self.weak_inquiry_timeout = (weak_inquiry_timeout
                                     if weak_inquiry_timeout is not None
                                     else inquiry_timeout)
        self.data_timeout = data_timeout
        self.max_attempts = max_attempts
        self.retry_backoff = retry_backoff
        #: Single-round-trip read fast path: ask the cheapest inquiry
        #: target to piggyback the file contents onto its ``txn.stat``
        #: reply, skipping the follow-up ``txn.read`` when that reply
        #: turns out to be current.  The shared lock the inquiry takes
        #: already covers the read, so consistency is untouched —
        #: ``read_fastpath=False`` restores the paper's literal
        #: two-trip sequence (used by the paper-table benchmarks).
        self.read_fastpath = read_fastpath
        #: Per-read ceiling on piggybacked data; files larger than this
        #: arrive via the legacy ``txn.read`` path instead (the server
        #: marks the reply ``truncated`` without spending page I/O).
        self.read_max_bytes = read_max_bytes
        self.refresher = refresher
        self.metrics = metrics or MetricsRegistry()
        self.tracer = tracer or Tracer(manager.sim, enabled=False)
        #: Causal tracing: operation root spans, quorum-assembly child
        #: spans, and (via :attr:`Transaction.span`) every RPC the
        #: operation issues.  The disabled default makes every span a
        #: no-op, so untraced runs pay one falsy check per operation.
        self.collector = collector or TraceCollector(
            clock=lambda: manager.sim.now, enabled=False)
        #: Optional :class:`~repro.chaos.health.HealthTracker` (duck
        #: typed: anything with ``allow(server)``).  Quorum assembly
        #: skips representatives it refuses and fails fast with
        #: :class:`QuorumUnattainableError` when the admitted votes
        #: cannot reach the threshold.
        self.health = health
        #: Optional :class:`~repro.perf.PhaseProfiler`; when wired it
        #: aggregates quorum-assembly durations under "quorum.assemble".
        self.profiler = profiler
        #: Optional :class:`~repro.obs.flight.FlightRecorder`: the
        #: black-box journal.  Every finished quorum gather — satisfied
        #: or not — appends one ``quorum`` record carrying the votes,
        #: settle order and version stamps the client actually saw.
        self.flight = flight
        streams = streams or RandomStreams(seed=0)
        self._rng = streams.stream(
            f"suite:{config.suite_name}:{manager.endpoint.host.name}")
        #: Backoff between operation attempts: exponential from
        #: ``retry_backoff``, uncapped (``max_attempts`` bounds it),
        #: jittered the way this loop always was.
        self._retry_policy = RetryPolicy(base=retry_backoff,
                                         multiplier=2.0,
                                         cap=float("inf"), jitter=0.5)

    # ------------------------------------------------------------------
    # Public operations (each manages its own transaction + retries)
    # ------------------------------------------------------------------

    def _operation_span(self, name: str, parent, **attrs):
        """Root span for one public operation: a new trace, or — when
        the caller passes its own span/context — a stitched child."""
        if parent:
            return self.collector.start_span(name, parent=parent,
                                             kind="client", **attrs)
        return self.collector.start_trace(name, **attrs)

    def read(self, parent=None) -> Generator[Any, Any, ReadResult]:
        """Read the current contents of the suite.

        ``parent`` (a span or remote :class:`~repro.obs.TraceContext`)
        roots this operation's span under an existing trace instead of
        opening a new one — how a namespace lookup and the data read it
        leads to stitch into one tree.
        """
        started = self.sim.now
        span = self._operation_span(
            "suite.read", parent, suite=self.config.suite_name)
        try:
            result = yield from self._with_retries(self._read_once,
                                                   span=span, release=True)
        except BaseException as exc:
            span.end(error=f"{type(exc).__name__}: {exc}")
            raise
        span.set_attr("version", result.version)
        span.set_attr("served_by", result.served_by)
        span.set_attr("attempts", result.attempts)
        if result.config_refreshes:
            span.set_attr("config_refreshes", result.config_refreshes)
        span.end()
        self.metrics.counter("suite.reads").increment()
        self.metrics.histogram("suite.read_latency").observe(
            self.sim.now - started)
        return result

    def write(self, data: bytes,
              parent=None) -> Generator[Any, Any, WriteResult]:
        """Replace the contents of the suite.

        ``parent`` works as in :meth:`read`.
        """
        started = self.sim.now
        span = self._operation_span(
            "suite.write", parent, suite=self.config.suite_name,
            size=len(data))
        try:
            result = yield from self._with_retries(self._write_once, data,
                                                   span=span, prepare=True)
        except BaseException as exc:
            span.end(error=f"{type(exc).__name__}: {exc}")
            raise
        span.set_attr("version", result.version)
        span.set_attr("attempts", result.attempts)
        if result.config_refreshes:
            span.set_attr("config_refreshes", result.config_refreshes)
        span.end()
        self.metrics.counter("suite.writes").increment()
        self.metrics.histogram("suite.write_latency").observe(
            self.sim.now - started)
        return result

    def current_version(self) -> Generator[Any, Any, int]:
        """Version-number inquiry only: collect a read quorum, no data."""
        def inquire(txn: Transaction):
            gathered = yield from self._inquire(
                txn, self.config.read_quorum, mode=SHARED,
                include_weak=False, release=True)
            return self._current_version_from(gathered)

        result = yield from self._with_retries(inquire)
        return result

    # -- single-attempt versions usable inside a caller's transaction ----

    def read_in(self, txn: Transaction, for_update: bool = False,
                ) -> Generator[Any, Any, ReadResult]:
        """One read attempt inside an existing transaction (no retries).

        ``for_update`` declares that the transaction will write the
        suite after reading it: the version inquiry then takes
        *exclusive* locks on a write quorum's worth of votes up front,
        so two concurrent read-modify-writes serialize instead of
        deadlocking on shared→exclusive upgrades.
        """
        return (yield from self._read_once(txn, for_update=for_update))

    def write_in(self, txn: Transaction,
                 data: bytes) -> Generator[Any, Any, WriteResult]:
        """One write attempt inside an existing transaction (no retries).

        The caller owns the commit; background refresh of the
        representatives left behind is scheduled automatically when (and
        only when) that commit succeeds.
        """
        return (yield from self._write_once(txn, data))

    def transact(self, operation) -> Generator[Any, Any, Any]:
        """Run a read-modify-write atomically, with the suite's retries.

        ``operation(txn)`` is a generator receiving a fresh transaction
        per attempt; combine :meth:`read_in` and :meth:`write_in` inside
        it.  Two-phase locking makes the whole sequence serializable —
        this is how applications (e.g. the Violet calendar) update
        structured data stored in a suite without lost updates::

            def add_item(txn):
                current = yield from suite.read_in(txn)
                items = decode(current.data) + [item]
                return (yield from suite.write_in(txn, encode(items)))

            result = yield from suite.transact(add_item)
        """
        return (yield from self._with_retries(operation))

    # ------------------------------------------------------------------
    # Protocol internals
    # ------------------------------------------------------------------

    def _read_once(self, txn: Transaction, for_update: bool = False,
                   release: bool = False,
                   ) -> Generator[Any, Any, ReadResult]:
        """One read attempt.  ``release`` is set by :meth:`read` alone,
        whose transaction holds nothing but this read: every call then
        drops its lock with its reply (see the module docstring)."""
        config = self.config
        started = self.sim.now
        if for_update:
            threshold = max(config.read_quorum, config.write_quorum)
            mode = EXCLUSIVE
        else:
            threshold = config.read_quorum
            mode = SHARED
        cached = self._read_cache()
        # ``for_update`` reads stage a write next, so the exclusive
        # inquiry + separate read is kept as-is; everything else rides
        # the fast path.
        fastpath = self.read_fastpath and not for_update
        gathered = yield from self._inquire(
            txn, threshold, mode=mode, include_weak=not for_update,
            read_data=fastpath,
            skip_version=cached[0] if cached is not None else None,
            release=release)
        current = self._current_version_from(gathered)

        data: Optional[bytes] = None
        served_by = ""
        if cached is not None and cached[0] == current:
            # The inquiry proved the client-resident copy current (a
            # version number names its bytes: the same argument that
            # lets any weak representative serve a read) — no data
            # needs to move at all.
            data = cached[1]
            served_by = "client-cache"
            self._observe_read_path("cached", started)
        if data is None and fastpath:
            bearing = sorted(
                (rep for rep, stat in gathered.successes.items()
                 if stat.get("data") is not None
                 and stat["version"] == current),
                key=lambda rep: (rep.latency_hint, rep.rep_id))
            if bearing:
                rep = bearing[0]
                data = gathered.successes[rep]["data"]
                served_by = rep.rep_id
                if rep.weak:
                    self.metrics.counter("suite.weak_reads").increment()
                self._observe_read_path("fastpath", started)
            elif any(stat.get("truncated")
                     for stat in gathered.successes.values()):
                self.metrics.counter("suite.read_truncated").increment()
        if data is None:
            # Legacy two-trip path: the piggyback target was stale,
            # truncated, down — or the fast path is off entirely.
            candidates = sorted(
                (rep for rep, stat in gathered.successes.items()
                 if stat["version"] == current),
                key=lambda rep: (rep.latency_hint, rep.rep_id))
            for rep in candidates:
                try:
                    # The version that came with the bytes is the one
                    # to report: without held locks a newer commit may
                    # land between the inquiry and this fetch.
                    data, current = yield txn.call(
                        rep.server, "txn.read", name=config.file_name,
                        timeout=self.data_timeout, release=release)
                except RETRYABLE:
                    continue
                served_by = rep.rep_id
                if rep.weak:
                    self.metrics.counter("suite.weak_reads").increment()
                break
            if data is None:
                raise QuorumUnavailableError("read-data", 1, 0)
            self._observe_read_path("fallback", started)

        stale = [rep for rep, stat in gathered.successes.items()
                 if stat["version"] < current]
        self._schedule_refresh(stale, current, data)
        quorum_ids = [rep.rep_id for rep in gathered.successes
                      if rep.votes > 0]
        self.tracer.record(f"suite:{config.suite_name}", "read",
                           version=current, served_by=served_by,
                           quorum=",".join(sorted(quorum_ids)),
                           stale=len(stale))
        return ReadResult(data=data, version=current, served_by=served_by,
                          quorum=quorum_ids,
                          stale=[rep.rep_id for rep in stale],
                          observed={rep.rep_id: stat["version"]
                                    for rep, stat
                                    in gathered.successes.items()})

    def _write_once(self, txn: Transaction, data: bytes,
                    prepare: bool = False,
                    ) -> Generator[Any, Any, WriteResult]:
        """One write attempt.  ``prepare`` is set by :meth:`write`
        alone, whose transaction asks nothing more of a representative
        once it has staged there: every stage then carries the vote
        request (see :mod:`repro.txn.coordinator`)."""
        config = self.config
        gathered = yield from self._inquire(
            txn, config.write_quorum, mode=EXCLUSIVE, include_weak=False)
        current = self._current_version_from(gathered,
                                             threshold=config.write_quorum,
                                             kind="write")
        new_version = current + 1

        responders = list(gathered.successes)
        quorum = cheapest_quorum(responders, config.write_quorum)
        stage_calls = [
            txn.call(rep.server, "txn.stage_write", name=config.file_name,
                     data=data, version=new_version,
                     timeout=self.data_timeout, prepare=prepare)
            for rep in quorum
        ]
        # Every staging must succeed; a failure aborts this attempt.
        yield self.sim.all_of(stage_calls)

        quorum_ids = {rep.rep_id for rep in quorum}
        left_behind = [rep for rep in config.representatives
                       if rep.rep_id not in quorum_ids]
        # Representatives outside the write quorum become stale the
        # moment this commits; hand them to the background refresher —
        # but only if the commit actually happens.
        txn.after_commit(
            lambda: self._schedule_refresh(left_behind, new_version, data))
        txn.after_commit(
            lambda: self.tracer.record(
                f"suite:{config.suite_name}", "write",
                version=new_version,
                quorum=",".join(sorted(quorum_ids)),
                left_behind=len(left_behind)))
        return WriteResult(version=new_version,
                           quorum=sorted(quorum_ids),
                           stale=[rep.rep_id for rep in left_behind],
                           observed={rep.rep_id: stat["version"]
                                     for rep, stat
                                     in gathered.successes.items()})

    def _read_cache(self) -> Optional[Tuple[int, bytes]]:
        """Hook for client-resident caches: ``(version, data)`` or None.

        When a subclass (:class:`~repro.core.client_cache.
        CachingSuiteClient`) returns a cached copy, the read's inquiry
        passes its version as ``skip_version`` — the piggyback target
        then omits the data when the cache is already current, so a
        cache *hit* moves only inquiry-sized messages and a cache
        *miss* still completes in the same single round trip.
        """
        return None

    def _observe_read_path(self, path: str, started: float) -> None:
        """Count which read path served, and time it when profiling."""
        self.metrics.counter(f"suite.read_{path}").increment()
        if self.profiler is not None:
            self.profiler.observe(f"read.{path}", self.sim.now - started)

    def _inquire(self, txn: Transaction, threshold: int, mode: str,
                 include_weak: bool, read_data: bool = False,
                 skip_version: Optional[int] = None,
                 release: bool = False,
                 ) -> Generator[Any, Any, GatherResult]:
        """Version-number inquiry until ``threshold`` votes respond.

        Weak representatives are polled too on reads (their answers are
        free candidates for serving the data) but never counted toward
        the quorum.

        With ``read_data=True`` exactly one representative — the
        cheapest admitted one by latency hint, i.e. the one the legacy
        path would fetch the data from anyway — is asked to piggyback
        the file contents onto its stat reply (bounded by
        :attr:`read_max_bytes`; a copy at ``skip_version`` sends no
        data).  Only one target keeps the paper's "data moves once"
        economy: broadcasting the request would multiply the bulk
        transfer by the representative count.

        With ``release=True`` every inquiry tells its representative to
        drop the lock it takes as it replies (single-operation reads).
        """
        config = self.config
        started = self.sim.now
        parent = txn.span
        qspan = self.collector.start_span(
            "quorum.assemble", parent=parent,
            suite=config.suite_name,
            mode="read" if mode == SHARED else "write",
            threshold=threshold)
        if qspan:
            # Inquiry RPCs (and the detail fetch in
            # _check_configuration) parent to the assembly span.
            txn.span = qspan
        # Consult the circuit breakers *before* soliciting anyone:
        # representatives whose breaker refuses traffic are left out of
        # the inquiry entirely (an open breaker past its cooldown
        # admits one probe call here).
        admitted: List[Representative] = []
        vetoed: List[Representative] = []
        for rep in config.representatives:
            if rep.weak and not include_weak:
                continue
            if self.health is not None \
                    and not self.health.allow(rep.server):
                vetoed.append(rep)
                continue
            admitted.append(rep)
        # The piggyback target: the cheapest admitted representative by
        # latency hint — exactly the one the legacy path would issue
        # its follow-up ``txn.read`` to when every copy is current.
        data_rep: Optional[Representative] = None
        if read_data and admitted:
            data_rep = min(admitted,
                           key=lambda rep: (rep.latency_hint, rep.rep_id))
        calls = {}

        def enough(successes, failures):
            votes = sum(rep.votes for rep in successes)
            if votes < threshold:
                return False
            settled = set(successes) | set(failures)
            if data_rep is not None and data_rep not in settled:
                # The piggybacked reply *is* the read's payload (it is
                # bigger than the other stats, so on a bandwidth-bound
                # link it lands last): returning the moment the votes
                # arrive would discard that transfer and pay a second
                # data trip.  A dead target settles at its inquiry
                # timeout and the read falls back.
                return False
            if not include_weak:
                return True
            # A weak representative cheaper than the best responding
            # voting candidate is worth waiting for — serving the data
            # from it is the whole point of caching.  Weak reps slower
            # than the best candidate never delay the read.
            best_voting = min((rep.latency_hint for rep in successes
                               if rep.votes > 0), default=float("inf"))
            for rep in calls:
                if rep.weak and rep not in settled \
                        and rep.latency_hint < best_voting:
                    return False
            return True

        try:
            if vetoed:
                qspan.event("health.vetoed",
                            reps=",".join(sorted(rep.rep_id
                                                 for rep in vetoed)))
            attainable = sum(rep.votes for rep in admitted)
            if attainable < threshold:
                # Fail fast: even if every admitted representative
                # answered, the votes cannot reach the quorum.  Cheaper
                # by one full RPC timeout than discovering it the slow
                # way below.
                self.metrics.counter("suite.unattainable").increment()
                qspan.event("quorum.unattainable", attainable=attainable,
                            threshold=threshold)
                raise QuorumUnattainableError(
                    "read" if mode == SHARED else "write", threshold,
                    attainable)
            # One-pass fan-out contract: every inquiry is issued here,
            # before the first yield below.  The live transport batches
            # per destination on event-loop pass boundaries, so keeping
            # the solicitations in a single synchronous burst is what
            # lets all of a host's inquiries share one wire frame —
            # interleaving a yield between calls would flush them as
            # separate frames.
            for rep in admitted:
                # Weak representatives only serve reads: shared mode.
                rep_mode = SHARED if rep.weak else mode
                timeout = (self.weak_inquiry_timeout if rep.weak
                           else self.inquiry_timeout)
                extra: Dict[str, Any] = {}
                if rep is data_rep:
                    extra = {"read_data": True,
                             "max_bytes": self.read_max_bytes,
                             "skip_version": skip_version}
                calls[rep] = txn.call(rep.server, "txn.stat",
                                      name=config.file_name,
                                      mode=rep_mode, timeout=timeout,
                                      release=release, **extra)
            gathered = yield from gather_until(self.sim, calls, enough)
            waited_total = self.sim.now - started
            self.metrics.histogram("suite.quorum_wait").observe(
                waited_total)
            if self.profiler is not None:
                self.profiler.observe("quorum.assemble", waited_total)
            votes = sum(rep.votes for rep in gathered.successes)
            if qspan:
                # Replies in arrival order, each stamped with when it
                # settled and how long the gather had been waiting: the
                # critical-path analyzer reconstructs per-representative
                # blocking attribution offline from exactly these attrs.
                for rep, settled_at, ok in gathered.order:
                    if ok:
                        stat = gathered.successes[rep]
                        qspan.event("version.collect", rep=rep.rep_id,
                                    version=stat["version"],
                                    votes=rep.votes, at=settled_at,
                                    waited=settled_at - started)
                    else:
                        exc = gathered.failures[rep]
                        qspan.event("inquiry.failed", rep=rep.rep_id,
                                    at=settled_at,
                                    waited=settled_at - started,
                                    error=type(exc).__name__)
            self._attribute_blocking(gathered, started, mode)
            self._record_flight_quorum(gathered, started, mode, threshold)
            self._observe_lags(gathered)
            yield from self._check_configuration(txn, gathered, release)
            if not gathered.satisfied:
                self.metrics.counter("suite.quorum_failures").increment()
                qspan.event("quorum.failed", votes=votes,
                            threshold=threshold)
                qspan.end(error=f"quorum unavailable: "
                                f"{votes}/{threshold} votes")
                raise QuorumUnavailableError(
                    "read" if mode == SHARED else "write", threshold,
                    votes)
            self.metrics.histogram("suite.quorum_size").observe(
                float(sum(1 for rep in gathered.successes
                          if rep.votes > 0)))
            closer = gathered.closed_by
            qspan.event("quorum.satisfied", votes=votes,
                        threshold=threshold,
                        closed_by=closer.rep_id if closer else "",
                        waited=waited_total)
            qspan.set_attr("votes", votes)
            qspan.end()
            return gathered
        except BaseException as exc:
            if not isinstance(exc, GeneratorExit):
                qspan.end(error=f"{type(exc).__name__}: {exc}")
            raise
        finally:
            if qspan:
                txn.span = parent

    def _attribute_blocking(self, gathered: GatherResult, started: float,
                            mode: str) -> None:
        """Online critical-path attribution for one finished gather.

        Walk the settle order: the marginal wait of each interval
        (settle-to-settle, starting at the inquiry send) is charged to
        the representative whose reply ended it — that reply is what
        the gather was actually blocked on.  The reply that satisfied
        the predicate is additionally counted as the quorum *closer*.
        Replies landing after the close never appear in the order, so
        they cost nothing, matching the caller's experience.

        Simultaneous settles are re-ordered by ``(time, rep_id)`` —
        the same tie-break the offline trace analysis applies — so the
        metrics plane and the trace plane always give one answer.
        """
        suite = self.config.suite_name
        op = "read" if mode == SHARED else "write"
        self.metrics.counter(
            f"quorum.blocking.gathers[suite={suite},mode={op}]").increment()
        previous = started
        ordered = sorted(gathered.order,
                         key=lambda item: (item[1], item[0].rep_id))
        for rep, settled_at, _ok in ordered:
            marginal = settled_at - previous
            previous = settled_at
            if marginal > 0.0:
                self.metrics.gauge(
                    f"quorum.blocking.wait_ms[suite={suite},"
                    f"rep={rep.rep_id}]").add(marginal)
        closer = gathered.closed_by
        if closer is not None:
            self.metrics.counter(
                f"quorum.blocking.closed[suite={suite},"
                f"rep={closer.rep_id}]").increment()

    def _record_flight_quorum(self, gathered: GatherResult,
                              started: float, mode: str,
                              threshold: int) -> None:
        """One black-box record per finished gather.

        Emitted adjacent to :meth:`_attribute_blocking` from the same
        ``GatherResult``, so the journal plane and the metrics plane
        describe identical evidence — ``repro replay --verify``
        re-derives the blocking attribution from these records and
        cross-checks it against the scraped counters.
        """
        if self.flight is None or self.flight.closed:
            return
        closer = gathered.closed_by
        self.flight.emit(
            "quorum",
            suite=self.config.suite_name,
            mode="read" if mode == SHARED else "write",
            threshold=threshold,
            votes=sum(rep.votes for rep in gathered.successes),
            satisfied=gathered.satisfied,
            started=started,
            order=[[rep.rep_id, settled_at, ok]
                   for rep, settled_at, ok in gathered.order],
            closed_by=closer.rep_id if closer is not None else None,
            observed={rep.rep_id: stat["version"]
                      for rep, stat in gathered.successes.items()})

    def _observe_lags(self, gathered: GatherResult) -> None:
        """Per-representative staleness gauges from the inquiry replies.

        The highest version in the responses is (by the quorum
        intersection argument) the current version, so each responder's
        shortfall is its observed lag.  Weak representatives get their
        own family — their staleness is the cache-coherence number the
        paper's weak-representative discussion is about.
        """
        versions = [stat["version"]
                    for stat in gathered.successes.values()]
        if not versions:
            return
        current = max(versions)
        suite = self.config.suite_name
        for rep, stat in gathered.successes.items():
            family = ("suite.weak_staleness" if rep.weak
                      else "suite.version_lag")
            self.metrics.gauge(
                f"{family}[suite={suite},rep={rep.rep_id}]").set(
                float(current - stat["version"]))

    def _current_version_from(self, gathered: GatherResult,
                              threshold: Optional[int] = None,
                              kind: str = "read") -> int:
        versions = [stat["version"]
                    for stat in gathered.successes.values()]
        if not versions:
            raise QuorumUnavailableError(kind, threshold or 1, 0)
        return max(versions)

    def _check_configuration(self, txn: Transaction,
                             gathered: GatherResult,
                             release: bool = False,
                             ) -> Generator[Any, Any, None]:
        """Adopt a newer configuration if any representative has one.

        Inquiries carry only a small ``stamp`` (the configuration
        version); the full configuration is fetched in a follow-up call
        only when the stamp shows ours is stale — so the steady-state
        inquiry stays tens of bytes.
        """
        newest_rep: Optional[Representative] = None
        newest_stamp = self.config.config_version
        for rep, stat in gathered.successes.items():
            stamp = stat.get("stamp", 0)
            if stamp > newest_stamp:
                newest_stamp = stamp
                newest_rep = rep
        if newest_rep is None:
            return
        detail = yield txn.call(newest_rep.server, "txn.stat",
                                name=self.config.file_name, mode=SHARED,
                                detail=True, timeout=self.inquiry_timeout,
                                release=release)
        raw = detail.get("properties", {}).get("config")
        if raw and raw["config_version"] > self.config.config_version:
            self.config = SuiteConfiguration.from_json(raw)
            self.metrics.counter("suite.config_refreshes").increment()
            raise StaleConfigurationError(
                f"adopted configuration v{self.config.config_version}; "
                "retrying under it")

    def _schedule_refresh(self, stale: Sequence[Representative],
                          version: int, data: bytes) -> None:
        if self.refresher is not None and stale:
            self.refresher.schedule(self, [rep.rep_id for rep in stale],
                                    version, data)

    # ------------------------------------------------------------------
    # Transaction + retry wrapper
    # ------------------------------------------------------------------

    def _with_retries(self, operation, *args, span=NOOP_SPAN,
                      **kwargs) -> Generator[Any, Any, Any]:
        last_error: Optional[BaseException] = None
        attempts = 0            # retryable failures (bounds the loop)
        config_refreshes = 0    # configuration adoptions (bounded at 3)
        total_attempts = 0      # every transaction begun — the number
        #                         traces and results report, so a
        #                         config-adoption retry is not invisible
        while attempts < self.max_attempts:
            txn = self.manager.begin()
            txn.span = span
            total_attempts += 1
            try:
                result = yield from operation(txn, *args, **kwargs)
                yield from txn.commit()
            except StaleConfigurationError as exc:
                # Not a failure: we learned a newer configuration.
                # Bounded separately so a pathological loop still ends.
                yield from txn.abort()
                config_refreshes += 1
                if config_refreshes > 3:
                    raise
                span.event("config.adopted",
                           version=self.config.config_version)
                last_error = exc
                continue
            except RETRYABLE as exc:
                yield from txn.abort()
                attempts += 1
                last_error = exc
                span.event("retry", attempt=attempts,
                           error=type(exc).__name__)
                self.metrics.counter("suite.retries").increment()
                if attempts < self.max_attempts and self.retry_backoff > 0:
                    yield self.sim.timeout(
                        self._retry_policy.delay(attempts - 1, self._rng))
                continue
            except GeneratorExit:
                raise  # killed process: must not yield during close()
            except BaseException:
                # Application-level error (e.g. a calendar conflict):
                # not retryable, but the transaction must still release
                # its locks before the error propagates.
                yield from txn.abort()
                raise
            if isinstance(result, (ReadResult, WriteResult)):
                result.attempts = total_attempts
                result.config_refreshes = config_refreshes
            return result
        self.metrics.counter("suite.failures").increment()
        raise last_error if last_error is not None else \
            QuorumUnavailableError("operation", 0, 0)


def install_suite(manager: TransactionManager, config: SuiteConfiguration,
                  initial_data: bytes = b"",
                  attempts: int = 4, retry_delay: float = 150.0,
                  ) -> Generator[Any, Any, None]:
    """Create a suite: install the file at *every* representative.

    Creation requires all representatives (voting and weak) to be
    reachable — a deliberate, one-time strictness so the suite starts
    with every copy current at version 1 and every copy carrying the
    configuration.  Transient failures (a lost datagram, a timed-out
    lock) retry with a fresh transaction: re-staging version 1 with
    ``create=True`` is idempotent at the servers, and locks stranded by
    an aborted attempt are released by the best-effort aborts before the
    next attempt's ``retry_delay`` expires.
    """
    properties = {"config": config.to_json(),
                  "stamp": config.config_version}
    last_error: Optional[ReproError] = None
    for attempt in range(attempts):
        txn = manager.begin()
        try:
            calls = [
                txn.call(rep.server, "txn.stage_write",
                         name=config.file_name, data=initial_data,
                         version=1, properties=properties, create=True,
                         prepare=True)
                for rep in config.representatives
            ]
            yield manager.sim.all_of(calls)
            yield from txn.commit()
            return
        except RETRYABLE as exc:
            yield from txn.abort()
            last_error = exc
            if attempt + 1 < attempts and retry_delay > 0:
                yield manager.sim.timeout(retry_delay)
        except ReproError:
            yield from txn.abort()
            raise
    assert last_error is not None
    raise last_error


def delete_suite(manager: TransactionManager, config: SuiteConfiguration,
                 strict: bool = False) -> Generator[Any, Any, List[str]]:
    """Remove the suite from its representatives.

    By default best-effort (unreachable representatives keep their —
    now unusable — copies, exactly like members removed by a
    reconfiguration); ``strict=True`` demands every representative
    participate, aborting the whole deletion if any is unreachable.
    Returns the rep_ids whose copies were removed.
    """
    txn = manager.begin()
    removed: List[str] = []
    try:
        for rep in config.representatives:
            try:
                yield txn.call(rep.server, "txn.stage_delete",
                               name=config.file_name)
                removed.append(rep.rep_id)
            except ReproError:
                if strict:
                    raise
        yield from txn.commit()
        return removed
    except ReproError:
        yield from txn.abort()
        raise
