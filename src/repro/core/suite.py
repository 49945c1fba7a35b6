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
When the inquiry may stop waiting is one pure rule,
:class:`~repro.core.quorum.QuorumRule`: once ``r`` votes are in, a
preferred reply still out gets a bounded grace, and past it a missing
piggyback is **hedged** — ``txn.read`` goes to the cheapest current
responder while the piggyback stays eligible — so a dead preferred
representative costs the grace and one data round, not a timeout.

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

**Write** — two rounds.  The new data goes, without a version, to
every voting representative the rule polls; each takes its exclusive
lock, records the data as an unnumbered intention and votes with its
current version, so the stage *is* the version-number inquiry.  Once
``w`` votes are in, two-phase commit's decision numbers the write
``max + 1`` over the versions voted and sends the number with the
commit, so the whole quorum moves atomically.  Every voter holds its
lock from its vote to the decision, and because ``2w > N`` the voters
include a member of the last committed write: ``max + 1`` is the next
version, and version numbers totally order writes
(``docs/PROTOCOL.md``, "Write").  A :meth:`write_in` inside a caller's
transaction keeps the explicit sequence — exclusive inquiry, then
``current + 1`` staged at a cheapest write quorum.

Representatives discovered to be stale, weak representatives, and
voting ones whose stage failed or never answered are handed to the
**background refresher** (:mod:`repro.core.refresh`) together with the
version and bytes the operation already holds — bringing copies
current never adds latency to the foreground operation, and costs one
call per copy.

Every operation runs inside a transaction; by default each call manages
its own through one operation generator, :meth:`FileSuiteClient.
_operation`: it opens the operation's span, counts it and runs
:meth:`~repro.txn.coordinator.TransactionManager.transact`, the one
attempt loop, which re-runs an operation that adopted a newer
configuration at once and retries transient failures (deadlock, lock
timeout, lost quorum) after jittered backoff — the discipline the paper
assumes from its transactional storage system.
:meth:`FileSuiteClient.transact` hands the same loop to multi-call
transactions, and :mod:`repro.violet` runs multi-suite ones in it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import (TYPE_CHECKING, Any, Dict, Generator, List, Optional,
                    Sequence, Tuple)

from ..chaos.health import OPEN
from ..chaos.retry import RetryPolicy
from ..errors import (QuorumUnattainableError, QuorumUnavailableError,
                      ReproError, StaleConfigurationError)
from ..obs.collector import TraceCollector
from ..obs.critical_path import QuorumPath
from ..obs.spans import NOOP_SPAN
from ..sim.metrics import MetricsRegistry
from ..txn.coordinator import RETRYABLE, Transaction, TransactionManager
from ..txn.locks import EXCLUSIVE, SHARED
from .gather import GatherResult, gather_until
from .quorum import QuorumRule, cheapest_quorum
from .votes import Representative, SuiteConfiguration

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .refresh import BackgroundRefresher

#: Attempts :func:`install_suite` makes, and its schedule: a fixed
#: 150 ms apart.
INSTALL_ATTEMPTS = 4
INSTALL_RETRY = RetryPolicy(base=150.0, multiplier=1.0, jitter=0.0)

#: One immutable schedule per backoff in use: building it per operation
#: would cost more than the rest of the loop's setup.
_retry_policy = lru_cache(maxsize=None)(
    lambda backoff: RetryPolicy(base=backoff))


def _landed(read_rep: Representative, current: int,
            gathered: GatherResult) -> bool:
    """Whether a data race is over: the ``txn.read`` to ``read_rep``
    settled, or a piggybacked stat landed with current data."""
    if not gathered.order:
        return False
    rep, _at, ok = gathered.order[-1]
    stat = gathered.successes[rep] if ok else {}
    return rep is read_rep or (stat.get("data") is not None
                               and stat["version"] >= current)


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
                 data_timeout: float = 5_000.0,
                 max_attempts: int = 4,
                 retry_backoff: float = 50.0,
                 read_fastpath: bool = True,
                 read_max_bytes: int = 64 * 1024,
                 refresher: Optional["BackgroundRefresher"] = None,
                 ) -> None:
        self.manager = manager
        self.sim = manager.sim
        self.config = config
        self.inquiry_timeout = inquiry_timeout
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
        # The planes below belong to the client, not to the suite: read
        # once from the transaction manager and its endpoint, so every
        # handle a client builds shares one registry, tracer, set of
        # breakers, journal and seeded stream factory.
        endpoint = manager.endpoint
        self.metrics = endpoint.metrics or MetricsRegistry()
        #: Causal tracing: operation root spans, quorum-assembly child
        #: spans, and (via :attr:`Transaction.span`) every RPC the
        #: operation issues.  The disabled default makes every span a
        #: no-op, so untraced runs pay one falsy check per operation.
        self.collector = manager.collector or TraceCollector(
            clock=lambda: manager.sim.now, enabled=False)
        #: The endpoint's :class:`~repro.chaos.health.HealthTracker`, if
        #: any: its breaker verdicts feed each inquiry's
        #: :class:`~repro.core.quorum.QuorumRule`.
        self.health = endpoint.health
        #: The manager's :class:`~repro.obs.flight.FlightRecorder`, if
        #: any: the black-box journal.  Every finished quorum gather —
        #: satisfied or not — appends one ``quorum`` record carrying the
        #: votes, settle order and version stamps the client actually
        #: saw.
        self.flight = manager.flight
        self._rng = manager.streams.stream(
            f"suite:{config.suite_name}:{endpoint.host.name}")

    # ------------------------------------------------------------------
    # Public operations (each manages its own transaction + retries)
    # ------------------------------------------------------------------

    def read(self, parent=None) -> Generator[Any, Any, ReadResult]:
        """Read the current contents of the suite.

        ``parent`` (a span or remote :class:`~repro.obs.TraceContext`)
        roots this operation's span under an existing trace instead of
        opening a new one — how a namespace lookup and the data read it
        leads to stitch into one tree.
        """
        return self._operation(partial(self._read_once, release=True),
                               "read", parent)

    def write(self, data: bytes,
              parent=None) -> Generator[Any, Any, WriteResult]:
        """Replace the contents of the suite.

        ``parent`` works as in :meth:`read`.
        """
        return self._operation(partial(self._write_numbered, data=data),
                               "write", parent, size=len(data))

    def current_version(self) -> Generator[Any, Any, int]:
        """Version-number inquiry only: collect a read quorum, no data."""
        def inquire(txn: Transaction):
            _gathered, current, _hedged = yield from self._inquire(
                txn, self.config.read_quorum, mode=SHARED,
                include_weak=False, release=True)
            return current

        return self._operation(inquire)

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
        return self._operation(operation)

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
        gathered, current, hedged = yield from self._inquire(
            txn, threshold, mode=mode, include_weak=not for_update,
            read_data=fastpath,
            skip_version=cached[0] if cached is not None else None,
            release=release)
        serving = QuorumRule.serving(gathered.successes, current)

        data: Optional[bytes] = None
        served_by: Optional[Representative] = None
        if cached is not None and cached[0] == current:
            # The inquiry proved the client-resident copy current (a
            # version number names its bytes: the same argument that
            # lets any weak representative serve a read) — no data
            # needs to move at all.
            data = cached[1]
            self.metrics.counter("suite.read_cached").increment()
        elif hedged is not None:
            # Served by the hedged txn.read to a responder, or by the
            # late piggyback (the one reply the gather never saw).
            data, current, served_by = hedged
            self.metrics.counter(
                "suite.read_fallback" if served_by in gathered.successes
                else "suite.read_fastpath").increment()
        elif fastpath:
            served_by = next((rep for rep in serving
                              if gathered.successes[rep].get("data")
                              is not None), None)
            if served_by is not None:
                data = gathered.successes[served_by]["data"]
                self.metrics.counter("suite.read_fastpath").increment()
            elif any(stat.get("truncated")
                     for stat in gathered.successes.values()):
                self.metrics.counter("suite.read_truncated").increment()
        if data is None:
            # The two-trip path: the piggyback target was stale,
            # truncated or down — or the fast path is off.
            data, current, served_by = yield from self._fetch(
                txn, serving, current, {}, release)
            self.metrics.counter("suite.read_fallback").increment()
        if served_by is not None and served_by.weak:
            self.metrics.counter("suite.weak_reads").increment()

        stale = [rep for rep, stat in gathered.successes.items()
                 if stat["version"] < current]
        self._schedule_refresh(stale, current, data)
        return ReadResult(data=data, version=current,
                          served_by=(served_by.rep_id if served_by
                                     else "client-cache"),
                          quorum=[rep.rep_id for rep in gathered.successes
                                  if rep.votes > 0],
                          stale=[rep.rep_id for rep in stale],
                          observed={rep.rep_id: stat["version"]
                                    for rep, stat
                                    in gathered.successes.items()})

    def _fetch(self, txn: Transaction, serving: List[Representative],
               current: int, piggyback: Dict[Representative, Any],
               release: bool,
               ) -> Generator[Any, Any, Tuple[bytes, int, Representative]]:
        """The data trip: ``txn.read`` from the cheapest current
        responder that answers, then the next.  ``piggyback`` holds the
        data-bearing inquiry a hedged gather stopped waiting for: it
        stays eligible, and whichever current reply lands first serves
        the read.  Returns the data, the version that came with it and
        the representative that served it."""
        for rep in serving:
            read = txn.call(rep.server, "txn.read",
                            name=self.config.file_name,
                            timeout=self.data_timeout, release=release)
            if piggyback:
                raced = yield from gather_until(
                    self.sim, {rep: read, **piggyback},
                    partial(_landed, rep, current))
                if raced.closed_by is not rep:
                    stat = raced.successes[raced.closed_by]
                    return stat["data"], stat["version"], raced.closed_by
            try:
                # The version that came with the bytes is the one to
                # report: without held locks a newer commit may land
                # between the inquiry and this fetch.
                data, version = yield read
            except RETRYABLE:
                continue
            return data, version, rep
        raise QuorumUnavailableError("read-data", 1, 0)

    def _write_once(self, txn: Transaction, data: bytes,
                    ) -> Generator[Any, Any, WriteResult]:
        """One write attempt inside a caller's transaction, which may
        ask more of a representative after its stage: an exclusive
        inquiry, then ``current + 1`` staged at the cheapest write
        quorum, voted on by the commit's prepare round."""
        config = self.config
        gathered, current, _ = yield from self._inquire(
            txn, config.write_quorum, mode=EXCLUSIVE, include_weak=False)
        new_version = current + 1

        responders = list(gathered.successes)
        quorum = cheapest_quorum(responders, config.write_quorum)
        stage_calls = [
            txn.call(rep.server, "txn.stage_write", name=config.file_name,
                     data=data, version=new_version,
                     timeout=self.data_timeout)
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
        return WriteResult(version=new_version,
                           quorum=sorted(quorum_ids),
                           stale=[rep.rep_id for rep in left_behind],
                           observed={rep.rep_id: stat["version"]
                                     for rep, stat
                                     in gathered.successes.items()})

    def _write_numbered(self, txn: Transaction, data: bytes,
                        ) -> Generator[Any, Any, WriteResult]:
        """One :meth:`write` attempt, two rounds: ``data`` is staged
        without a version at every voting representative the rule
        polls — each takes its exclusive lock, records the data and
        votes with its current version — until ``w`` votes are in, and
        the commit numbers the write one past the highest version voted
        (:meth:`~repro.txn.coordinator.TransactionManager.commit`).

        The result is filled in at the commit: its ``stale`` are the
        representatives without a vote then.  Each is refreshed — at
        once when weak, vetoed or failed, and when its stage fails if
        one is still out."""
        config = self.config
        gathered, _current, _ = yield from self._inquire(
            txn, config.write_quorum, mode=EXCLUSIVE, include_weak=False,
            stage=data)
        result = WriteResult(version=0, quorum=[], stale=[],
                             observed={rep.rep_id: stat["version"]
                                       for rep, stat
                                       in gathered.successes.items()})

        def committed() -> None:
            number = result.version = txn.number
            result.quorum = sorted(rep.rep_id
                                   for rep in config.representatives
                                   if rep.server in txn.voted)
            behind = [rep for rep in config.representatives
                      if rep.server not in txn.voted]
            result.stale = [rep.rep_id for rep in behind]
            self._schedule_refresh([rep for rep in behind
                                    if rep.server not in txn.ballots],
                                   number, data)
            for rep in behind:
                if rep.server in txn.ballots:
                    txn.ballots[rep.server].add_callback(
                        lambda settled, rep=rep: settled.failed
                        and self._schedule_refresh([rep], number, data))

        txn.after_commit(committed)
        return result

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

    def _inquire(self, txn: Transaction, threshold: int, mode: str,
                 include_weak: bool, read_data: bool = False,
                 skip_version: Optional[int] = None,
                 release: bool = False, stage: Optional[bytes] = None,
                 ) -> Generator[Any, Any, Tuple[GatherResult, int, Any]]:
        """Version-number inquiry until the :class:`QuorumRule` closes.

        Weak representatives are polled too on reads (their answers are
        free candidates for serving the data) but never counted toward
        the quorum; representatives whose breaker refuses traffic are
        left out (an open breaker past its cooldown admits one probe).

        With ``read_data=True`` exactly one representative — the rule's
        ``data_rep`` — is asked to piggyback the file contents onto its
        stat reply (bounded by :attr:`read_max_bytes`; a copy at
        ``skip_version`` sends no data): one target keeps the paper's
        "data moves once" economy.  When the rule gives up waiting for
        it, the data fetch is hedged (:meth:`_fetch`) before the gather
        is recorded, so the record charges the wait up to the data's
        arrival to ``data_rep``.  With ``release=True`` every inquiry
        drops its lock as it replies (single-operation reads).  With
        ``stage`` the inquiry *is* a write's vote: each representative
        is sent ``txn.stage_write`` of those bytes without a version
        and replies as to an exclusive inquiry.  A vote is awaited as
        long as an inquiry plus the time the data takes to reach that
        representative, its latency hint.

        The rule's verdict is the one the gather's last wake returned.
        Returns the gather, the highest version replied (by quorum
        intersection the current one; 0 with no replies) and the hedged
        fetch's ``(data, version, rep)``, or ``None``.
        """
        config = self.config
        started = self.sim.now
        op = "read" if mode == SHARED else "write"
        parent = txn.span
        qspan = self.collector.start_span(
            "quorum.assemble", parent=parent, suite=config.suite_name,
            mode=op, threshold=threshold)
        if qspan:
            # Inquiry RPCs (and the detail fetch in
            # _check_configuration) parent to the assembly span.
            txn.span = qspan
        reps = [rep for rep in config.representatives
                if include_weak or not rep.weak]
        # Asking a breaker claims a half-open probe slot: ask only about
        # the representatives this inquiry may poll.
        health = self.health
        breakers = {} if health is None else {
            rep.server: (health.state(rep.server)
                         if health.allow(rep.server) else OPEN)
            for rep in reps}
        rule = QuorumRule(reps, threshold, started, breakers, read_data)
        try:
            if rule.vetoed:
                qspan.event("health.vetoed",
                            reps=",".join(sorted(rep.rep_id
                                                 for rep in rule.vetoed)))
            attainable = rule.attainable
            if attainable < threshold:
                # Fail fast: even if every admitted representative
                # answered, the votes cannot reach the quorum.  Cheaper
                # by one full RPC timeout than discovering it the slow
                # way below.
                self.metrics.counter("suite.unattainable").increment()
                qspan.event("quorum.unattainable", attainable=attainable,
                            threshold=threshold)
                raise QuorumUnattainableError(op, threshold, attainable)
            # One-pass fan-out contract: every inquiry is issued here,
            # before the first yield below.  The live transport batches
            # per destination on event-loop pass boundaries, so keeping
            # the solicitations in a single synchronous burst is what
            # lets all of a host's inquiries share one wire frame —
            # interleaving a yield between calls would flush them as
            # separate frames.
            piggyback = {"read_data": True, "max_bytes": self.read_max_bytes,
                         "skip_version": skip_version}
            calls = {}
            for rep in rule.polled:
                if stage is not None:
                    calls[rep] = txn.call(
                        rep.server, "txn.stage_write",
                        name=config.file_name, data=stage,
                        timeout=self.inquiry_timeout + rep.latency_hint,
                        prepare=True)
                    continue
                # Weak representatives only serve reads: shared mode.
                calls[rep] = txn.call(
                    rep.server, "txn.stat", name=config.file_name,
                    mode=SHARED if rep.weak else mode,
                    timeout=self.inquiry_timeout, release=release,
                    **(piggyback if rep is rule.data_rep else {}))
            verdict = None

            def wake(gathered: GatherResult) -> Any:
                nonlocal verdict
                verdict = rule.verdict(gathered.order, gathered.successes,
                                       self.sim.now)
                return verdict.wake

            gathered = yield from gather_until(self.sim, calls, wake)
            current = max((stat["version"]
                           for stat in gathered.successes.values()),
                          default=0)
            hedged = None
            if verdict.hedge is not None and current != skip_version:
                hedged = yield from self._fetch(
                    txn, QuorumRule.serving(gathered.successes, current),
                    current, {rule.data_rep: calls[rule.data_rep]}, release)
            waited = self.sim.now - started
            self.metrics.histogram("suite.quorum_wait").observe(waited)
            path = QuorumPath.from_gather(config.suite_name, op, threshold,
                                          started, gathered,
                                          verdict.waited_on, self.sim.now)
            if qspan:
                path.annotate(qspan, gathered)
            counted, waits = path.blocking()
            for name in counted:
                self.metrics.counter(name).increment()
            for name, wait in waits.items():
                self.metrics.gauge(name).add(wait)
            if self.flight is not None and not self.flight.closed:
                self.flight.emit("quorum", **path.to_record())
            self._observe_lags(gathered, current)
            yield from self._check_configuration(txn, gathered, release)
            if not gathered.satisfied:
                self.metrics.counter("suite.quorum_failures").increment()
                qspan.event("quorum.failed", votes=path.votes,
                            threshold=threshold)
                qspan.end(error=f"quorum unavailable: "
                                f"{path.votes}/{threshold} votes")
                raise QuorumUnavailableError(op, threshold, path.votes)
            self.metrics.histogram("suite.quorum_size").observe(
                float(sum(1 for rep in gathered.successes
                          if rep.votes > 0)))
            qspan.event("quorum.satisfied", votes=path.votes,
                        threshold=threshold,
                        closed_by=path.closed_by or "", waited=waited)
            qspan.set_attr("votes", path.votes)
            qspan.end()
            return gathered, current, hedged
        except BaseException as exc:
            if not isinstance(exc, GeneratorExit):
                qspan.end(error=f"{type(exc).__name__}: {exc}")
            raise
        finally:
            if qspan:
                txn.span = parent

    def _observe_lags(self, gathered: GatherResult, current: int) -> None:
        """Per-representative staleness gauges from the inquiry replies.

        ``current``, the highest version in the responses, is (by the
        quorum intersection argument) the current version, so each
        responder's shortfall is its observed lag.  Weak representatives
        get their own family — their staleness is the cache-coherence
        number the paper's weak-representative discussion is about.
        """
        suite = self.config.suite_name
        for rep, stat in gathered.successes.items():
            family = ("suite.weak_staleness" if rep.weak
                      else "suite.version_lag")
            self.metrics.gauge(
                f"{family}[suite={suite},rep={rep.rep_id}]").set(
                float(current - stat["version"]))

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
            raise StaleConfigurationError(self.config.config_version)

    def _schedule_refresh(self, stale: Sequence[Representative],
                          version: int, data: bytes) -> None:
        if self.refresher is not None and stale:
            self.refresher.schedule(self, [rep.rep_id for rep in stale],
                                    version, data)

    # ------------------------------------------------------------------
    # The operation generator: transaction, retries, span, counters
    # ------------------------------------------------------------------

    @property
    def retry_policy(self) -> RetryPolicy:
        """The handle's schedule between its ``max_attempts`` tries: ×2
        from ``retry_backoff``, jittered ±50 %."""
        return _retry_policy(self.retry_backoff)

    def _operation(self, operation, kind: Optional[str] = None,
                   parent=None, **attrs) -> Generator[Any, Any, Any]:
        """Run ``operation(txn)`` through the manager's attempt loop
        under :attr:`retry_policy`, counting retries and exhausted
        operations and stamping the attempt counts on the result.  A
        public read or write names its ``kind``: it also gets a root
        span — a new trace, or a child of ``parent`` — carrying
        ``attrs``, and its ``suite.{kind}s`` count and latency."""
        started = self.sim.now
        metrics = self.metrics
        span = NOOP_SPAN
        if kind is not None:
            name = f"suite.{kind}"
            attrs = {"suite": self.config.suite_name, **attrs}
            if parent:
                span = self.collector.start_span(name, parent=parent,
                                                 kind="client", **attrs)
            else:
                span = self.collector.start_trace(name, **attrs)
        try:
            result, begun, adopted = yield from self.manager.transact(
                operation, self.retry_policy, self.max_attempts, self._rng,
                span=span, on_retry=lambda: metrics.counter(
                    "suite.retries").increment())
        except BaseException as exc:
            if isinstance(exc, RETRYABLE):
                metrics.counter("suite.failures").increment()
            span.end(error=f"{type(exc).__name__}: {exc}")
            raise
        if isinstance(result, (ReadResult, WriteResult)):
            result.attempts = begun
            result.config_refreshes = adopted
        if kind is None:
            return result
        span.set_attr("version", result.version)
        if kind == "read":
            span.set_attr("served_by", result.served_by)
        span.set_attr("attempts", begun)
        if adopted:
            span.set_attr("config_refreshes", adopted)
        span.end()
        metrics.counter(f"suite.{kind}s").increment()
        metrics.histogram(f"suite.{kind}_latency").observe(
            self.sim.now - started)
        return result


def install_suite(manager: TransactionManager, config: SuiteConfiguration,
                  initial_data: bytes = b"",
                  ) -> Generator[Any, Any, None]:
    """Create a suite: install the file at *every* representative.

    Creation requires all representatives (voting and weak) to be
    reachable — a deliberate, one-time strictness so the suite starts
    with every copy current at version 1 and every copy carrying the
    configuration.  Transient failures (a lost datagram, a timed-out
    lock) retry with a fresh transaction: re-staging version 1 with
    ``create=True`` is idempotent at the servers, and locks stranded by
    an aborted attempt are released by the best-effort aborts before the
    next of :data:`INSTALL_ATTEMPTS` begins, :data:`INSTALL_RETRY` later.
    """
    properties = {"config": config.to_json(),
                  "stamp": config.config_version}

    def stage_everywhere(txn: Transaction):
        yield manager.sim.all_of([
            txn.call(rep.server, "txn.stage_write", name=config.file_name,
                     data=initial_data, version=1, properties=properties,
                     create=True, prepare=True)
            for rep in config.representatives])

    yield from manager.transact(stage_everywhere, INSTALL_RETRY,
                                INSTALL_ATTEMPTS)


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
