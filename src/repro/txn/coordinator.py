"""Client-side transaction machinery: the facade and 2PC coordinator.

A client begins a :class:`Transaction`, performs reads and staged writes
against participants over RPC (each call tagged with the transaction
id), then calls :meth:`Transaction.commit`, which drives two-phase
commit:

* **Phase 1** — ``prepare`` in parallel to every touched participant
  that has not voted yet, naming how many of the transaction's calls
  that participant has answered (one that remembers fewer has
  restarted since and refuses).  Any refusal, timeout, or unreachable
  participant aborts the whole transaction (best-effort aborts are
  sent to the rest).  A participant has voted already when the stage
  it was sent carried ``prepare=True`` — the client's statement that
  this is the last thing the transaction asks of that server, made by
  a suite ``write()`` and by ``install_suite``, which stage exactly
  once per server — and answered ``"prepared"``; when every stager
  has, there is no phase 1 left: the participants that only hold
  locks are released without waiting and the decision goes out.
* **Phase 2** — once all votes are in, the decision is final: ``commit``
  is sent to every participant that voted *prepared* (read-only voters
  already released).  Participants that cannot be reached are retried by
  a detached background process until they acknowledge — they hold the
  transaction in-doubt across their crashes, so the retries eventually
  land.

Two kinds of call never reach either phase, because the participant
ends the transaction itself as the handler returns: a ``release=True``
inquiry or read (the one operation of a suite ``read()``: lock taken,
reply built, lock dropped) and a ``one_phase=True`` stage (the
refresher's install: staged and committed in one participant-side
update, the textbook one-phase commit for a transaction with a single
participant).  :meth:`Transaction.call` does not enrol their servers,
so commit and abort send them nothing.

This is textbook *blocking* 2PC: if the coordinating client dies between
the two phases, prepared participants stay in-doubt.  That matches the
transaction substrate Gifford's design assumes; the weighted-voting
layer above never depends on more.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Dict, Generator, List, Optional, Set,
                    Tuple)

from ..errors import ReproError, TransactionAborted
from ..obs.spans import NOOP_SPAN, TraceContext
from ..rpc.endpoint import RpcEndpoint
from .ids import TransactionId, TransactionIdGenerator
from .participant import VOTE_PREPARED

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..chaos.retry import RetryPolicy
    from ..obs.collector import TraceCollector
    from ..sim.rng import RandomStreams
    from ..sim.simulator import Simulator


def _default_streams() -> "RandomStreams":
    from ..sim.rng import RandomStreams
    return RandomStreams(seed=0)

#: RPC methods that stage durable changes at a participant.
_STAGING_METHODS = frozenset({"txn.stage_write", "txn.stage_delete"})

#: States of a client-side transaction.
ACTIVE = "active"
COMMITTING = "committing"
COMMITTED = "committed"
ABORTED = "aborted"


class Transaction:
    """A client-side transaction handle.

    Use :meth:`call` for all participant RPCs so the touched-participant
    set is tracked for commit.  The handle is not reusable: after
    :meth:`commit` or :meth:`abort` it is finished.
    """

    def __init__(self, manager: "TransactionManager",
                 txn_id: TransactionId) -> None:
        self.manager = manager
        self.txn_id = txn_id
        #: Servers that replied to at least one call that left state
        #: behind (locks, intentions): they take part in two-phase
        #: commit.  Self-terminating calls never add to it, so a suite
        #: ``read()`` ends with this set — and ``attempted`` — empty.
        self.participants: Set[str] = set()
        #: Servers sent at least one such call.  A call whose reply was
        #: lost may still have taken locks on the server, so
        #: ``attempted - participants`` receives best-effort aborts at
        #: termination (the participant's idle-abort sweeper is the
        #: backstop).
        self.attempted: Set[str] = set()
        #: Servers where this transaction staged a write or delete.
        #: Empty set ⇒ read-only transaction, whose commit is a pure
        #: lock release and need not be awaited.
        self.staged: Set[str] = set()
        #: Servers whose ``prepare=True`` stage answered ``"prepared"``:
        #: they have voted yes and are sent no ``txn.prepare``.
        self.voted: Set[str] = set()
        #: Calls answered so far, by server — what a vote request says
        #: the participant must remember.
        self.answered: Dict[str, int] = {}
        self._after_commit: List[Any] = []
        self.state = ACTIVE
        #: Observability: the span RPCs issued through :meth:`call`
        #: parent themselves to.  The suite points this at its current
        #: span (operation root, then quorum-assembly child, ...); the
        #: no-op default keeps untraced transactions allocation-free.
        self.span = NOOP_SPAN

    def after_commit(self, callback) -> None:
        """Run ``callback()`` if and when this transaction commits.

        Used for post-commit side effects that must not happen on abort
        — e.g. scheduling background refresh of the representatives a
        write left behind.
        """
        self._after_commit.append(callback)

    def _run_commit_hooks(self) -> None:
        callbacks, self._after_commit = self._after_commit, []
        for callback in callbacks:
            callback()

    @property
    def sim(self) -> "Simulator":
        return self.manager.sim

    def call(self, server: str, method: str, timeout: Optional[float] = None,
             release: bool = False, one_phase: bool = False,
             prepare: bool = False, **args: Any):
        """RPC to a participant, tagged with this transaction's id.

        ``release`` and ``one_phase`` mark the call as self-terminating
        (see the module docstring): the flag travels in the request —
        only when set, so every other request keeps its size — and the
        server is not enrolled for commit/abort.  ``prepare`` makes a
        stage carry the vote request; a ``"prepared"`` reply is
        recorded in :attr:`voted`.
        """
        if self.state != ACTIVE:
            raise TransactionAborted(self.txn_id,
                                     f"call in state {self.state}")
        if release:
            args["release"] = True
        if one_phase:
            args["one_phase"] = True
        if prepare:
            args["prepare"] = True
            answered = self.answered.get(server)
            if answered:
                args["answered"] = answered
        effective = timeout if timeout is not None \
            else self.manager.call_timeout
        event = self.manager.endpoint.call(
            server, method, timeout=effective,
            attempts=self.manager.transport_attempts,
            trace=self.span.context if self.span else None,
            txn=str(self.txn_id), **args)
        if release or one_phase:
            # The participant ends the transaction itself as this
            # call's handler returns: nothing to commit or abort there.
            return event
        self.attempted.add(server)
        if method in _STAGING_METHODS:
            self.staged.add(server)

        def confirm(settled, server=server):
            if settled.triggered:
                self.participants.add(server)
                self.answered[server] = self.answered.get(server, 0) + 1
                if prepare and settled.value == VOTE_PREPARED:
                    self.voted.add(server)

        event.add_callback(confirm)
        return event

    def commit(self) -> Generator[Any, Any, None]:
        """Run two-phase commit; raises :class:`TransactionAborted` on failure."""
        yield from self.manager.commit(self)

    def abort(self) -> Generator[Any, Any, None]:
        """Abort everywhere (best effort)."""
        yield from self.manager.abort(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Transaction {self.txn_id} {self.state}>"


class TransactionManager:
    """Creates transactions and coordinates their termination."""

    def __init__(self, sim: "Simulator", endpoint: RpcEndpoint,
                 call_timeout: float = 1_000.0,
                 commit_retry_interval: float = 500.0,
                 commit_retry_attempts: int = 20,
                 transport_attempts: int = 3,
                 collector: Optional["TraceCollector"] = None,
                 retry_policy: Optional["RetryPolicy"] = None,
                 streams: Optional["RandomStreams"] = None,
                 profiler: Optional[Any] = None) -> None:
        self.sim = sim
        self.endpoint = endpoint
        #: Optional observability: with a collector, each staged commit
        #: records one span per 2PC phase under the transaction's span.
        self.collector = collector
        #: Optional :class:`~repro.perf.PhaseProfiler`; when wired, a
        #: staged commit records "2pc.prepare" and "2pc.commit" phase
        #: durations.
        self.profiler = profiler
        #: Optional :class:`~repro.obs.flight.FlightRecorder`: every
        #: transaction termination appends one ``txn`` record with the
        #: 2PC outcome (runtimes wire it after construction).
        self.flight: Optional[Any] = None
        self.call_timeout = call_timeout
        #: Retransmissions per RPC (same call id; servers are
        #: at-most-once, so this is safe).  One lost datagram then costs
        #: a timeout, not an aborted transaction.
        self.transport_attempts = transport_attempts
        self.commit_retry_interval = commit_retry_interval
        self.commit_retry_attempts = commit_retry_attempts
        #: Optional exponential backoff for decision retries.  ``None``
        #: keeps the historic fixed ``commit_retry_interval`` (tests
        #: assign that attribute after construction and expect it
        #: honoured); a policy makes retries to a down participant back
        #: off instead of hammering every interval.
        self.retry_policy = retry_policy
        self._retry_rng = (streams or _default_streams()).stream(
            f"2pc-retry:{endpoint.host.name}")
        self._ids = TransactionIdGenerator(endpoint.host.name)
        self.commits = 0
        self.aborts = 0

    def begin(self) -> Transaction:
        return Transaction(self, self._ids.next_id())

    # ------------------------------------------------------------------
    # Two-phase commit
    # ------------------------------------------------------------------

    def commit(self, txn: Transaction) -> Generator[Any, Any, None]:
        if txn.state != ACTIVE:
            raise TransactionAborted(txn.txn_id,
                                     f"commit in state {txn.state}")
        txn.state = COMMITTING
        # Calls that never got a reply may still hold locks remotely:
        # send them aborts (their idle sweeper is the backstop).
        unconfirmed = txn.attempted - txn.participants
        if unconfirmed:
            self._spawn_aborts(txn.txn_id, sorted(unconfirmed))
        if not txn.participants:
            txn.state = COMMITTED
            self.commits += 1
            txn._run_commit_hooks()
            return

        if not txn.staged:
            # Multi-operation read-only transaction (``read_in``
            # inside ``transact``, a Violet query across suites; a
            # lone suite ``read()`` released at its participants and
            # returned above).  At this instant the client holds
            # every shared lock it ever needed, so the reads already
            # form a consistent (serializable) snapshot; the prepares
            # below only *release* locks and nothing about this
            # transaction can still fail.  Fire them without waiting —
            # the transaction does not pay a commit round trip to its
            # slowest representative.  The detached retry keeps
            # re-sending if the release message is lost, so a dropped
            # datagram cannot strand a shared lock until the idle
            # sweeper.
            txn.span.event("2pc.read_only_release",
                           participants=len(txn.participants))
            release_trace = txn.span.context if txn.span else None
            for server in sorted(txn.participants):
                self._spawn_retry(txn.txn_id, server, "txn.prepare",
                                  trace=release_trace)
            txn.state = COMMITTED
            self.commits += 1
            self._record_flight_outcome(txn, "commit", read_only=True)
            txn._run_commit_hooks()
            return

        to_commit = sorted(txn.voted)
        unvoted = sorted(txn.participants - txn.voted)
        if txn.staged <= txn.voted:
            # Every stager voted with its stage (a suite ``write()``):
            # phase 1 is over.  Whoever else is enrolled only holds
            # locks — the representatives polled but left out of the
            # write quorum — and is released without waiting, like the
            # participants of a read-only transaction above.
            release_trace = txn.span.context if txn.span else None
            for server in unvoted:
                self._spawn_retry(txn.txn_id, server, "txn.prepare",
                                  trace=release_trace)
        else:
            prepared = yield from self._prepare_round(txn, unvoted)
            to_commit = sorted(to_commit + prepared)

        # Decision point: everyone voted yes.  Read-only voters are done.
        commit_span = self._phase_span(txn, "2pc.commit")
        commit_trace = self._phase_ctx(commit_span, txn)
        commit_started = self.sim.now
        stragglers = yield from self._send_decision(
            txn.txn_id, to_commit, trace=commit_trace,
            span=commit_span)
        if self.profiler is not None:
            self.profiler.observe("2pc.commit",
                                  self.sim.now - commit_started)
        for server in stragglers:
            self._spawn_retry(txn.txn_id, server, "txn.commit",
                              trace=commit_trace)
        if stragglers:
            commit_span.set_attr("stragglers", len(stragglers))
        commit_span.end()
        txn.state = COMMITTED
        self.commits += 1
        self._record_flight_outcome(txn, "commit",
                                    stragglers=len(stragglers))
        txn._run_commit_hooks()

    def _prepare_round(self, txn: Transaction, servers: List[str],
                       ) -> Generator[Any, Any, List[str]]:
        """Phase 1 proper: ask ``servers`` to vote; returns those that
        voted *prepared*, or aborts everywhere and raises."""
        prepare_span = self._phase_span(txn, "2pc.prepare")
        prepare_started = self.sim.now
        votes = yield from self._broadcast(
            txn.txn_id, "txn.prepare", servers,
            trace=self._phase_ctx(prepare_span, txn), span=prepare_span,
            answered=txn.answered)
        if self.profiler is not None:
            self.profiler.observe("2pc.prepare",
                                  self.sim.now - prepare_started)
        failures = [(server, outcome) for server, ok, outcome in votes
                    if not ok]
        if failures:
            server, error = failures[0]
            prepare_span.end(error=f"prepare failed at {server}: {error}")
            # Abort everywhere, including participants whose vote was
            # lost in transit — they may have durably prepared and will
            # otherwise stay in-doubt forever.
            to_abort = [srv for srv, ok, outcome in votes
                        if not ok or outcome == VOTE_PREPARED]
            self._spawn_aborts(txn.txn_id, sorted({*to_abort, *txn.voted}),
                               trace=txn.span.context if txn.span else None)
            txn.state = ABORTED
            self.aborts += 1
            self._record_flight_outcome(txn, "abort",
                                        prepare_failed_at=server)
            raise TransactionAborted(
                txn.txn_id, f"prepare failed at {server}: {error}")
        prepare_span.set_attr("votes", len(votes))
        prepare_span.end()
        return [server for server, _ok, outcome in votes
                if outcome == VOTE_PREPARED]

    def _record_flight_outcome(self, txn: Transaction, outcome: str,
                               **extra: Any) -> None:
        """Black-box record for one 2PC decision.

        Transactions that touched no participant are skipped — they
        decided nothing a postmortem could care about."""
        if self.flight is None or self.flight.closed \
                or not txn.participants:
            return
        self.flight.emit("txn", txn=str(txn.txn_id), outcome=outcome,
                         participants=len(txn.participants),
                         staged=len(txn.staged), **extra)

    def _phase_span(self, txn: Transaction, name: str):
        """A child span of ``txn.span`` for one 2PC phase (or a no-op)."""
        if self.collector is not None and txn.span:
            return self.collector.start_span(name, parent=txn.span,
                                             txn=str(txn.txn_id))
        return NOOP_SPAN

    @staticmethod
    def _phase_ctx(span, txn: Transaction) -> Optional[TraceContext]:
        """Context the phase's RPCs should carry: the phase span's if it
        is live, else the transaction's own (collector-less manager)."""
        if span:
            return span.context
        return txn.span.context if txn.span else None

    def abort(self, txn: Transaction) -> Generator[Any, Any, None]:
        if txn.state in (COMMITTED, ABORTED):
            return
        txn.state = ABORTED
        self.aborts += 1
        self._record_flight_outcome(txn, "abort")
        abort_trace = txn.span.context if txn.span else None
        results = yield from self._broadcast(
            txn.txn_id, "txn.abort", sorted(txn.attempted),
            trace=abort_trace)
        for server, ok, _outcome in results:
            if not ok:
                self._spawn_retry(txn.txn_id, server, "txn.abort",
                                  trace=abort_trace)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _broadcast(self, txn_id: TransactionId, method: str,
                   servers: List[str],
                   trace: Optional[TraceContext] = None,
                   span=None, answered: Optional[Dict[str, int]] = None,
                   ) -> Generator[Any, Any, List[Tuple[str, bool, Any]]]:
        """Call ``method`` on every server in parallel; never raises.

        Returns ``(server, ok, outcome)`` triples where ``outcome`` is
        the reply value or the exception.  With a live ``span``, each
        reply stamps a ``2pc.reply`` event as it arrives — since the
        phase blocks on *all* participants, the last such event marks
        the phase's critical participant.  ``answered`` (vote requests
        only) tells each server how many calls it has answered.
        """
        started = self.sim.now

        def one(server: str):
            extra = {} if answered is None \
                else {"answered": answered.get(server, 0)}
            try:
                value = yield self.endpoint.call(
                    server, method, timeout=self.call_timeout,
                    attempts=self.transport_attempts, trace=trace,
                    txn=str(txn_id), **extra)
                if span:
                    span.event("2pc.reply", server=server, ok=True,
                               at=self.sim.now,
                               waited=self.sim.now - started)
                return (server, True, value)
            except ReproError as exc:
                if span:
                    span.event("2pc.reply", server=server, ok=False,
                               at=self.sim.now,
                               waited=self.sim.now - started,
                               error=type(exc).__name__)
                return (server, False, exc)

        processes = [self.sim.spawn(one(server),
                                    name=f"2pc:{method}:{server}")
                     for server in servers]
        results = yield self.sim.all_of(processes)
        return results

    def _send_decision(self, txn_id: TransactionId, servers: List[str],
                       trace: Optional[TraceContext] = None,
                       span=None,
                       ) -> Generator[Any, Any, List[str]]:
        """Send commit to ``servers``; return those that did not ack."""
        results = yield from self._broadcast(txn_id, "txn.commit", servers,
                                             trace=trace, span=span)
        return [server for server, ok, _outcome in results if not ok]

    def _spawn_aborts(self, txn_id: TransactionId, servers: List[str],
                      trace: Optional[TraceContext] = None) -> None:
        for server in servers:
            self._spawn_retry(txn_id, server, "txn.abort", trace=trace)

    def _spawn_retry(self, txn_id: TransactionId, server: str,
                     method: str,
                     trace: Optional[TraceContext] = None) -> None:
        """Detached background retry until the participant answers.

        Retries only on *transport* silence (timeout/unreachable); any
        substantive reply — an ack, or a typed refusal such as "unknown
        transaction" — is definitive and ends the retry.
        """
        from ..errors import HostUnreachableError, RpcTimeout

        def send():
            return self.endpoint.call(
                server, method, timeout=self.call_timeout,
                attempts=self.transport_attempts, trace=trace,
                txn=str(txn_id))

        # The first transmission happens *now*, synchronously with the
        # decision — a partition or crash one event later must not be
        # able to get between the decision and its first message.
        first = send()

        def retry(outstanding):
            for attempt in range(self.commit_retry_attempts):
                try:
                    yield outstanding
                    return
                except (RpcTimeout, HostUnreachableError):
                    yield self.sim.timeout(
                        self._decision_retry_delay(attempt))
                    outstanding = send()
                except ReproError:
                    return  # definitive response from the participant
            # Gave up: the participant stays in-doubt until an operator
            # (or a test) resolves it explicitly.

        self.sim.spawn(retry(first), name=f"2pc-retry:{method}:{server}")

    def _decision_retry_delay(self, attempt: int) -> float:
        """Delay before decision-retry ``attempt`` (0-based)."""
        if self.retry_policy is None:
            return self.commit_retry_interval
        return self.retry_policy.delay(attempt, self._retry_rng)
