"""The transaction participant running on every storage server.

Implements the server side of two-phase commit over the shadow-paging
file system, with strict two-phase locking for concurrency control:

* ``read`` / ``read_version`` / ``stat`` take **shared** locks (``stat``
  exclusive ones for writers); ``read`` and ``stat`` accept
  ``release=True`` — the client's promise that this call is its
  transaction's only operation — under which the lock is taken exactly
  the same way, so a prepared or in-doubt writer still blocks the call,
  and dropped again as the handler returns: nothing is left for a
  prepare, commit or abort to clean up;
* ``stage_write`` / ``stage_delete`` take **exclusive** locks and buffer
  the write as an in-memory intention (no disk I/O until the vote);
  ``stage_write(one_phase=True)`` stages **and** commits in the same
  call — one-phase commit, legal because the transaction has this one
  participant and this one intention, so there is no vote to collect
  and nothing to record; ``stage_write(prepare=True)`` stages **and**
  votes in the same call — the client's promise that this is the last
  thing its transaction asks of this server;
* ``prepare`` — or that voting stage — makes the intentions durable
  with :meth:`~repro.storage.files.FileSystem.intend` (the data goes
  into shadow pages, a row per file into the file's directory bucket,
  one root flip) and votes;
* ``commit`` re-points the files at those pages *and* removes the rows
  in one :meth:`~repro.storage.files.FileSystem.resolve` — a single
  root flip, which is the commit point, and no data written — then
  releases locks;
* ``abort`` discards everything (the rows and their pages, if any).

A vote request says how many earlier calls of the transaction this
server has answered.  A participant that remembers fewer has restarted
since — the locks and intentions of the calls it forgot are gone — and
refuses, so a transaction can never commit the part of itself that
came after a restart.

Crash/recovery: volatile state (locks, unprepared transactions)
vanishes on a crash.  Intention rows found at restart can only mean
*prepared, decision unknown* (a crash before the commit flip leaves
rows and old files; after it the rows are gone with the new files in
place), so :meth:`recover` makes every transaction with rows
**in-doubt**: its files are re-locked exclusively and the participant
waits for the coordinator's decision — its ``txn.commit`` retry
finishes the job — which is the (blocking) behaviour of textbook
two-phase commit.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (TYPE_CHECKING, Any, Dict, Generator, Iterable, List,
                    Optional, Set, Tuple)

from ..errors import (InvalidTransactionState, NoSuchFileError,
                      TransactionAborted)
from ..sim.metrics import MetricsRegistry
from ..storage.files import Put
from ..storage.server import StorageServer
from .ids import TransactionId
from .locks import EXCLUSIVE, SHARED, LockManager
from .log import Intention

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.simulator import Simulator

#: Votes returned by ``prepare``.
VOTE_PREPARED = "prepared"
VOTE_READ_ONLY = "read-only"


def _put(intention: Intention) -> Put:
    return Put(intention.name, intention.data, intention.version,
               intention.properties)


class _Scratch:
    """Volatile per-transaction state."""

    __slots__ = ("intentions", "prepared", "handled", "last_touched")

    def __init__(self, now: float = 0.0) -> None:
        self.intentions: Dict[str, Intention] = {}
        self.prepared = False
        #: Calls of the transaction handled since this entry was made.
        self.handled = 0
        self.last_touched = now


class TransactionParticipant:
    """Two-phase commit participant bound to one storage server."""

    def __init__(self, server: StorageServer,
                 lock_timeout: Optional[float] = None,
                 idle_abort_after: Optional[float] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 max_stat_bytes: Optional[int] = None) -> None:
        self.server = server
        self.sim = server.sim
        #: Optional observability: per-file version-lag gauges, exposed
        #: by the live daemon's /metrics endpoint.
        self.metrics = metrics
        #: Server-side ceiling on data piggybacked onto ``txn.stat``
        #: replies (``read_data=True``): whatever limit the client
        #: requests is additionally clamped to this, so a transport
        #: with a hard frame size (the live runtime's length-prefixed
        #: frames) can never be asked to encode an oversized reply.
        #: ``None`` means no server-side ceiling.
        self.max_stat_bytes = max_stat_bytes
        self.locks = LockManager(server.sim, name=server.name,
                                 default_timeout=lock_timeout)
        self._active: Dict[TransactionId, _Scratch] = {}
        self._indoubt: Set[TransactionId] = set()
        # Tombstones for finished transactions: a *late retransmission*
        # of an operation (first delivery of a resent request, so the
        # endpoint's duplicate suppression cannot catch it) must not
        # resurrect a committed or aborted transaction's scratch state
        # and strand locks.  Bounded LRU.
        self._finished: "OrderedDict[TransactionId, None]" = OrderedDict()
        self._finished_capacity = 1024
        self.commits = 0
        self.aborts = 0
        self.idle_aborts = 0
        server.on_crash(self._on_crash)
        server.on_restart(self.recover)
        if idle_abort_after is not None:
            # Presumed-abort garbage collection: an *unprepared*
            # transaction whose client went silent (e.g. the client
            # timed out on us and moved on, or crashed) may always be
            # aborted unilaterally — only prepared state is binding.
            self.idle_abort_after = idle_abort_after
            self.sim.spawn(self._sweep_idle(),
                           name=f"txn-sweeper:{self.name}")

    @property
    def name(self) -> str:
        return self.server.name

    # ------------------------------------------------------------------
    # Data operations (RPC handlers; txn ids arrive as strings)
    # ------------------------------------------------------------------

    def read(self, txn: str, name: str, release: bool = False,
             ) -> Generator[Any, Any, Tuple[bytes, int]]:
        """Read a file under a shared lock; sees the txn's own writes.

        ``release`` works as in :meth:`stat`.
        """
        txn_id = TransactionId.parse(txn)
        try:
            scratch = self._scratch(txn_id)
            staged = scratch.intentions.get(name)
            if staged is not None:
                if staged.delete:
                    raise NoSuchFileError(name)
                return staged.data, staged.version
            yield self.locks.acquire(txn_id, name, SHARED)
            result = yield from self.server.read_file(name)
            return result
        finally:
            if release:
                self._release(txn_id)

    def read_version(self, txn: str, name: str,
                     ) -> Generator[Any, Any, int]:
        """Version-number inquiry under a shared lock (no data transfer)."""
        txn_id = TransactionId.parse(txn)
        scratch = self._scratch(txn_id)
        staged = scratch.intentions.get(name)
        if staged is not None:
            if staged.delete:
                raise NoSuchFileError(name)
            return staged.version
        yield self.locks.acquire(txn_id, name, SHARED)
        return self.server.stat(name).version

    def stat(self, txn: str, name: str, mode: str = SHARED,
             detail: bool = False, read_data: bool = False,
             max_bytes: Optional[int] = None,
             skip_version: Optional[int] = None,
             release: bool = False,
             ) -> Generator[Any, Any, Dict[str, Any]]:
        """Version inquiry under a lock, optionally carrying the data.

        This is the suite's *version number inquiry*: by default it
        moves only the version number and the small ``stamp`` property
        (the suite stores its configuration version there), so the
        message stays tens of bytes.  ``detail=True`` additionally
        returns the full property map — the suite requests that only
        when the stamp reveals its configuration is stale.  Writers
        inquire with ``mode="X"`` so the exclusive lock is taken up
        front, avoiding shared→exclusive upgrade deadlocks between two
        concurrent writers at the same representative.

        ``read_data=True`` asks this representative to piggyback the
        file contents onto the reply (the single-round-trip read fast
        path): the lock the inquiry takes already covers the read, so
        the reply gains a ``data`` key and the client can skip the
        follow-up ``txn.read`` entirely.  Two guards keep the reply
        bounded:

        * ``max_bytes`` (clamped to :attr:`max_stat_bytes`) — a file
          larger than the limit is *not* read (no page I/O is spent on
          it); the reply carries ``truncated: True`` instead and the
          client falls back to the two-trip path;
        * ``skip_version`` — when the copy's version equals it, the
          client already holds these bytes (a client cache), so the
          data is omitted and the reply stays inquiry-sized.

        ``release=True`` says this call is the only operation of its
        transaction (a suite ``read()``): the lock is acquired as
        always — a prepared or in-doubt writer blocks the inquiry
        until its decision lands — and dropped, with the scratch
        entry, as the handler returns, whether it replies, fails or is
        killed by a crash.  The client then owes this server no
        prepare, commit or abort.
        """
        txn_id = TransactionId.parse(txn)
        try:
            scratch = self._scratch(txn_id)
            staged = scratch.intentions.get(name)
            data: Optional[bytes] = None
            truncated = False
            if staged is not None:
                if staged.delete:
                    raise NoSuchFileError(name)
                properties = staged.properties or {}
                version = staged.version
                if read_data and version != skip_version:
                    if len(staged.data) <= self._stat_data_limit(max_bytes):
                        data = staged.data
                    else:
                        truncated = True
            else:
                yield self.locks.acquire(txn_id, name, mode)
                info = self.server.stat(name)
                properties = info.properties
                version = info.version
                if read_data and version != skip_version:
                    fetched = yield from self.server.read_file_limited(
                        name, self._stat_data_limit(max_bytes))
                    if fetched is not None:
                        data, version = fetched
                    else:
                        truncated = True
        finally:
            if release:
                self._release(txn_id)
        result = {"version": version, "stamp": properties.get("stamp", 0)}
        if data is not None:
            result["data"] = data
        if truncated:
            result["truncated"] = True
        if detail:
            result["properties"] = properties
        return result

    def _stat_data_limit(self, max_bytes: Optional[int]) -> float:
        """Effective piggyback ceiling: client request ∧ server cap."""
        limit = float("inf") if max_bytes is None else float(max_bytes)
        if self.max_stat_bytes is not None:
            limit = min(limit, float(self.max_stat_bytes))
        return limit

    def stage_write(self, txn: str, name: str, data: bytes, version: int,
                    properties: Optional[Dict[str, Any]] = None,
                    create: bool = False, only_if_newer: bool = False,
                    one_phase: bool = False, prepare: bool = False,
                    answered: int = 0,
                    ) -> Generator[Any, Any, str]:
        """Buffer a write under an exclusive lock; durable at the vote.

        With ``only_if_newer`` the write is skipped (returning
        ``"skipped"``) unless ``version`` exceeds the representative's
        current version.  The exclusive lock is held either way, so the
        check cannot be invalidated before commit — this is what lets
        the background refresher copy data to stale representatives
        without ever moving a version number backwards.

        With ``one_phase`` the call is the whole transaction: the
        intention is installed by one single-flip
        :meth:`~repro.storage.files.FileSystem.update`, with nothing
        recorded first (a crash leaves the old file or the new one,
        never an in-doubt transaction), and the transaction is
        finished — lock released, tombstoned — as the handler returns,
        installed (``"committed"``), skipped or failed.  That is only
        sound when this participant and this intention are all the
        transaction has, so a transaction that already staged
        something here is refused.

        With ``prepare`` the call is the last one the transaction makes
        here and carries the vote request (``answered`` as in
        :meth:`prepare`): the intention is staged, made durable and
        voted for in one go, and the reply is ``"prepared"``.  The
        coordinator takes exactly that reply for a yes — a lost one is
        a no, and its abort takes the row back.  Refused like
        ``one_phase`` when the transaction already holds an intention
        here: the stage that votes is the only one.
        """
        txn_id = TransactionId.parse(txn)
        if prepare:
            self._require_remembered(txn_id, answered)
        scratch = self._scratch(txn_id)
        if scratch.prepared:
            raise InvalidTransactionState(
                f"{txn_id} already prepared on {self.name}")
        if (one_phase or prepare) and scratch.intentions:
            raise InvalidTransactionState(
                f"{'one-phase commit' if one_phase else 'voting stage'} "
                f"of {txn_id} on {self.name}: it holds "
                f"{len(scratch.intentions)} other intention(s)")
        try:
            yield self.locks.acquire(txn_id, name, EXCLUSIVE)
            staged = scratch.intentions.get(name)
            if staged is not None and not staged.delete:
                exists, current_version = True, staged.version
            elif self.server.fs.exists(name):
                exists, current_version = \
                    True, self.server.stat(name).version
            else:
                exists, current_version = False, -1
            if not exists and not create:
                raise NoSuchFileError(name)
            if self.metrics is not None and exists:
                # Observed staleness: a foreground write carries
                # current + 1, a refresh (only_if_newer) carries the
                # current version itself — either way the write tells
                # this representative what the suite-wide version is,
                # and the shortfall of its own copy is its lag.
                global_current = version if only_if_newer else version - 1
                self.metrics.gauge(
                    f"rep.version_lag[file={name},"
                    f"server={self.name}]").set(
                    float(max(0, global_current - current_version)))
            if only_if_newer and exists and current_version >= version:
                return "skipped"
            intention = Intention(
                name=name, data=bytes(data), version=version,
                properties=dict(properties) if properties is not None
                else None)
            if one_phase:
                yield from self.server.update([_put(intention)])
                self._caught_up([name])
                self.commits += 1
                return "committed"
            scratch.intentions[name] = intention
            if not prepare:
                return "staged"
            yield from self._intend(txn_id, scratch)
            return VOTE_PREPARED
        finally:
            if one_phase:
                self._forget(txn_id)

    def stage_delete(self, txn: str, name: str,
                     ) -> Generator[Any, Any, None]:
        txn_id = TransactionId.parse(txn)
        scratch = self._scratch(txn_id)
        if scratch.prepared:
            raise InvalidTransactionState(
                f"{txn_id} already prepared on {self.name}")
        yield self.locks.acquire(txn_id, name, EXCLUSIVE)
        scratch.intentions[name] = Intention(
            name=name, data=b"", version=0, delete=True)

    # ------------------------------------------------------------------
    # Two-phase commit (RPC handlers)
    # ------------------------------------------------------------------

    def prepare(self, txn: str, answered: int = 0,
                ) -> Generator[Any, Any, str]:
        """Phase 1: durably record intentions and vote.

        ``answered`` is how many calls of the transaction the
        coordinator has had answered by this server; being asked to
        vote at all implies one.
        """
        txn_id = TransactionId.parse(txn)
        self._require_remembered(txn_id, max(answered, 1))
        scratch = self._active[txn_id]
        if not scratch.intentions:
            # Read-only participant: release locks now, skip phase 2.
            self._release(txn_id)
            return VOTE_READ_ONLY
        if not scratch.prepared:
            yield from self._intend(txn_id, scratch)
        return VOTE_PREPARED

    def commit(self, txn: str) -> Generator[Any, Any, str]:
        """Phase 2: install the intentions and drop their rows in one
        file-system flip, which is the commit point."""
        txn_id = TransactionId.parse(txn)
        if txn_id not in self._indoubt:
            scratch = self._active.get(txn_id)
            if scratch is None:
                return "ack"  # already finished: idempotent
            if not scratch.prepared:
                raise InvalidTransactionState(
                    f"commit of unprepared {txn_id} on {self.name}")
        rows = yield from self.server.resolve(str(txn_id), install=True)
        self._caught_up(row.name for row in rows if not row.delete)
        self._forget(txn_id)
        self.commits += 1
        return "ack"

    def abort(self, txn: str) -> Generator[Any, Any, str]:
        """Discard the transaction; idempotent."""
        txn_id = TransactionId.parse(txn)
        scratch = self._active.get(txn_id)
        if (scratch is not None and scratch.prepared) \
                or txn_id in self._indoubt:
            yield from self.server.resolve(str(txn_id), install=False)
        self._forget(txn_id)
        self.aborts += 1
        return "ack"

    def _require_remembered(self, txn_id: TransactionId,
                            answered: int) -> None:
        """Refuse a vote request when this server has handled fewer
        calls of ``txn_id`` than the coordinator has had answered by
        it: we lost this transaction's state (crash since it started)
        — all of it or, when the client kept calling after the
        restart, its earlier part — so the locks and intentions of the
        calls we forgot are gone."""
        scratch = self._active.get(txn_id)
        handled = scratch.handled if scratch is not None else 0
        if handled < answered:
            raise TransactionAborted(
                txn_id, f"unknown at participant {self.name}: it "
                f"remembers {handled} of {answered} answered call(s)")

    def _intend(self, txn_id: TransactionId, scratch: _Scratch,
                ) -> Generator[Any, Any, None]:
        """Make ``scratch``'s intentions durable: the transaction is
        prepared when this returns."""
        staged = list(scratch.intentions.values())
        yield from self.server.intend(
            str(txn_id), [_put(i) for i in staged if not i.delete],
            [i.name for i in staged if i.delete])
        if self._active.get(txn_id) is not scratch:
            # Aborted while the disk was busy (the client gave up on a
            # slow vote): nobody will resolve these rows, take them back.
            yield from self.server.resolve(str(txn_id), install=False)
            raise TransactionAborted(
                txn_id, f"aborted at {self.name} while it was voting")
        scratch.prepared = True

    def _caught_up(self, names: Iterable[str]) -> None:
        """These copies just reached the version their transaction
        told us about."""
        if self.metrics is not None:
            for name in names:
                self.metrics.gauge(
                    f"rep.version_lag[file={name},"
                    f"server={self.name}]").set(0.0)

    def _release(self, txn_id: TransactionId) -> None:
        """End a transaction that staged nothing here (a ``release=True``
        call returning, a read-only prepare): locks and scratch go.

        No tombstone: a late retransmission of a read just takes and
        drops the lock again, and remembering every read would push
        the transactions that need a tombstone out of the LRU.
        """
        self._active.pop(txn_id, None)
        self.locks.release_all(txn_id)

    def _forget(self, txn_id: TransactionId) -> None:
        self._active.pop(txn_id, None)
        self._indoubt.discard(txn_id)
        self.locks.release_all(txn_id)
        self._finished[txn_id] = None
        while len(self._finished) > self._finished_capacity:
            self._finished.popitem(last=False)

    # ------------------------------------------------------------------
    # Crash / recovery
    # ------------------------------------------------------------------

    def _on_crash(self) -> None:
        self._active.clear()
        self._indoubt.clear()
        self.locks.clear()

    def recover(self) -> None:
        """Re-adopt prepared transactions after a restart (in-doubt)."""
        for txn, rows in self.server.fs.intentions().items():
            txn_id = TransactionId.parse(txn)
            # Hold exclusive locks until the coordinator resolves us
            # (blocking 2PC semantics).
            self._indoubt.add(txn_id)
            for row in rows:
                self.locks.acquire(txn_id, row.name, EXCLUSIVE,
                                   timeout=None)

    def in_doubt(self) -> List[TransactionId]:
        """Transactions prepared before a crash, awaiting a decision."""
        return sorted(self._indoubt)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _scratch(self, txn_id: TransactionId) -> _Scratch:
        if txn_id in self._finished or txn_id in self._indoubt:
            raise TransactionAborted(
                txn_id, f"already finished or in doubt at {self.name} "
                "(late retransmission)")
        scratch = self._active.get(txn_id)
        if scratch is None:
            scratch = _Scratch(now=self.sim.now)
            self._active[txn_id] = scratch
        scratch.handled += 1
        scratch.last_touched = self.sim.now
        return scratch

    def _sweep_idle(self):
        interval = max(self.idle_abort_after / 2.0, 1e-9)
        while True:
            yield self.sim.timeout(interval)
            cutoff = self.sim.now - self.idle_abort_after
            for txn_id, scratch in list(self._active.items()):
                if not scratch.prepared and scratch.last_touched < cutoff:
                    self._forget(txn_id)
                    self.idle_aborts += 1

    def register_handlers(self, endpoint) -> None:
        """Attach the participant's RPC interface to an endpoint."""
        endpoint.register("txn.read", self.read)
        endpoint.register("txn.read_version", self.read_version)
        endpoint.register("txn.stat", self.stat)
        endpoint.register("txn.stage_write", self.stage_write)
        endpoint.register("txn.stage_delete", self.stage_delete)
        endpoint.register("txn.prepare", self.prepare)
        endpoint.register("txn.commit", self.commit)
        endpoint.register("txn.abort", self.abort)
