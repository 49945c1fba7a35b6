"""Background refresh of stale representatives.

The paper keeps foreground operations fast by never making them wait
for obsolete copies: when a read discovers representatives behind the
current version, or a write leaves some behind — its weak
representatives, a voting one whose stage failed, or, for a
``write_in``, every one outside the quorum it staged at — those copies
are brought current *in the background*, by whoever holds the data.
A suite ``write()`` stages at every voting representative, and a vote
that lands after the decision commits there, so no refresh follows it
for a voting representative that answers.

The operation that found a copy stale hands over the ``(version,
data)`` it already holds — the write its commit hook just committed,
the read its quorum just proved current — and a refresh is then **one
call per target**: ``txn.stage_write`` with ``only_if_newer``,
``create`` and ``one_phase``, which checks the version under the
target's exclusive lock, installs the copy in a single file-system
update and releases, all inside the handler.  One-phase commit is
legal because each such transaction has exactly one participant and
one intention; ``only_if_newer`` under the lock means a refresh can
never move a version number backwards, even racing foreground writes.
The configuration written beside the data is the one the suite client
holds when the call is made, which is never older than the one the
data was committed under.

A request that comes without data (an operator's
:func:`~repro.core.admin.force_converge`, the spread after a
reconfiguration) first reads the suite through a normal read quorum in
its own strict two-phase-locked transaction — so the refresher can
never propagate uncommitted or stale data — and installs what it read
the same way.

Duplicate suppression: one in-flight refresh per (suite, representative)
at a time; while it works, the newest payload handed in for that
representative is kept and installed before the refresh finishes, so
no update is silently dropped.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Set, Tuple

from ..errors import ReproError
from ..obs.spans import NOOP_SPAN
from ..sim.metrics import MetricsRegistry
from ..txn.coordinator import TransactionManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.simulator import Simulator
    from .suite import FileSuiteClient


class BackgroundRefresher:
    """Queues and executes stale-representative refreshes."""

    def __init__(self, manager: TransactionManager, delay: float = 0.0,
                 max_attempts: int = 3, retry_backoff: float = 100.0,
                 enabled: bool = True) -> None:
        self.manager = manager
        self.sim = manager.sim
        self.delay = delay
        self.max_attempts = max_attempts
        self.retry_backoff = retry_backoff
        #: The client's registry (its endpoint's), or a private one.
        self.metrics = manager.endpoint.metrics or MetricsRegistry()
        #: Ablation switch: with ``enabled=False`` every refresh request
        #: is dropped, so stale copies persist (experiment F5).
        self.enabled = enabled
        self._in_flight: Set[Tuple[str, str]] = set()
        #: Highest version anyone has asked each representative to reach.
        #: A refresh already in flight re-runs if a newer request lands
        #: while it works, so no update is ever silently dropped.
        self._requested: Dict[Tuple[str, str], int] = {}
        #: Newest ``(version, data)`` handed in for each representative
        #: with a refresh in flight.  A request without data removes
        #: the entry: its caller wants the suite's current state, which
        #: only a quorum read can vouch for.
        self._payloads: Dict[Tuple[str, str], Tuple[int, bytes]] = {}

    def schedule(self, suite: "FileSuiteClient", rep_ids: List[str],
                 version: int, data: Optional[bytes] = None) -> None:
        """Request that ``rep_ids`` of ``suite`` be brought to ``version``.

        ``data`` is that version's contents when the caller holds them
        (a committed write, a read just served); without it the
        refresher reads the suite itself.  Fire-and-forget: returns
        immediately, work happens in a detached process.
        """
        if not self.enabled:
            self.metrics.counter("refresh.dropped").increment()
            return
        suite_name = suite.config.suite_name
        targets = []
        for rep_id in rep_ids:
            key = (suite_name, rep_id)
            self._requested[key] = max(self._requested.get(key, 0),
                                       version)
            held = self._payloads.get(key)
            if data is None:
                self._payloads.pop(key, None)
            elif held is None or version >= held[0]:
                self._payloads[key] = (version, data)
            if key in self._in_flight:
                continue  # the in-flight run will see _requested
            self._in_flight.add(key)
            targets.append(rep_id)
        if not targets:
            return
        self.metrics.counter("refresh.scheduled").increment(len(targets))
        self.sim.spawn(self._refresh(suite, targets),
                       name=f"refresh:{suite_name}")

    def _refresh(self, suite: "FileSuiteClient", rep_ids: List[str],
                 ) -> Generator[Any, Any, None]:
        suite_name = suite.config.suite_name
        keys = [(suite_name, rep_id) for rep_id in rep_ids]
        # Refresh is its own root trace: it is causally downstream of a
        # foreground operation but runs detached, and a trace that held
        # the foreground span open until background work finished would
        # misreport the operation's latency.
        span = suite.collector.start_trace(
            "suite.refresh", kind="internal", suite=suite_name,
            targets=",".join(sorted(rep_ids)))
        try:
            if self.delay > 0:
                yield self.sim.timeout(self.delay)
            consecutive_failures = 0
            while consecutive_failures < self.max_attempts:
                achieved = yield from self._attempt(suite, rep_ids,
                                                    span=span)
                if achieved is None:
                    consecutive_failures += 1
                    span.event("attempt.failed",
                               consecutive=consecutive_failures)
                    yield self.sim.timeout(
                        self.retry_backoff * consecutive_failures)
                    continue
                consecutive_failures = 0  # progress was made
                outstanding = any(self._requested.get(key, 0) > achieved
                                  for key in keys)
                if not outstanding:
                    self.metrics.counter(
                        "refresh.completed").increment(len(rep_ids))
                    span.set_attr("version", achieved)
                    span.end()
                    return
                # A newer request landed while we worked: go again.
            self.metrics.counter("refresh.abandoned").increment(len(rep_ids))
            span.end(error=f"abandoned after {self.max_attempts} "
                           "consecutive failures")
        finally:
            if span and not span.finished:
                span.end(error="refresher killed")
            for key in keys:
                self._in_flight.discard(key)
                self._requested.pop(key, None)
                self._payloads.pop(key, None)

    def _attempt(self, suite: "FileSuiteClient", rep_ids: List[str],
                 span=NOOP_SPAN) -> Generator[Any, Any, Optional[int]]:
        """One refresh pass; returns the version installed, or None."""
        suite_name = suite.config.suite_name
        held = [self._payloads.get((suite_name, rep_id))
                for rep_id in rep_ids]
        if all(held):
            version, data = max(held, key=lambda payload: payload[0])
        else:
            # Some target's request came without data: fetch the
            # authoritative current state through a normal read quorum,
            # in its own read-only transaction (it may already be newer
            # than the requested version).  If a reconfiguration
            # happened meanwhile, the read adopts it and raises, so by
            # the time it succeeds `suite.config` is consistent with
            # the version read.  Committing here releases the quorum's
            # shared locks immediately, so a refresh never starves
            # foreground writers of the suite.
            read_txn = self.manager.begin()
            read_txn.span = span
            try:
                result = yield from suite.read_in(read_txn)
                yield from read_txn.commit()
            except ReproError:
                yield from read_txn.abort()
                return None
            version, data = result.version, result.data

        # One self-contained transaction per target, locking only that
        # target for the length of one handler.  Whatever happened
        # since the data was captured is harmless: ``only_if_newer``
        # under the target's exclusive lock turns the install into a
        # no-op if a foreground write got there first, and a target a
        # reconfiguration removed meanwhile is simply left out.
        config = suite.config
        properties = {"config": config.to_json(),
                      "stamp": config.config_version}
        calls = []
        for rep_id in rep_ids:
            try:
                rep = config.representative(rep_id)
            except KeyError:
                continue  # removed by a reconfiguration meanwhile
            install = self.manager.begin()
            install.span = span
            calls.append(install.call(
                rep.server, "txn.stage_write", name=config.file_name,
                data=data, version=version, properties=properties,
                only_if_newer=True, create=True, one_phase=True,
                timeout=suite.data_timeout))
        try:
            if calls:
                yield self.sim.all_of(calls)
        except ReproError:
            return None
        self.metrics.counter("refresh.transactions").increment()
        return version
