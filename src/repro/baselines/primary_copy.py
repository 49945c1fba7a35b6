"""Primary-copy replication (the distributed-INGRES-style baseline).

All updates are directed at a designated *primary*; secondaries receive
the new value by asynchronous propagation after commit.  Strongly
consistent reads therefore also go to the primary (a secondary may lag);
``allow_stale_reads`` lets reads fall back to secondaries at the cost of
possibly observing an older version — the trade this scheme is known
for.

Availability shape: both reads (strict mode) and writes are exactly as
available as the primary server — there is no voting and no failover in
the classic scheme, which is precisely the contrast Gifford draws.
"""

from __future__ import annotations

from typing import Any, Generator, List

from ..errors import ReproError
from ..txn.coordinator import Transaction
from ..txn.locks import EXCLUSIVE
from .base import ProtocolResult, ReplicaProtocolClient


class PrimaryCopyClient(ReplicaProtocolClient):
    """Primary copy with asynchronous secondary propagation."""

    protocol_name = "primary"

    def __init__(self, *args: Any, allow_stale_reads: bool = False,
                 propagation_attempts: int = 5,
                 propagation_backoff: float = 200.0,
                 **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.allow_stale_reads = allow_stale_reads
        self.propagation_attempts = propagation_attempts
        self.propagation_backoff = propagation_backoff

    @property
    def primary(self) -> str:
        return self.servers[0]

    @property
    def secondaries(self) -> List[str]:
        return self.servers[1:]

    # ------------------------------------------------------------------

    def _read_once(self, txn: Transaction
                   ) -> Generator[Any, Any, ProtocolResult]:
        order = [self.primary]
        if self.allow_stale_reads:
            order += self.secondaries
        result = yield from self._read_first(txn, order)
        if result.replicas[0] != self.primary:
            self.metrics.counter("primary.stale_reads").increment()
        return result

    def _write_once(self, txn: Transaction, data: bytes
                    ) -> Generator[Any, Any, ProtocolResult]:
        stat = yield txn.call(self.primary, "txn.stat", name=self.file_name,
                              mode=EXCLUSIVE, timeout=self.call_timeout)
        new_version = stat["version"] + 1
        yield txn.call(self.primary, "txn.stage_write", name=self.file_name,
                       data=data, version=new_version,
                       timeout=self.call_timeout)
        self._spawn_propagation(data, new_version)
        return ProtocolResult(data=data, version=new_version,
                              replicas=[self.primary])

    # ------------------------------------------------------------------

    def _spawn_propagation(self, data: bytes, version: int) -> None:
        """Push the new value to secondaries after the primary commits."""
        for server in self.secondaries:
            self.sim.spawn(self._propagate(server, data, version),
                           name=f"primary-propagate:{server}")

    def _propagate(self, server: str, data: bytes, version: int
                   ) -> Generator[Any, Any, None]:
        for attempt in range(self.propagation_attempts):
            txn = self.manager.begin()
            try:
                yield txn.call(server, "txn.stage_write",
                               name=self.file_name, data=data,
                               version=version, only_if_newer=True,
                               timeout=self.call_timeout)
                yield from txn.commit()
                self.metrics.counter("primary.propagations").increment()
                return
            except ReproError:
                yield from txn.abort()
                yield self.sim.timeout(
                    self.propagation_backoff * (attempt + 1))
        self.metrics.counter("primary.propagation_failures").increment()
