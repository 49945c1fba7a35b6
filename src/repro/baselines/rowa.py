"""Read-one / write-all (the SDD-1-style baseline).

Every replica is always current, so a read touches any single replica —
the cheapest reachable one.  The price is paid on writes: *every*
replica must be locked, staged and committed, so one crashed or
partitioned-away server blocks all writes.  This is the scheme weighted
voting generalises away from: it is the ``r = 1, w = N`` corner of the
quorum trade-off with maximal read availability and minimal write
availability.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from ..txn.coordinator import Transaction
from ..txn.locks import EXCLUSIVE
from .base import ProtocolResult, ReplicaProtocolClient


class ReadOneWriteAllClient(ReplicaProtocolClient):
    """ROWA over the transactional substrate."""

    protocol_name = "rowa"

    def __init__(self, *args: Any,
                 latency_hints: Optional[Dict[str, float]] = None,
                 **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.latency_hints = latency_hints or {}

    def _ordered_servers(self) -> List[str]:
        return sorted(self.servers,
                      key=lambda s: (self.latency_hints.get(s, 0.0), s))

    def _read_once(self, txn: Transaction
                   ) -> Generator[Any, Any, ProtocolResult]:
        return (yield from self._read_first(txn, self._ordered_servers()))

    def _write_once(self, txn: Transaction, data: bytes
                    ) -> Generator[Any, Any, ProtocolResult]:
        # Lock every replica exclusively and learn the current version.
        stats = []
        for server in self.servers:
            stat = yield txn.call(server, "txn.stat", name=self.file_name,
                                  mode=EXCLUSIVE, timeout=self.call_timeout)
            stats.append(stat)
        new_version = max(stat["version"] for stat in stats) + 1
        calls = [txn.call(server, "txn.stage_write", name=self.file_name,
                          data=data, version=new_version,
                          timeout=self.call_timeout)
                 for server in self.servers]
        yield self.sim.all_of(calls)
        return ProtocolResult(data=data, version=new_version,
                              replicas=list(self.servers))
