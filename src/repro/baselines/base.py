"""Shared machinery for baseline replica-control protocols.

The baselines implement the same abstract operations as the file suite
(read bytes / write bytes, each a transaction with retries), so the
comparison benches can drive any protocol through one interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Generator, List, Optional

from ..chaos.retry import RetryPolicy
from ..errors import QuorumUnavailableError, ReproError
from ..sim.metrics import MetricsRegistry
from ..txn.coordinator import RETRYABLE, Transaction, TransactionManager


@dataclass
class ProtocolResult:
    """Uniform outcome record for a baseline operation."""

    data: bytes
    version: int
    replicas: List[str]
    attempts: int = 1


class ReplicaProtocolClient:
    """Base class: owns the transaction/retry loop of every baseline."""

    #: Subclasses set this (used for file naming and metrics).
    protocol_name = "abstract"

    def __init__(self, manager: TransactionManager, object_name: str,
                 servers: List[str],
                 call_timeout: float = 1_000.0,
                 max_attempts: int = 4,
                 retry_backoff: float = 50.0) -> None:
        if not servers:
            raise ValueError("need at least one replica server")
        self.manager = manager
        self.sim = manager.sim
        self.object_name = object_name
        self.servers = list(servers)
        self.call_timeout = call_timeout
        self.max_attempts = max_attempts
        #: ×2 from ``retry_backoff``, no jitter.
        self.retry_policy = RetryPolicy(base=retry_backoff, jitter=0.0)
        self.metrics = manager.endpoint.metrics or MetricsRegistry()

    @property
    def file_name(self) -> str:
        return f"{self.protocol_name}:{self.object_name}"

    # -- public API ------------------------------------------------------

    def read(self) -> Generator[Any, Any, ProtocolResult]:
        return (yield from self._transact("read", self._read_once))

    def write(self, data: bytes) -> Generator[Any, Any, ProtocolResult]:
        return (yield from self._transact(
            "write", partial(self._write_once, data=data)))

    def install(self, initial_data: bytes = b"",
                ) -> Generator[Any, Any, None]:
        """Create the replicated object on every server."""
        txn = self.manager.begin()
        try:
            calls = [txn.call(server, "txn.stage_write",
                              name=self.file_name, data=initial_data,
                              version=1, create=True,
                              timeout=self.call_timeout)
                     for server in self.servers]
            yield self.sim.all_of(calls)
            yield from txn.commit()
        except ReproError:
            yield from txn.abort()
            raise

    def _read_first(self, txn: Transaction, servers: List[str],
                    ) -> Generator[Any, Any, ProtocolResult]:
        """``txn.read`` from the first of ``servers`` that answers."""
        last_error: Optional[BaseException] = None
        for server in servers:
            try:
                data, version = yield txn.call(
                    server, "txn.read", name=self.file_name,
                    timeout=self.call_timeout)
                return ProtocolResult(data=data, version=version,
                                      replicas=[server])
            except RETRYABLE as exc:
                last_error = exc
        raise last_error if last_error is not None else \
            QuorumUnavailableError("read", 1, 0)

    # -- to be provided by subclasses --------------------------------------

    def _read_once(self, txn: Transaction
                   ) -> Generator[Any, Any, ProtocolResult]:
        raise NotImplementedError

    def _write_once(self, txn: Transaction, data: bytes
                    ) -> Generator[Any, Any, ProtocolResult]:
        raise NotImplementedError

    # -- retry loop ----------------------------------------------------------

    def _transact(self, kind: str,
                  operation) -> Generator[Any, Any, ProtocolResult]:
        """Run one ``kind`` operation in the manager's attempt loop."""
        started = self.sim.now
        prefix = self.protocol_name
        try:
            result, begun, _adopted = yield from self.manager.transact(
                operation, self.retry_policy, self.max_attempts)
        except RETRYABLE:
            self.metrics.counter(f"{prefix}.failures").increment()
            raise
        result.attempts = begun
        self.metrics.counter(f"{prefix}.{kind}s").increment()
        self.metrics.histogram(f"{prefix}.{kind}_latency").observe(
            self.sim.now - started)
        return result
