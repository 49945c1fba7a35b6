"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch one base class.  Within that, the hierarchy mirrors
the system layers: simulation, storage, transactions, RPC, and the
weighted-voting protocol itself.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# --------------------------------------------------------------------------
# Simulation kernel
# --------------------------------------------------------------------------

class SimulationError(ReproError):
    """Base class for simulation-kernel errors."""


class Interrupt(SimulationError):
    """Thrown into a process that another process interrupted.

    The interrupt ``cause`` is available as ``exc.cause``.
    """

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
        self.cause = cause


class ProcessKilled(SimulationError):
    """A process was killed while a caller was waiting on it."""


# --------------------------------------------------------------------------
# Storage layer
# --------------------------------------------------------------------------

class StorageError(ReproError):
    """Base class for stable-storage errors."""


class PageCorruptError(StorageError):
    """A page failed its checksum on read (decay or torn write)."""


class NoSuchPageError(StorageError):
    """A page address outside the store was referenced."""


class NoSuchFileError(StorageError):
    """A named file does not exist in the file system."""


class FileExistsError_(StorageError):
    """A file with the given name already exists."""


class ServerDownError(StorageError):
    """The storage server is crashed and cannot serve requests."""


# --------------------------------------------------------------------------
# Transaction layer
# --------------------------------------------------------------------------

class TransactionError(ReproError):
    """Base class for transaction-system errors."""


class TransactionAborted(TransactionError):
    """The transaction was aborted (deadlock, crash, or explicit abort)."""

    def __init__(self, txn_id: object, reason: str = "") -> None:
        super().__init__(f"transaction {txn_id} aborted: {reason}")
        self.txn_id = txn_id
        self.reason = reason


class DeadlockError(TransactionError):
    """Granting a lock would create a waits-for cycle."""


class LockTimeoutError(TransactionError):
    """A lock request waited longer than its timeout."""


class InvalidTransactionState(TransactionError):
    """An operation was attempted in an illegal transaction state."""


# --------------------------------------------------------------------------
# RPC layer
# --------------------------------------------------------------------------

class RpcError(ReproError):
    """Base class for RPC failures."""


class RpcTimeout(RpcError):
    """No reply arrived before the call deadline."""


class HostUnreachableError(RpcError):
    """The destination host is down or partitioned away."""


class NoSuchMethodError(RpcError):
    """The server has no handler registered under the requested name."""


class InvalidRequestError(RpcError):
    """The request's arguments do not fit its handler's signature."""


class RemoteError(RpcError):
    """The remote handler raised; carries the remote exception repr."""

    def __init__(self, method: str, detail: str) -> None:
        super().__init__(f"remote handler {method!r} failed: {detail}")
        self.method = method
        self.detail = detail


# --------------------------------------------------------------------------
# Weighted-voting protocol
# --------------------------------------------------------------------------

class VotingError(ReproError):
    """Base class for file-suite protocol errors."""


class InvalidConfigurationError(VotingError):
    """A vote assignment or quorum pair violates the correctness rules."""


class QuorumUnavailableError(VotingError):
    """Not enough representatives responded to assemble a quorum."""

    def __init__(self, kind: str, needed: int, gathered: int) -> None:
        super().__init__(
            f"could not gather {kind} quorum: needed {needed} votes, "
            f"gathered {gathered}"
        )
        self.kind = kind
        self.needed = needed
        self.gathered = gathered


class QuorumUnattainableError(QuorumUnavailableError):
    """The reachable representatives provably cannot reach the quorum.

    Raised *before* any votes are solicited, when the health tracker's
    circuit breakers exclude so many representatives that the remaining
    votes sum below the threshold — the fail-fast variant of
    :class:`QuorumUnavailableError` (which is discovered the slow way,
    by timing out on the wire).
    """

    def __init__(self, kind: str, needed: int, attainable: int) -> None:
        VotingError.__init__(
            self,
            f"{kind} quorum unattainable: needed {needed} votes, only "
            f"{attainable} held by representatives not known unhealthy"
        )
        self.kind = kind
        self.needed = needed
        self.gathered = attainable
        self.attainable = attainable


class SuiteNotFoundError(VotingError):
    """The named file suite does not exist on a representative."""


class StaleConfigurationError(VotingError):
    """A representative reported a newer suite configuration than the
    client's, which the client adopted: the attempt re-runs under it."""

    def __init__(self, config_version: int) -> None:
        super().__init__(f"adopted configuration v{config_version}; "
                         "retrying under it")
        self.config_version = config_version
