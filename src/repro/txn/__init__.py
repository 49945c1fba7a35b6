"""Transactional storage substrate: strict 2PL + intentions lists + 2PC.

This is the "transactions" layer of Gifford's stack.  File suites run
every read and write inside a transaction from this package, inheriting
atomicity (a write quorum commits or aborts as a unit) and serial
consistency (two-phase locking on representatives).
"""

from .coordinator import (ABORTED, ACTIVE, COMMITTED, COMMITTING,
                          Transaction, TransactionManager)
from .ids import TransactionId, TransactionIdGenerator
from .locks import EXCLUSIVE, SHARED, LockManager, compatible
from .log import Intention
from .participant import (VOTE_PREPARED, VOTE_READ_ONLY,
                          TransactionParticipant)

__all__ = [
    "ABORTED", "ACTIVE", "COMMITTED", "COMMITTING", "EXCLUSIVE",
    "Intention", "LockManager", "SHARED", "Transaction",
    "TransactionId", "TransactionIdGenerator", "TransactionManager",
    "TransactionParticipant", "VOTE_PREPARED", "VOTE_READ_ONLY",
    "compatible",
]
