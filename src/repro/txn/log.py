"""Durable transaction records: intentions lists.

Gifford's transaction system commits by atomically installing an
*intentions list* — the set of writes the transaction wants — and then
replaying it.  Here a participant's prepared state is one
:class:`TransactionRecord` holding every intention for that server,
serialized to JSON (data base64-encoded) and stored as a single file in
the shadow-paging file system, whose whole-file writes are crash-atomic.
That file *is* the participant's commit log, and it has one state:

* record present → *prepared*: the participant voted yes and must await
  the coordinator's decision across crashes (in-doubt).
* no record      → presumed abort, or already committed: the commit
  installs the intentions and removes the record in the **same** root
  flip (:meth:`repro.storage.files.FileSystem.update`), so that flip is
  the commit flag and no "committed" record ever exists on disk.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .ids import TransactionId

#: Directory prefix for transaction-record files.
RECORD_PREFIX = "__txn__/"


@dataclass(frozen=True)
class Intention:
    """One pending write: install ``data`` as ``name`` at ``version``."""

    name: str
    data: bytes
    version: int
    properties: Optional[Dict[str, Any]] = None
    delete: bool = False

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "data": base64.b64encode(self.data).decode("ascii"),
            "version": self.version,
            "properties": self.properties,
            "delete": self.delete,
        }

    @classmethod
    def from_json(cls, raw: Dict[str, Any]) -> "Intention":
        return cls(name=raw["name"],
                   data=base64.b64decode(raw["data"]),
                   version=raw["version"],
                   properties=raw.get("properties"),
                   delete=raw.get("delete", False))


@dataclass
class TransactionRecord:
    """The durable per-participant state of one transaction."""

    txn_id: TransactionId
    intentions: List[Intention] = field(default_factory=list)

    @property
    def record_file(self) -> str:
        return record_file_name(self.txn_id)

    def encode(self) -> bytes:
        return json.dumps({
            "txn": str(self.txn_id),
            "intentions": [i.to_json() for i in self.intentions],
        }, separators=(",", ":")).encode()

    @classmethod
    def decode(cls, blob: bytes) -> "TransactionRecord":
        raw = json.loads(blob.decode())
        return cls(txn_id=TransactionId.parse(raw["txn"]),
                   intentions=[Intention.from_json(i)
                               for i in raw["intentions"]])


def record_file_name(txn_id: TransactionId) -> str:
    return f"{RECORD_PREFIX}{txn_id}"


def is_record_file(name: str) -> bool:
    return name.startswith(RECORD_PREFIX)
