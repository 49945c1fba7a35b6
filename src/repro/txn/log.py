"""A transaction's intentions, as a participant holds them in memory.

Gifford's transaction system commits by atomically installing an
*intentions list* — the set of writes the transaction wants.  Until the
vote a participant keeps that list as :class:`Intention` objects (data
included, so the transaction can read its own writes); voting hands it
to :meth:`repro.storage.files.FileSystem.intend`, which writes the data
into shadow pages and records one fixed-shape row per file in the
file's own directory bucket.  Those rows are the participant's whole
commit log, and they have one state:

* rows present → *prepared*: the participant voted yes and must await
  the coordinator's decision across crashes (in-doubt).
* no rows      → presumed abort, or already committed: the commit
  re-points the files at the shadow chains and removes the rows in the
  **same** root flip (:meth:`repro.storage.files.FileSystem.resolve`),
  so that flip is the commit flag and no "committed" record ever
  exists on disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional


@dataclass(frozen=True)
class Intention:
    """One pending write: install ``data`` as ``name`` at ``version``.

    A suite ``write()``'s vote has no ``version`` yet (``None``): the
    coordinator numbers it at the commit.
    """

    name: str
    data: bytes
    version: Optional[int]
    properties: Optional[Dict[str, Any]] = None
    delete: bool = False
