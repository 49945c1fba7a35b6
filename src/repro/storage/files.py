"""A shadow-paging file system over stable storage.

This is the "stable file system" layer of the paper's stack: named,
versioned files whose whole-file updates are **atomic across crashes**.

Layout
------

* Logical page 0 is the *root page*.  It is fixed-width binary: a
  format byte (:data:`ROOT_FORMAT`), the epoch counter, the bucket
  count ``B`` and then ``B`` head addresses, one per directory bucket.
* The directory is split into ``B`` *buckets*; a file lives in bucket
  ``zlib.crc32(name) % B``.  A non-empty bucket is the JSON pair
  ``[entries, intention rows]`` stored in its own chain of pages: an
  entry is (name, version, length, data-chain head, properties), a row
  is an :class:`IntentionRow` — a prepared transaction's new state for
  a file of this bucket.  ``B = min(64, room in the root page)`` is
  derived from the page geometry and checked at mount.
* File data is stored in chains of pages; each page carries the address
  of the next page and a chunk of bytes.

Atomicity comes from shadow paging: :meth:`FileSystem.update` writes
the new data chains and new chains for just the *touched* buckets into
*free* pages, then flips the root page to point at them (untouched
buckets keep their heads).  The root flip is a single stable page
write, so a crash at any earlier point leaves the old file system
state fully intact — for every file in the update at once; pages
orphaned by a crash are reclaimed by the reachability sweep in
:meth:`FileSystem.mount`.

A transaction's *intentions list* is the same mechanism stopped
half-way: :meth:`FileSystem.intend` writes the new data chains — the
shadow pages — and records where they are in an intention row per
file, in that file's own bucket; :meth:`FileSystem.resolve` later
re-points the entries at those chains (or frees them) and drops the
rows.  Each is one flip through the tail :meth:`update` uses, the data
is written once, and a row that survives a crash keeps its chain
reachable until the transaction is decided.

Every mutating operation is written as a *generator* that yields an
``IoStep`` after each page write.  A timed caller (the storage server)
charges disk time per step, and crash injection can kill the generator
between steps — which is exactly how torn multi-page updates happen on
real disks.  Synchronous ``*_sync`` wrappers drive the generators to
completion for callers that do not model time.
"""

from __future__ import annotations

import heapq
import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import (Any, Dict, Generator, Iterable, List, Optional, Sequence,
                    Tuple)

from ..errors import (FileExistsError_, NoSuchFileError, StorageError)
from .stable import StableStore

#: Address of the root page.
ROOT_PAGE = 0

#: Sentinel "no next page" address.
END_OF_CHAIN = -1

#: First byte of the root page.  Format 2 kept prepared transactions in
#: record files rather than intention rows; the JSON root of the
#: whole-directory layout before it starts with ``{`` (0x7b).  Neither
#: can be mistaken for this one.
ROOT_FORMAT = 3

#: Ceiling on directory buckets (small pages hold fewer heads).
MAX_BUCKETS = 64

# Chain-page payload layout: 8-byte next address + 4-byte chunk length.
_CHAIN_HEADER = struct.Struct("<qi")

# Root-page layout: format byte, epoch, bucket count, then one 4-byte
# signed head address per bucket.
_ROOT_HEADER = struct.Struct("<BQH")
_HEAD_SIZE = 4


@dataclass(frozen=True)
class IoStep:
    """One page-level I/O performed by a file-system operation."""

    kind: str       # "read" | "write-primary" | "write-shadow"
    address: int


@dataclass
class FileStat:
    """Metadata for one file, as recorded in the directory."""

    name: str
    version: int
    length: int
    head: int = END_OF_CHAIN
    properties: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "version": self.version,
            "length": self.length,
            "head": self.head,
            "properties": self.properties,
        }

    @classmethod
    def from_json(cls, raw: Dict[str, Any]) -> "FileStat":
        return cls(name=raw["name"], version=raw["version"],
                   length=raw["length"], head=raw["head"],
                   properties=raw.get("properties", {}))


@dataclass(frozen=True)
class Put:
    """One file to install by :meth:`FileSystem.update`."""

    name: str
    data: bytes
    version: int
    #: ``None`` keeps the stored property map (empty for a new file).
    properties: Optional[Dict[str, Any]] = None


@dataclass(frozen=True)
class IntentionRow:
    """One file's new state under a prepared transaction.

    Recorded in the bucket of the file it names.  ``head`` is the
    shadow chain already holding the new contents; a delete has none.
    """

    txn: str
    name: str
    version: int
    length: int
    head: int = END_OF_CHAIN
    #: ``None`` keeps the property map stored when the row is installed.
    properties: Optional[Dict[str, Any]] = None
    delete: bool = False

    def to_json(self) -> List[Any]:
        return [self.txn, self.name, self.version, self.length, self.head,
                self.properties, self.delete]

    @classmethod
    def from_json(cls, raw: Sequence[Any]) -> "IntentionRow":
        return cls(*raw)


class _Bucket:
    """One directory bucket: its files, the intention rows naming files
    that hash to it, and the pages of the chain it is stored in."""

    __slots__ = ("files", "rows", "pages")

    def __init__(self, files: Optional[Dict[str, FileStat]] = None,
                 rows: Iterable[IntentionRow] = (),
                 pages: Sequence[int] = ()) -> None:
        self.files = dict(files or {})
        self.rows = list(rows)
        self.pages = list(pages)

    def encode(self) -> bytes:
        if not self.files and not self.rows:
            return b""
        return json.dumps(
            [[self.files[name].to_json() for name in sorted(self.files)],
             [row.to_json() for row in self.rows]],
            separators=(",", ":")).encode()


FsOp = Generator[IoStep, None, Any]


class FileSystem:
    """Versioned files with crash-atomic (multi-)file updates."""

    def __init__(self, store: StableStore) -> None:
        self.store = store
        buckets = min(MAX_BUCKETS, (store.payload_size - _ROOT_HEADER.size)
                      // _HEAD_SIZE)
        self._root = struct.Struct(f"{_ROOT_HEADER.format}{buckets}i")
        # The directory; ``_buckets[i].files`` is the only name -> stat
        # index.
        self._buckets: List[_Bucket] = [_Bucket() for _ in range(buckets)]
        # Pages of every file's data chain, so a replaced or deleted
        # file is released without re-reading pages it no longer owns.
        self._file_pages: Dict[str, List[int]] = {}
        # Prepared transactions: the rows of each (the same objects the
        # buckets hold) and the shadow chain behind each put row.
        self._intentions: Dict[str, List[IntentionRow]] = {}
        self._intent_pages: Dict[Tuple[str, str], List[int]] = {}
        self._free: List[int] = []
        self._epoch = 0
        self._mounted = False

    # ------------------------------------------------------------------
    # Capacity helpers
    # ------------------------------------------------------------------

    @property
    def chunk_size(self) -> int:
        """Data bytes that fit in one chain page."""
        return self.store.payload_size - _CHAIN_HEADER.size

    @property
    def free_pages(self) -> int:
        self._require_mounted()
        return len(self._free)

    def _require_mounted(self) -> None:
        if not self._mounted:
            raise StorageError("file system is not mounted")

    # ------------------------------------------------------------------
    # Format / mount
    # ------------------------------------------------------------------

    def format(self) -> None:
        """Initialise an empty file system (destroys existing content)."""
        buckets = len(self._buckets)
        self.store.write(ROOT_PAGE, self._root.pack(
            ROOT_FORMAT, 0, buckets, *[END_OF_CHAIN] * buckets))
        self.mount()

    def mount(self) -> None:
        """Recover stable storage, load the directory, rebuild the allocator.

        Runs at server restart.  Pages not reachable from the root —
        including any orphaned by a crash mid-update — become free;
        the intention rows found are what :meth:`intentions` reports.
        """
        self.store.recover()
        self._epoch, heads = self._read_root()
        used = {ROOT_PAGE}
        self._file_pages = {}
        self._intentions = {}
        self._intent_pages = {}
        for index, head in enumerate(heads):
            chunks, chain = self._walk_chain_sync(head)
            used.update(chain)
            bucket = self._buckets[index] = _Bucket(pages=chain)
            entries, rows = json.loads(b"".join(chunks)) if chain else ((), ())
            for raw in entries:
                stat = FileStat.from_json(raw)
                bucket.files[stat.name] = stat
                _chunks, pages = self._walk_chain_sync(stat.head)
                self._file_pages[stat.name] = pages
                used.update(pages)
            for raw in rows:
                # A prepared transaction's shadow chain stays allocated
                # until the transaction is resolved.
                row = IntentionRow.from_json(raw)
                bucket.rows.append(row)
                self._intentions.setdefault(row.txn, []).append(row)
                _chunks, pages = self._walk_chain_sync(row.head)
                self._intent_pages[row.txn, row.name] = pages
                used.update(pages)
        self._free = [address for address in range(self.store.num_pages)
                      if address not in used]
        heapq.heapify(self._free)
        self._mounted = True

    def _read_root(self) -> Tuple[int, Tuple[int, ...]]:
        """Parse the root page into ``(epoch, bucket heads)``.

        Refuses a root written by another layout (an earlier format,
        or a different page geometry) instead of mis-parsing it.
        """
        payload = self.store.read(ROOT_PAGE)
        buckets = len(self._buckets)
        if len(payload) < _ROOT_HEADER.size or payload[0] != ROOT_FORMAT:
            raise StorageError(
                f"unsupported on-disk format: root page starts with "
                f"{payload[:1]!r}, expected format byte {ROOT_FORMAT} "
                f"(format 2 kept prepared transactions in record files, "
                f"a JSON root is the pre-bucket layout; reformat)")
        _format, epoch, recorded = _ROOT_HEADER.unpack_from(payload)
        if recorded != buckets or len(payload) != self._root.size:
            raise StorageError(
                f"root page records {recorded} directory buckets, this "
                f"page geometry expects {buckets}")
        return epoch, self._root.unpack(payload)[3:]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def _bucket_of(self, name: str) -> int:
        # crc32, never hash(): the bucket is part of the on-disk format.
        return zlib.crc32(name.encode()) % len(self._buckets)

    def _lookup(self, name: str) -> Optional[FileStat]:
        return self._buckets[self._bucket_of(name)].files.get(name)

    def exists(self, name: str) -> bool:
        self._require_mounted()
        return self._lookup(name) is not None

    def stat(self, name: str) -> FileStat:
        self._require_mounted()
        stat = self._lookup(name)
        if stat is None:
            raise NoSuchFileError(name)
        return stat

    def list_files(self) -> List[str]:
        self._require_mounted()
        return sorted(name for bucket in self._buckets
                      for name in bucket.files)

    def intentions(self) -> Dict[str, List[IntentionRow]]:
        """The rows of every prepared, undecided transaction, by
        transaction (what a restarted participant must re-lock)."""
        self._require_mounted()
        return {txn: sorted(rows, key=lambda row: row.name)
                for txn, rows in self._intentions.items()}

    # ------------------------------------------------------------------
    # Operations (generators yielding IoStep)
    # ------------------------------------------------------------------

    def update(self, puts: Sequence[Put] = (),
               deletes: Sequence[str] = ()) -> FsOp:
        """Install every put and remove every delete in **one** root flip.

        New data chains, then new chains for the touched buckets, then
        the root flip, then the replaced chains return to the free
        pool.  A crash before the flip leaves every named file as it
        was; after it, all of them are in their new state.  Intention
        rows in the touched buckets are carried over untouched.
        """
        self._require_mounted()
        _require_distinct(puts, deletes)
        for name in deletes:
            if self._lookup(name) is None:
                raise NoSuchFileError(name)
        return self._update_op(puts, deletes)

    def _update_op(self, puts: Sequence[Put],
                   deletes: Sequence[str]) -> FsOp:
        chains = yield from self._write_data(puts)
        touched: Dict[int, _Bucket] = {}
        for put in puts:
            self._enter(self._touch(touched, put.name), put.name,
                        put.version, len(put.data), chains[put.name],
                        put.properties)
        for name in deletes:
            self._touch(touched, name).files.pop(name, None)
        yield from self._flip(touched, chains.values())
        for name in deletes:
            self._release(self._file_pages.pop(name, ()))
        for name, chain in chains.items():
            self._release(self._file_pages.get(name, ()))
            self._file_pages[name] = chain
        return None

    def intend(self, txn: str, puts: Sequence[Put] = (),
               deletes: Sequence[str] = ()) -> FsOp:
        """Record ``txn``'s intentions: once the flip lands it is
        *prepared*.

        The new contents are written into free pages exactly as
        :meth:`update` writes them, but the files' entries stay as they
        are: each file's bucket gains an :class:`IntentionRow` saying
        where its new chain is.  A delete needs no chain, and its file
        need not exist (resolving it then changes nothing).
        """
        self._require_mounted()
        _require_distinct(puts, deletes)
        if txn in self._intentions:
            raise ValueError(f"{txn} has already recorded its intentions")
        if not puts and not deletes:
            raise ValueError(f"{txn} intends nothing: no row would record it")
        return self._intend_op(txn, puts, deletes)

    def _intend_op(self, txn: str, puts: Sequence[Put],
                   deletes: Sequence[str]) -> FsOp:
        chains = yield from self._write_data(puts)
        rows = [IntentionRow(
            txn, put.name, put.version, len(put.data),
            _head_of(chains[put.name]),
            None if put.properties is None else dict(put.properties))
            for put in puts]
        rows += [IntentionRow(txn, name, 0, 0, delete=True)
                 for name in deletes]
        touched: Dict[int, _Bucket] = {}
        for row in rows:
            self._touch(touched, row.name).rows.append(row)
        yield from self._flip(touched, chains.values())
        self._intentions[txn] = rows
        for name, chain in chains.items():
            self._intent_pages[txn, name] = chain
        return None

    def resolve(self, txn: str, install: bool) -> FsOp:
        """Decide ``txn``: install its intentions or discard them.

        One bucket rewrite per touched bucket and one flip, no data
        written: to install is to re-point each entry at the chain its
        row names (or drop the entry, for a delete) and remove the
        row; the flip is the commit point.  To discard is to remove
        the rows and free their chains.  Returns the rows resolved —
        none for a transaction that has no rows (any more), which
        costs nothing.
        """
        self._require_mounted()
        return self._resolve_op(txn, install)

    def _resolve_op(self, txn: str, install: bool) -> FsOp:
        rows = self._intentions.get(txn)
        if rows is None:
            return []
        touched: Dict[int, _Bucket] = {}
        for row in rows:
            bucket = self._touch(touched, row.name)
            bucket.rows.remove(row)
            if not install:
                continue
            if row.delete:
                bucket.files.pop(row.name, None)
            else:
                self._enter(bucket, row.name, row.version, row.length,
                            self._intent_pages[txn, row.name],
                            row.properties)
        yield from self._flip(touched)
        del self._intentions[txn]
        for row in rows:
            chain = self._intent_pages.pop((txn, row.name), [])
            if not install:
                self._release(chain)
                continue
            self._release(self._file_pages.pop(row.name, ()))
            if not row.delete:
                self._file_pages[row.name] = chain
        return rows

    def _touch(self, touched: Dict[int, _Bucket], name: str) -> _Bucket:
        """The working copy of ``name``'s bucket in ``touched``."""
        index = self._bucket_of(name)
        if index not in touched:
            current = self._buckets[index]
            touched[index] = _Bucket(current.files, current.rows)
        return touched[index]

    @staticmethod
    def _enter(bucket: _Bucket, name: str, version: int, length: int,
               chain: Sequence[int],
               properties: Optional[Dict[str, Any]]) -> None:
        if properties is None:
            old = bucket.files.get(name)
            properties = old.properties if old else {}
        bucket.files[name] = FileStat(
            name=name, version=version, length=length,
            head=_head_of(chain), properties=dict(properties))

    def _write_data(self, puts: Sequence[Put],
                    ) -> Generator[IoStep, None, Dict[str, List[int]]]:
        """Write each put's contents into free pages: name -> chain."""
        chains: Dict[str, List[int]] = {}
        try:
            for put in puts:
                chains[put.name] = yield from self._write_chain(put.data)
        except StorageError:
            for chain in chains.values():
                self._release(chain)
            raise
        return chains

    def _flip(self, touched: Dict[int, _Bucket],
              written: Iterable[List[int]] = ()) -> FsOp:
        """The tail of every mutation: write a chain for each touched
        bucket, flip the root to them, swap them into the in-memory
        directory and free the chains they replace.

        ``written`` are the chains the caller wrote for this flip:
        should the buckets not fit, they are freed with them — nothing
        is reachable from the root yet.
        """
        try:
            for index in sorted(touched):
                touched[index].pages = yield from self._write_chain(
                    touched[index].encode())
        except StorageError:
            for chain in (*written, *(b.pages for b in touched.values())):
                self._release(chain)
            raise
        heads = [_head_of(touched.get(index, bucket).pages)
                 for index, bucket in enumerate(self._buckets)]
        root_payload = self._root.pack(ROOT_FORMAT, self._epoch + 1,
                                       len(heads), *heads)
        self.store.write_primary(ROOT_PAGE, root_payload)
        yield IoStep("write-primary", ROOT_PAGE)
        self.store.write_shadow(ROOT_PAGE, root_payload)
        yield IoStep("write-shadow", ROOT_PAGE)
        # The flip is durable: now update the in-memory image.
        self._epoch += 1
        for index, bucket in touched.items():
            self._release(self._buckets[index].pages)
            self._buckets[index] = bucket
        return None

    def create_file(self, name: str,
                    properties: Optional[Dict[str, Any]] = None) -> FsOp:
        """Create an empty file at version 0."""
        self._require_mounted()
        if self._lookup(name) is not None:
            raise FileExistsError_(name)
        return self.update([Put(name, b"", 0, properties or {})])

    def write_file(self, name: str, data: bytes, version: int,
                   properties: Optional[Dict[str, Any]] = None,
                   create: bool = False) -> FsOp:
        """Atomically replace a file's contents and set its version.

        ``properties``, if given, replaces the stored property map.
        With ``create=True`` a missing file is created.
        """
        self._require_mounted()
        if not create and self._lookup(name) is None:
            raise NoSuchFileError(name)
        return self.update([Put(name, data, version, properties)])

    def delete_file(self, name: str) -> FsOp:
        """Remove a file; its pages return to the free pool."""
        return self.update(deletes=[name])

    def read_file(self, name: str) -> FsOp:
        """Return ``(data, version)``; yields a step per page read."""
        self.stat(name)
        return self._read_file_op(name)

    def read_file_limited(self, name: str, max_bytes: float) -> FsOp:
        """Like :meth:`read_file`, but bounded by ``max_bytes``.

        Returns ``None`` instead of ``(data, version)`` when the file
        is larger than ``max_bytes``.  The decision comes from the
        in-memory directory (``length``), so an over-limit file costs
        no page I/O at all — this is what lets a version inquiry offer
        to piggyback the data without risking an unbounded transfer.
        """
        if self.stat(name).length > max_bytes:
            return self._skip_read_op()
        return self._read_file_op(name)

    def _skip_read_op(self) -> FsOp:
        return None
        yield  # pragma: no cover - makes this a generator

    def _read_file_op(self, name: str) -> FsOp:
        # Looked up when the walk starts, not when the op is created:
        # a commit that runs in between releases the old chain.
        stat = self.stat(name)
        parts: List[bytes] = []
        address = stat.head
        while address != END_OF_CHAIN:
            payload = self.store.read(address)
            yield IoStep("read", address)
            next_address, chunk_len = _CHAIN_HEADER.unpack_from(payload)
            parts.append(payload[_CHAIN_HEADER.size:
                                 _CHAIN_HEADER.size + chunk_len])
            address = next_address
        return b"".join(parts), stat.version

    # ------------------------------------------------------------------
    # Synchronous wrappers
    # ------------------------------------------------------------------

    def create_file_sync(self, name: str,
                         properties: Optional[Dict[str, Any]] = None) -> None:
        drive(self.create_file(name, properties))

    def write_file_sync(self, name: str, data: bytes, version: int,
                        properties: Optional[Dict[str, Any]] = None,
                        create: bool = False) -> None:
        drive(self.write_file(name, data, version, properties, create))

    def read_file_sync(self, name: str) -> Tuple[bytes, int]:
        return drive(self.read_file(name))

    def delete_file_sync(self, name: str) -> None:
        drive(self.delete_file(name))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _allocate(self, count: int) -> List[int]:
        if count > len(self._free):
            raise StorageError(
                f"out of pages: need {count}, have {len(self._free)} free")
        return [heapq.heappop(self._free) for _ in range(count)]

    def _release(self, addresses: Iterable[int]) -> None:
        for address in addresses:
            heapq.heappush(self._free, address)

    def _split(self, data: bytes) -> List[bytes]:
        if not data:
            return []
        size = self.chunk_size
        return [data[i:i + size] for i in range(0, len(data), size)]

    def _write_chain(self, data: bytes) -> Generator[IoStep, None, List[int]]:
        """Write ``data`` into freshly allocated pages; return them, head
        first."""
        chunks = self._split(data)
        if not chunks:
            return []
        addresses = self._allocate(len(chunks))
        next_address = END_OF_CHAIN
        # Write back-to-front so each page can point at its successor.
        for address, chunk in zip(reversed(addresses), reversed(chunks)):
            payload = _CHAIN_HEADER.pack(next_address, len(chunk)) + chunk
            self.store.write_primary(address, payload)
            yield IoStep("write-primary", address)
            self.store.write_shadow(address, payload)
            yield IoStep("write-shadow", address)
            next_address = address
        return addresses

    def _walk_chain_sync(self, head: int) -> Tuple[List[bytes], List[int]]:
        """Follow a chain from ``head``: its chunks and its pages."""
        parts: List[bytes] = []
        addresses: List[int] = []
        address = head
        while address != END_OF_CHAIN:
            addresses.append(address)
            payload = self.store.read(address)
            next_address, chunk_len = _CHAIN_HEADER.unpack_from(payload)
            parts.append(payload[_CHAIN_HEADER.size:
                                 _CHAIN_HEADER.size + chunk_len])
            address = next_address
        return parts, addresses


def _head_of(chain: Sequence[int]) -> int:
    return chain[0] if chain else END_OF_CHAIN


def _require_distinct(puts: Sequence[Put], deletes: Sequence[str]) -> None:
    names = [put.name for put in puts] + list(deletes)
    if len(set(names)) != len(names):
        raise ValueError(f"a file is named twice: {sorted(names)}")


def drive(operation: FsOp) -> Any:
    """Run a file-system operation generator to completion, untimed."""
    try:
        while True:
            next(operation)
    except StopIteration as stop:
        return stop.value
