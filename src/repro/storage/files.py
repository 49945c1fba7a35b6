"""A shadow-paging file system over stable storage.

This is the "stable file system" layer of the paper's stack: named,
versioned files whose whole-file updates are **atomic across crashes**.

Layout
------

* Logical page 0 is the *root page*.  It is fixed-width binary: a
  format byte (:data:`ROOT_FORMAT`), the epoch counter, the bucket
  count ``B`` and then ``B`` head addresses, one per directory bucket.
* The directory is split into ``B`` *buckets*; a file lives in bucket
  ``zlib.crc32(name) % B``.  A non-empty bucket is a JSON list of its
  entries (name, version, length, data-chain head, properties) stored
  in its own chain of pages.  ``B = min(64, room in the root page)``
  is derived from the page geometry and checked at mount.
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

#: First byte of the root page.  The JSON root of the earlier
#: whole-directory layout starts with ``{`` (0x7b), so the two can never
#: be mistaken for each other.
ROOT_FORMAT = 2

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


FsOp = Generator[IoStep, None, Any]


class FileSystem:
    """Versioned files with crash-atomic (multi-)file updates."""

    def __init__(self, store: StableStore) -> None:
        self.store = store
        buckets = min(MAX_BUCKETS, (store.payload_size - _ROOT_HEADER.size)
                      // _HEAD_SIZE)
        self._root = struct.Struct(f"{_ROOT_HEADER.format}{buckets}i")
        # The directory: bucket index -> {name -> stat}, and the pages
        # of the chain each bucket is stored in.
        self._buckets: List[Dict[str, FileStat]] = [
            {} for _ in range(buckets)]
        self._bucket_pages: List[List[int]] = [[] for _ in range(buckets)]
        # Pages of every file's data chain, so a replaced or deleted
        # file is released without re-reading pages it no longer owns.
        self._file_pages: Dict[str, List[int]] = {}
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
        including any orphaned by a crash mid-update — become free.
        """
        self.store.recover()
        self._epoch, heads = self._read_root()
        used = {ROOT_PAGE}
        self._file_pages = {}
        for index, head in enumerate(heads):
            chunks, chain = self._walk_chain_sync(head)
            used.update(chain)
            self._bucket_pages[index] = chain
            bucket = self._buckets[index] = {}
            for raw in json.loads(b"".join(chunks)) if chain else ():
                stat = FileStat.from_json(raw)
                bucket[stat.name] = stat
                _chunks, pages = self._walk_chain_sync(stat.head)
                self._file_pages[stat.name] = pages
                used.update(pages)
        self._free = [address for address in range(self.store.num_pages)
                      if address not in used]
        heapq.heapify(self._free)
        self._mounted = True

    def _read_root(self) -> Tuple[int, Tuple[int, ...]]:
        """Parse the root page into ``(epoch, bucket heads)``.

        Refuses a root written by another layout (the earlier JSON
        root, or a different page geometry) instead of mis-parsing it.
        """
        payload = self.store.read(ROOT_PAGE)
        buckets = len(self._buckets)
        if len(payload) < _ROOT_HEADER.size or payload[0] != ROOT_FORMAT:
            raise StorageError(
                f"unsupported on-disk format: root page starts with "
                f"{payload[:1]!r}, expected format byte {ROOT_FORMAT} "
                f"(a JSON root is the pre-bucket layout; reformat)")
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
        return self._buckets[self._bucket_of(name)].get(name)

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
        return sorted(name for bucket in self._buckets for name in bucket)

    # ------------------------------------------------------------------
    # Operations (generators yielding IoStep)
    # ------------------------------------------------------------------

    def update(self, puts: Sequence[Put] = (),
               deletes: Sequence[str] = ()) -> FsOp:
        """Install every put and remove every delete in **one** root flip.

        The commit primitive every mutation goes through: new data
        chains, then new chains for the touched buckets, then the root
        flip, then the replaced chains return to the free pool.  A
        crash before the flip leaves every named file as it was; after
        it, all of them are in their new state.
        """
        self._require_mounted()
        names = [put.name for put in puts] + list(deletes)
        if len(set(names)) != len(names):
            raise ValueError(f"update names a file twice: {sorted(names)}")
        for name in deletes:
            if self._lookup(name) is None:
                raise NoSuchFileError(name)
        return self._update_op(puts, deletes)

    def _update_op(self, puts: Sequence[Put],
                   deletes: Sequence[str]) -> FsOp:
        data_chains: Dict[str, List[int]] = {}
        bucket_chains: Dict[int, List[int]] = {}
        touched: Dict[int, Dict[str, FileStat]] = {}

        def bucket_for(name: str) -> Dict[str, FileStat]:
            index = self._bucket_of(name)
            if index not in touched:
                touched[index] = dict(self._buckets[index])
            return touched[index]

        try:
            for put in puts:
                head, chain = yield from self._write_chain(put.data)
                data_chains[put.name] = chain
                bucket = bucket_for(put.name)
                properties = put.properties
                if properties is None:
                    old = bucket.get(put.name)
                    properties = old.properties if old else {}
                bucket[put.name] = FileStat(
                    name=put.name, version=put.version,
                    length=len(put.data), head=head,
                    properties=dict(properties))
            for name in deletes:
                bucket_for(name).pop(name, None)
            for index in sorted(touched):
                entries = touched[index]
                blob = json.dumps(
                    [entries[name].to_json() for name in sorted(entries)],
                    separators=(",", ":")).encode() if entries else b""
                _head, chain = yield from self._write_chain(blob)
                bucket_chains[index] = chain
        except StorageError:
            # Nothing is reachable from the root yet: reclaim it all.
            for chain in (*data_chains.values(), *bucket_chains.values()):
                self._release(chain)
            raise

        bucket_pages = list(self._bucket_pages)
        for index, chain in bucket_chains.items():
            bucket_pages[index] = chain
        heads = [chain[0] if chain else END_OF_CHAIN
                 for chain in bucket_pages]
        root_payload = self._root.pack(ROOT_FORMAT, self._epoch + 1,
                                       len(heads), *heads)
        self.store.write_primary(ROOT_PAGE, root_payload)
        yield IoStep("write-primary", ROOT_PAGE)
        self.store.write_shadow(ROOT_PAGE, root_payload)
        yield IoStep("write-shadow", ROOT_PAGE)
        # The flip is durable: now update the in-memory image.
        self._epoch += 1
        for index in bucket_chains:
            self._release(self._bucket_pages[index])
            self._buckets[index] = touched[index]
        self._bucket_pages = bucket_pages
        for name in deletes:
            self._release(self._file_pages.pop(name, ()))
        for name, chain in data_chains.items():
            self._release(self._file_pages.get(name, ()))
            self._file_pages[name] = chain
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

    def _write_chain(self, data: bytes) -> Generator[IoStep, None,
                                                     Tuple[int, List[int]]]:
        """Write ``data`` into freshly allocated pages; return (head, pages)."""
        chunks = self._split(data)
        if not chunks:
            return END_OF_CHAIN, []
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
        return addresses[0], addresses

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


def drive(operation: FsOp) -> Any:
    """Run a file-system operation generator to completion, untimed."""
    try:
        while True:
            next(operation)
    except StopIteration as stop:
        return stop.value
