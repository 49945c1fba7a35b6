"""A storage server: a host with a disk and a mounted file system.

Binds the untimed file-system logic to simulation time and to crash
semantics:

* every page-level I/O step costs ``page_io_time`` on the server's
  single disk (a FIFO :class:`~repro.sim.queues.Resource`);
* a host crash destroys volatile state (in-flight operations die with
  their processes; upper layers register crash listeners to drop lock
  tables and transaction scratch state);
* a host restart remounts the file system, which runs stable-storage
  recovery and the orphan-page sweep — so a write torn by the crash
  either fully happened or left the old state intact.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Callable, Dict, Generator, List,
                    Optional, Sequence, Tuple)

from ..errors import ServerDownError
from ..sim.network import Host
from ..sim.queues import Resource
from .files import FileStat, FileSystem, FsOp, IntentionRow, Put
from .stable import StableStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.simulator import Simulator


class StorageServer:
    """File storage bound to a simulated host."""

    def __init__(self, sim: "Simulator", host: Host, num_pages: int = 4096,
                 page_size: int = 512, page_io_time: float = 0.0,
                 scrub_interval: Optional[float] = None,
                 stable: Optional[StableStore] = None,
                 format_fs: bool = True) -> None:
        self.sim = sim
        self.host = host
        self.page_io_time = page_io_time
        # A caller may supply its own stable store (e.g. the live
        # runtime's file-backed pages) and ask for a mount instead of a
        # format, so existing on-disk state survives a daemon restart.
        self.stable = stable if stable is not None else StableStore.create(
            num_pages, page_size, name=host.name)
        self.fs = FileSystem(self.stable)
        if format_fs:
            self.fs.format()
        else:
            self.fs.mount()
        self.disk = Resource(sim, capacity=1, name=f"{host.name}.disk")
        self.crashes = 0
        self.recoveries = 0
        self.pages_scrubbed = 0
        self.double_faults = 0
        self._crash_listeners: List[Callable[[], None]] = []
        self._restart_listeners: List[Callable[[], None]] = []
        host.on_crash(self._on_crash)
        host.on_restart(self._on_restart)
        if scrub_interval is not None:
            # The stable-storage scavenger: decayed pages are repaired
            # from their duplexed twin *before* the twin can decay too.
            # Stable storage only masks single faults per pair; periodic
            # scrubbing is what makes double faults improbable in time.
            self.sim.spawn(self._scrub_loop(scrub_interval),
                           name=f"scrubber:{host.name}")

    @property
    def name(self) -> str:
        return self.host.name

    @property
    def up(self) -> bool:
        return self.host.up

    # -- crash plumbing for upper layers (lock manager, txn participant) ----

    def on_crash(self, listener: Callable[[], None]) -> None:
        self._crash_listeners.append(listener)

    def on_restart(self, listener: Callable[[], None]) -> None:
        self._restart_listeners.append(listener)

    def _on_crash(self) -> None:
        self.crashes += 1
        for listener in list(self._crash_listeners):
            listener()

    def _on_restart(self) -> None:
        # The disk may have been held by a process that died mid-I/O.
        self.disk.reset()
        # Remount: stable-storage recovery plus the orphan-page sweep.
        self.fs.mount()
        self.recoveries += 1
        for listener in list(self._restart_listeners):
            listener()

    # -- timed execution -----------------------------------------------------

    def execute(self, operation: FsOp) -> Generator[Any, Any, Any]:
        """Run a file-system operation under disk timing.

        A process generator: acquires the disk, charges
        ``page_io_time`` per :class:`~repro.storage.files.IoStep`, and
        returns the operation's result.  If the host crashes, the
        process running this generator is killed by the endpoint layer,
        leaving the on-disk state at whatever step had completed —
        exactly the crash window shadow paging is built to survive.
        """
        if not self.host.up:
            raise ServerDownError(self.name)
        yield self.disk.acquire()
        try:
            while True:
                try:
                    next(operation)
                except StopIteration as stop:
                    return stop.value
                if self.page_io_time > 0:
                    yield self.sim.timeout(self.page_io_time)
        finally:
            self.disk.release()

    # -- convenience timed operations ----------------------------------------

    def _require_up(self) -> None:
        if not self.host.up:
            raise ServerDownError(self.name)

    def read_file(self, name: str) -> Generator[Any, Any, Tuple[bytes, int]]:
        self._require_up()
        result = yield from self.execute(self.fs.read_file(name))
        return result

    def read_file_limited(self, name: str, max_bytes: float,
                          ) -> Generator[Any, Any,
                                         Optional[Tuple[bytes, int]]]:
        """Timed bounded read; ``None`` when the file exceeds the limit.

        The size check is answered from the in-memory directory, so a
        refusal costs no disk time — only an accepted read pays the
        per-page charges.
        """
        self._require_up()
        result = yield from self.execute(
            self.fs.read_file_limited(name, max_bytes))
        return result

    def write_file(self, name: str, data: bytes, version: int,
                   properties: Optional[Dict[str, Any]] = None,
                   create: bool = False) -> Generator[Any, Any, None]:
        self._require_up()
        yield from self.execute(
            self.fs.write_file(name, data, version, properties, create))

    def update(self, puts: Sequence[Put] = (), deletes: Sequence[str] = (),
               ) -> Generator[Any, Any, None]:
        """Timed :meth:`FileSystem.update`: many files, one root flip."""
        self._require_up()
        yield from self.execute(self.fs.update(puts, deletes))

    def intend(self, txn: str, puts: Sequence[Put] = (),
               deletes: Sequence[str] = ()) -> Generator[Any, Any, None]:
        """Timed :meth:`FileSystem.intend`: shadow chains + rows, one flip."""
        self._require_up()
        yield from self.execute(self.fs.intend(txn, puts, deletes))

    def resolve(self, txn: str, install: bool,
                version: Optional[int] = None,
                ) -> Generator[Any, Any, List[IntentionRow]]:
        """Timed :meth:`FileSystem.resolve`: the rows it resolved."""
        self._require_up()
        rows = yield from self.execute(self.fs.resolve(txn, install,
                                                       version))
        return rows

    def stat(self, name: str) -> FileStat:
        """Untimed metadata lookup (directory is cached in memory)."""
        if not self.host.up:
            raise ServerDownError(self.name)
        return self.fs.stat(name)

    # -- scrubbing -------------------------------------------------------------

    def scrub(self) -> Generator[Any, Any, int]:
        """One scavenger pass: repair all single-fault page pairs.

        Holds the disk and charges one page-time per logical page
        examined; returns the number of pairs repaired.
        """
        self._require_up()
        yield self.disk.acquire()
        try:
            if self.page_io_time > 0:
                yield self.sim.timeout(
                    self.page_io_time * self.stable.num_pages)
            repaired = self.stable.recover()
            self.pages_scrubbed += repaired
            return repaired
        finally:
            self.disk.release()

    def _scrub_loop(self, interval: float):
        from ..errors import PageCorruptError
        while True:
            yield self.sim.timeout(interval)
            if not self.host.up:
                continue  # the restart's remount does the repairs
            try:
                yield from self.scrub()
            except ServerDownError:
                continue  # crashed while waiting for the disk
            except PageCorruptError:
                # Unmaskable double fault: data on this server is gone.
                # Record it; the replication layer above is the remedy.
                self.double_faults += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "DOWN"
        return f"<StorageServer {self.name} {state}>"
