"""Live storage server daemon: real sockets, real disk.

A :class:`LiveStorageServer` is the simulated testbed's own
:meth:`~repro.testbed.ServerNode.build` representative — stable
storage, file system, lock manager, two-phase-commit participant and
RPC endpoint — on a :class:`~repro.live.runtime.LiveKernel` and a
TCP :class:`~repro.live.runtime.LiveHost`.  The only new piece is
:class:`FilePageStore`, a
:class:`~repro.storage.pages.PageStore` whose pages are write-through
to a file, so the duplexed careful pages of
:class:`~repro.storage.stable.StableStore` actually live in a directory
on disk and survive a daemon restart (remounting runs stable-storage
recovery and the transaction-record replay, exactly as a simulated
server restart does).
"""

from __future__ import annotations

import asyncio
import json
import os
from typing import Optional, Tuple

from ..errors import StorageError
from ..obs import prom
from ..obs.collector import TraceCollector, dumps_jsonl
from ..obs.httpd import ObsHttpServer
from ..sim.metrics import MetricsRegistry
from ..storage.pages import PageStore
from ..storage.stable import CarefulStore, StableStore
from ..testbed import ServerNode
from .runtime import LiveHost, LiveKernel
from .transport import MAX_FRAME_BYTES

#: On-disk slot layout: 4-byte big-endian payload length + page bytes.
_SLOT_HEADER = 4

#: Ceiling on data piggybacked onto ``txn.stat`` replies (the read
#: fast path).  A stat reply carries ``data`` as a raw blob tail in
#: its fixed layout, so the encoded reply is the payload plus a header
#: of tens of bytes; 3/8 of the transport's frame limit keeps it far
#: inside one frame.  Clients may ask for less via ``max_bytes``; they
#: can never get more.
STAT_DATA_CEILING = 3 * MAX_FRAME_BYTES // 8


class FilePageStore(PageStore):
    """A page store persisted write-through to a single backing file.

    Layout: ``num_pages`` fixed-size slots, each a 4-byte big-endian
    payload length followed by ``page_size`` reserved bytes.  A length
    of zero means "never written", preserving the in-memory store's
    blank-page semantics that stable-storage recovery relies on.
    Existing files are loaded into memory on open, so reads stay as
    cheap as the simulated store; only writes touch the file.
    """

    def __init__(self, path: str, num_pages: int, page_size: int = 512,
                 name: str = "disk", fsync: bool = False) -> None:
        super().__init__(num_pages, page_size, name)
        self.path = path
        self.fsync = fsync
        self._slot_size = _SLOT_HEADER + page_size
        existed = os.path.exists(path)
        self._file = open(path, "r+b" if existed else "w+b")
        # Dropped by close(): after it the OS may hand the same number
        # to another file.
        self._descriptor: Optional[int] = self._file.fileno()
        if existed:
            self._load()
        else:
            self._file.truncate(num_pages * self._slot_size)

    def _load(self) -> None:
        self._file.seek(0)
        blob = self._file.read(self.num_pages * self._slot_size)
        if len(blob) < self.num_pages * self._slot_size:
            # Short file (e.g. page geometry changed): treat missing
            # slots as never written.
            blob = blob.ljust(self.num_pages * self._slot_size, b"\x00")
            self._file.truncate(self.num_pages * self._slot_size)
        for address in range(self.num_pages):
            offset = address * self._slot_size
            length = int.from_bytes(blob[offset:offset + _SLOT_HEADER],
                                    "big")
            if 0 < length <= self.page_size:
                start = offset + _SLOT_HEADER
                self._pages[address] = blob[start:start + length]

    def write(self, address: int, data: bytes) -> None:
        """Write the page to the file, then to memory.

        A write the file refuses (a full disk, an I/O error) raises
        :class:`StorageError` and leaves the page as it was, so memory
        never holds a page the file does not.
        """
        descriptor = self._descriptor
        if descriptor is None:
            raise StorageError(f"{self.name}: write to closed page store")
        self._check_write(address, data)
        data = bytes(data)
        slot = len(data).to_bytes(_SLOT_HEADER, "big") + data
        try:
            written = os.pwrite(descriptor, slot, address * self._slot_size)
            if self.fsync:
                os.fsync(descriptor)
        except OSError as exc:
            raise StorageError(
                f"{self.name}: page {address} not written: {exc}") from exc
        if written != len(slot):
            raise StorageError(f"{self.name}: page {address} not written: "
                               f"{written} of {len(slot)} bytes")
        self.writes += 1
        self._pages[address] = data

    def close(self) -> None:
        self._descriptor = None
        if not self._file.closed:
            self._file.close()


def make_stable_store(directory: str, num_pages: int,
                      page_size: int = 512, name: str = "disk",
                      fsync: bool = False) -> Tuple[StableStore, bool]:
    """A file-backed stable store under ``directory``.

    Returns ``(store, fresh)`` where ``fresh`` says whether the backing
    files were just created (format the file system) or already existed
    (mount it, running recovery).
    """
    os.makedirs(directory, exist_ok=True)
    primary_path = os.path.join(directory, "primary.pages")
    shadow_path = os.path.join(directory, "shadow.pages")
    fresh = not (os.path.exists(primary_path)
                 and os.path.exists(shadow_path))
    primary = FilePageStore(primary_path, num_pages, page_size,
                            name=f"{name}.primary", fsync=fsync)
    shadow = FilePageStore(shadow_path, num_pages, page_size,
                           name=f"{name}.shadow", fsync=fsync)
    return StableStore(CarefulStore(primary), CarefulStore(shadow)), fresh


class LiveStorageServer:
    """One representative served over TCP with an on-disk directory.

    Pass ``data_dir=None`` for a memory-backed server (tests,
    benchmarks); with a directory, page state persists and a re-created
    server on the same directory mounts instead of formatting —
    replaying transaction records just as a simulated restart would.
    """

    def __init__(self, name: str, data_dir: Optional[str] = None,
                 num_pages: int = 4096, page_size: int = 512,
                 lock_timeout: Optional[float] = 5_000.0,
                 idle_abort_after: Optional[float] = 60_000.0,
                 fsync: bool = False,
                 obs: bool = True,
                 loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        self.name = name
        self.data_dir = data_dir
        self.kernel = LiveKernel(loop=loop)
        self.metrics = MetricsRegistry()
        #: Server-side spans (rpc.* handlers) carry the trace context the
        #: coordinator put on the wire, so a scrape of every process's
        #: span export stitches into one tree per client operation.
        self.collector = TraceCollector(clock=lambda: self.kernel.now,
                                        origin=name, enabled=obs)
        self.host = LiveHost(self.kernel, name)
        self.transport = self.host.transport
        stable = None
        fresh = True
        if data_dir is not None:
            stable, fresh = make_stable_store(
                data_dir, num_pages, page_size, name=name, fsync=fsync)
        node = ServerNode.build(
            self.kernel, self.host, num_pages=num_pages,
            page_size=page_size, stable=stable, format_fs=fresh,
            lock_timeout=lock_timeout, idle_abort_after=idle_abort_after,
            collector=self.collector, metrics=self.metrics,
            max_stat_bytes=STAT_DATA_CEILING)
        self.server, self.endpoint, self.participant = \
            node.server, node.endpoint, node.participant
        self.obs_httpd = ObsHttpServer({
            "/metrics": self._render_metrics,
            "/healthz": self._render_healthz,
            "/trace": self._render_trace,
        })
        self.obs_address: Optional[Tuple[str, int]] = None

    # -- observability endpoints -------------------------------------------

    def _render_metrics(self) -> Tuple[str, str]:
        # Ring-buffer accounting rides along as ad-hoc gauges: a trace
        # scrape that silently lost spans must be detectable, and they
        # keep the exposition non-empty on a daemon yet to serve a call.
        extra = {"obs.spans_buffered": float(len(self.collector.ring)),
                 "obs.spans_dropped": float(self.collector.dropped),
                 "server.up": 1.0 if self.host.up else 0.0}
        # Transport counters mirror the wire: frames are what crossed
        # (or failed to cross) a socket, batches/messages_batched show
        # how well quorum fan-outs coalesce per destination.
        transport = self.transport
        extra.update({
            "transport.frames_sent": float(transport.frames_sent),
            "transport.frames_received": float(transport.frames_received),
            "transport.frames_dropped": float(transport.frames_dropped),
            "transport.frames_delayed": float(transport.frames_delayed),
            "transport.frames_duplicated":
                float(transport.frames_duplicated),
            "transport.batches_sent": float(transport.batches_sent),
            "transport.batches_received":
                float(transport.batches_received),
            "transport.messages_batched":
                float(transport.messages_batched),
        })
        return prom.CONTENT_TYPE, prom.render_registry(self.metrics,
                                                       extra=extra)

    def _render_healthz(self) -> Tuple[str, str]:
        body = json.dumps({
            "status": "ok" if self.host.up else "down",
            "server": self.name,
            "up": self.host.up,
            "commits": self.participant.commits,
            "aborts": self.participant.aborts,
            "idle_aborts": self.participant.idle_aborts,
            "in_doubt": [str(txn_id)
                         for txn_id in self.participant.in_doubt()],
            "recoveries": self.server.recoveries,
        })
        return "application/json", body

    def _render_trace(self) -> Tuple[str, str]:
        return "application/x-ndjson", dumps_jsonl(self.collector.spans())

    @property
    def address(self) -> Optional[Tuple[str, int]]:
        return self.transport.address

    async def start(self, host: str = "127.0.0.1", port: int = 0,
                    obs_port: Optional[int] = 0) -> Tuple[str, int]:
        """Listen for client connections; returns the bound address.

        ``obs_port`` picks the port of the sidecar HTTP server exposing
        ``/metrics``, ``/healthz`` and ``/trace`` (0 = ephemeral); pass
        ``None`` to run without one.
        """
        address = await self.transport.listen(host, port)
        if obs_port is not None and self.obs_address is None:
            self.obs_address = await self.obs_httpd.start(host, obs_port)
        return address

    async def stop(self) -> None:
        """Stop serving: close the listener and crash the host.

        The crash mirrors sim semantics — volatile state (locks,
        unprepared scratch) is dropped; stable state stays on disk.
        The observability sidecar keeps answering: a crashed server's
        /healthz reporting ``down`` is exactly what a prober wants.
        """
        await self.transport.stop_listening()
        self.host.crash()

    async def restart(self) -> Tuple[str, int]:
        """Bring a stopped server back on its previous address.

        Recovery ordering is the contract here: ``host.restart()``
        synchronously remounts the file system and fires the restart
        listeners — :meth:`TransactionParticipant.recover` re-adopts
        prepared records as in-doubt and re-acquires their locks —
        *before* the listener reopens, so no request can observe the
        half-recovered state.  Idempotent: restarting a running server
        only re-opens its listener if needed.
        """
        if not self.host.up:
            recoveries_before = self.server.recoveries
            self.host.restart()
            # host.restart() must have driven the recovery chain
            # (remount + record replay) before we accept connections.
            assert self.server.recoveries == recoveries_before + 1, \
                "restart did not run recovery before re-listening"
        host, port = self.transport.address or ("127.0.0.1", 0)
        if self.transport.listening:
            return host, port
        return await self.transport.listen(host, port)

    async def close(self) -> None:
        """Release sockets and page files; the server ends up crashed."""
        await self.obs_httpd.stop()
        self.obs_address = None
        await self.transport.close()
        # Crash before the page files go away: handlers still running
        # (a prepare or commit mid-update) die with the host, as they
        # would in stop(), instead of writing to closed files.
        self.host.crash()
        for careful in (self.server.stable.primary,
                        self.server.stable.shadow):
            pages = careful.pages
            if isinstance(pages, FilePageStore):
                pages.close()

    async def serve_forever(self) -> None:
        """Block until cancelled (the daemon entry point)."""
        await asyncio.Event().wait()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.host.up else "DOWN"
        return f"<LiveStorageServer {self.name} {state} @ {self.address}>"
