"""In-process loopback cluster: N live servers + a client, one loop.

The live counterpart of :class:`~repro.testbed.Testbed`: boots storage
servers on ephemeral loopback TCP ports, wires a client runtime to
them, and exposes the same install/read/write/crash surface — but every
call crosses real sockets in wall-clock time.  Used by the parity
tests, the ``bench/`` workloads and the ``live-demo`` and ``perf
profile`` CLIs.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from ..core.suite import FileSuiteClient
from ..core.votes import SuiteConfiguration
from ..obs.collector import JsonlSink, dump_jsonl
from ..obs.spans import Span
from .runtime import LiveRuntime
from .server import LiveStorageServer


class LoopbackCluster:
    """Boot N live storage servers plus a client on 127.0.0.1.

    Async context manager::

        async with LoopbackCluster(["s1", "s2", "s3"]) as cluster:
            suite = await cluster.install(config, b"v1")
            print(await cluster.read(suite))
    """

    def __init__(self, servers: Sequence[str],
                 client_name: str = "client",
                 call_timeout: float = 2_000.0,
                 transport_attempts: int = 3,
                 num_pages: int = 4096,
                 page_size: int = 512,
                 data_root: Optional[str] = None,
                 seed: int = 0,
                 obs: bool = True,
                 chaos: Optional[Any] = None,
                 lock_timeout: Optional[float] = 5_000.0,
                 idle_abort_after: Optional[float] = 60_000.0,
                 flight: Optional[Any] = None) -> None:
        self._server_names = list(servers)
        self._obs = obs
        self._data_root = data_root
        self._server_options = dict(
            num_pages=num_pages, page_size=page_size, obs=obs,
            lock_timeout=lock_timeout, idle_abort_after=idle_abort_after)
        self._client_options = dict(
            name=client_name, call_timeout=call_timeout,
            transport_attempts=transport_attempts, seed=seed, obs=obs)
        #: Optional :class:`~repro.chaos.policy.ChaosPolicy` interposed
        #: on every transport (client and servers): one object decides
        #: per-link drops, delays, duplicates and partitions.
        self.chaos = chaos
        #: Optional :class:`~repro.obs.flight.FlightRecorder`, handed
        #: to the client runtime at :meth:`start` (the client is the
        #: coordinator — it owns every journaled decision point).
        self.flight = flight
        self.servers: Dict[str, LiveStorageServer] = {}
        self.client: Optional[LiveRuntime] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "LoopbackCluster":
        self.client = LiveRuntime(**self._client_options,
                                  flight=self.flight)
        self.client.transport.chaos = self.chaos
        for name in self._server_names:
            await self.add_server(name)
        return self

    async def close(self) -> None:
        if self.client is not None:
            await self.client.close()
        for server in self.servers.values():
            await server.close()

    async def __aenter__(self) -> "LoopbackCluster":
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    async def add_server(self, name: str) -> Tuple[str, int]:
        """Boot one more storage daemon into the cluster.

        :meth:`start` boots every server through here; later calls are
        the cluster-scale join operation.  Every server gets the same
        page/lock/chaos wiring, and the client transport learns its
        address at once.  Returns the new daemon's listening address.
        """
        if name in self.servers:
            raise ValueError(f"server {name!r} already in the cluster")
        data_dir = (f"{self._data_root}/{name}"
                    if self._data_root is not None else None)
        server = LiveStorageServer(name, data_dir=data_dir,
                                   **self._server_options)
        server.transport.chaos = self.chaos
        await server.start(obs_port=0 if self._obs else None)
        self.servers[name] = server
        host, port = server.address  # type: ignore[misc]
        if self.client is not None:
            self.client.register_server(name, host, port)
        return host, port

    # -- failure injection -------------------------------------------------

    async def stop_server(self, name: str) -> None:
        """Take one representative offline (listener closed, host down)."""
        await self.servers[name].stop()

    async def restart_server(self, name: str) -> Tuple[str, int]:
        """Bring a stopped representative back on its old port."""
        return await self.servers[name].restart()

    # -- observability -----------------------------------------------------

    def obs_addresses(self) -> Dict[str, Tuple[str, int]]:
        """Each server's ``/metrics``-``/healthz``-``/trace`` address."""
        return {name: server.obs_address
                for name, server in self.servers.items()
                if server.obs_address is not None}

    def merged_spans(self) -> List[Span]:
        """Client + server spans in one list, ordered by start time.

        Every process collects its own spans; merging the per-process
        buffers is what stitches a quorum operation's trace — the
        coordinator's client spans and each participant's server spans
        share a trace id via the context carried in the RPC requests.
        """
        spans: List[Span] = []
        if self.client is not None:
            spans.extend(self.client.collector.spans())
        for server in self.servers.values():
            spans.extend(server.collector.spans())
        spans.sort(key=lambda span: (span.start, span.trace_id,
                                     span.span_id))
        return spans

    def export_trace_jsonl(self, path: str,
                           max_bytes: Optional[int] = None,
                           keep: int = 4) -> int:
        """Dump the merged cluster trace to ``path``; returns span count.

        With ``max_bytes`` the export goes through a size-rotated
        :class:`~repro.obs.collector.JsonlSink` (``path.1`` holds the
        generation before ``path``, and so on, ``keep`` files total),
        so arbitrarily long soaks leave a bounded artifact."""
        spans = self.merged_spans()
        if max_bytes is None:
            with open(path, "w", encoding="utf-8") as handle:
                dump_jsonl(spans, handle)
            return len(spans)
        open(path, "w", encoding="utf-8").close()  # fresh export
        with JsonlSink(path, max_bytes=max_bytes, keep=keep) as sink:
            for span in spans:
                sink.emit(span)
        return len(spans)

    # -- protocol shortcuts ------------------------------------------------

    def run(self, generator: Generator) -> "asyncio.Future[Any]":
        assert self.client is not None, "cluster not started"
        return self.client.run(generator)

    def suite(self, config: SuiteConfiguration,
              **kwargs: Any) -> FileSuiteClient:
        assert self.client is not None, "cluster not started"
        return self.client.suite(config, **kwargs)

    async def install(self, config: SuiteConfiguration,
                      initial_data: bytes = b"",
                      **kwargs: Any) -> FileSuiteClient:
        assert self.client is not None, "cluster not started"
        return await self.client.install(config, initial_data, **kwargs)

    async def read(self, suite: FileSuiteClient):
        return await self.run(suite.read())

    async def write(self, suite: FileSuiteClient, data: bytes):
        return await self.run(suite.write(data))
