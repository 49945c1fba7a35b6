"""Node assembly, and one-call construction of a simulated deployment.

:meth:`ServerNode.build` assembles a representative (stable storage,
RPC endpoint, two-phase-commit participant) and :meth:`ClientNode.build`
a client (RPC endpoint, transaction manager, background refresher) for
the testbed, the live daemon and the live client alike: only the
kernel, the host and a few arguments differ between runtimes.

A :class:`Testbed` is the whole simulated stack for a set of storage
servers and client hosts: simulator, network, those nodes and metrics.
Tests, examples and benchmarks all build on it, so a deployment is
three lines::

    bed = Testbed(servers=["s1", "s2", "s3"])
    suite = bed.install(make_configuration("db", [("s1", 1), ("s2", 1),
                                                  ("s3", 1)], 2, 2))
    result = bed.run(suite.read())

:func:`example_testbed` builds the deployment for one of the paper's
three examples, with link bandwidths tuned so transferring the suite's
data to/from representative *i* costs the example's per-representative
latency, while version inquiries stay cheap — the cost model under the
paper's table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Iterable, Optional, Sequence

from .chaos.health import HealthTracker
from .chaos.policy import ChaosPolicy
from .core.examples import LATENCIES, example_configuration
from .core.refresh import BackgroundRefresher
from .core.suite import FileSuiteClient, install_suite
from .core.votes import SuiteConfiguration
from .obs.collector import TraceCollector
from .rpc.endpoint import RpcEndpoint
from .sim.distributions import Distribution
from .sim.metrics import MetricsRegistry
from .sim.network import Host, Network
from .sim.rng import RandomStreams
from .sim.simulator import Simulator
from .storage.server import StorageServer
from .storage.stable import StableStore
from .txn.coordinator import TransactionManager
from .txn.participant import TransactionParticipant


@dataclass
class ServerNode:
    """Everything running on one storage host."""

    host: Host
    server: StorageServer
    endpoint: RpcEndpoint
    participant: TransactionParticipant

    @classmethod
    def build(cls, kernel: Simulator, host: Host, *,
              num_pages: int = 4096, page_size: int = 512,
              page_io_time: float = 0.0,
              stable: Optional[StableStore] = None,
              format_fs: bool = True,
              lock_timeout: Optional[float] = 5_000.0,
              idle_abort_after: Optional[float] = 60_000.0,
              collector: Optional[TraceCollector] = None,
              metrics: Optional[MetricsRegistry] = None,
              max_stat_bytes: Optional[int] = None) -> "ServerNode":
        """Storage, RPC endpoint, then 2PC participant on ``host``.
        ``format_fs=False`` mounts ``stable`` instead of formatting it,
        and the participant recovers what it holds prepared."""
        server = StorageServer(kernel, host, num_pages=num_pages,
                               page_size=page_size, page_io_time=page_io_time,
                               stable=stable, format_fs=format_fs)
        endpoint = RpcEndpoint(kernel, host, collector=collector,
                               metrics=metrics)
        participant = TransactionParticipant(
            server, lock_timeout=lock_timeout,
            idle_abort_after=idle_abort_after, max_stat_bytes=max_stat_bytes)
        participant.register_handlers(endpoint)
        if not format_fs:
            participant.recover()
        return cls(host, server, endpoint, participant)


@dataclass
class ClientNode:
    """Everything running on one client host."""

    host: Host
    endpoint: RpcEndpoint
    manager: TransactionManager
    refresher: BackgroundRefresher

    @classmethod
    def build(cls, kernel: Simulator, host: Host, *,
              collector: Optional[TraceCollector] = None,
              metrics: Optional[MetricsRegistry] = None,
              breakers: bool = False,
              call_timeout: float = 2_000.0,
              transport_attempts: int = 3,
              streams: Optional[RandomStreams] = None,
              refresh_delay: float = 0.0,
              refresh_enabled: bool = True) -> "ClientNode":
        """Assemble one client on ``host``: RPC endpoint (with a
        :class:`HealthTracker` when ``breakers``), transaction manager,
        background refresher."""
        health = (HealthTracker(clock=lambda: kernel.now, metrics=metrics)
                  if breakers else None)
        endpoint = RpcEndpoint(kernel, host, collector=collector,
                               metrics=metrics, health=health)
        manager = TransactionManager(
            kernel, endpoint, call_timeout=call_timeout,
            transport_attempts=transport_attempts, streams=streams)
        refresher = BackgroundRefresher(manager, delay=refresh_delay,
                                        enabled=refresh_enabled)
        return cls(host, endpoint, manager, refresher)


class Testbed:
    """A fully wired simulated deployment."""

    #: Not a pytest test class, despite the name.
    __test__ = False

    def __init__(self, servers: Sequence[str],
                 clients: Sequence[str] = ("client",),
                 seed: int = 0,
                 default_latency: "Distribution | float" = 1.0,
                 page_io_time: float = 0.0,
                 num_pages: int = 4096,
                 page_size: int = 512,
                 lock_timeout: Optional[float] = 5_000.0,
                 idle_abort_after: Optional[float] = 60_000.0,
                 call_timeout: float = 2_000.0,
                 refresh_delay: float = 0.0,
                 refresh_enabled: bool = True,
                 obs: bool = False,
                 breakers: bool = False) -> None:
        self.sim = Simulator()
        self.streams = RandomStreams(seed=seed)
        self.network = Network(self.sim, self.streams,
                               default_latency=default_latency)
        self.metrics = MetricsRegistry()
        #: Causal tracing (``obs=True``).  Deliberately opt-in: trace
        #: context rides inside RPC requests, whose encoded body length
        #: feeds the latency model — enabling it perturbs simulated
        #: timings, which paper-comparison runs must not pay silently.
        #: The whole testbed shares one collector (it is one process),
        #: so client and server spans land stitched in one buffer.
        self.collector = TraceCollector(clock=lambda: self.sim.now,
                                        origin="sim", enabled=obs)
        self.call_timeout = call_timeout
        #: Clients get circuit breakers (``breakers=True``): a
        #: :class:`~repro.chaos.health.HealthTracker` on each client
        #: endpoint, which every suite handle reads.
        self.breakers = breakers
        self.servers: Dict[str, ServerNode] = {}
        self.clients: Dict[str, ClientNode] = {}
        for name in servers:
            self.add_server(name, page_io_time=page_io_time,
                            num_pages=num_pages, page_size=page_size,
                            lock_timeout=lock_timeout,
                            idle_abort_after=idle_abort_after)
        for name in clients:
            self.add_client(name, refresh_delay=refresh_delay,
                            refresh_enabled=refresh_enabled)

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------

    def add_server(self, name: str, page_io_time: float = 0.0,
                   num_pages: int = 4096, page_size: int = 512,
                   lock_timeout: Optional[float] = 5_000.0,
                   idle_abort_after: Optional[float] = 60_000.0,
                   ) -> ServerNode:
        node = ServerNode.build(
            self.sim, self.network.add_host(name), num_pages=num_pages,
            page_size=page_size, page_io_time=page_io_time,
            lock_timeout=lock_timeout, idle_abort_after=idle_abort_after,
            collector=self.collector, metrics=self.metrics)
        self.servers[name] = node
        return node

    def add_client(self, name: str, refresh_delay: float = 0.0,
                   refresh_enabled: bool = True) -> ClientNode:
        node = ClientNode.build(
            self.sim, self.network.add_host(name), collector=self.collector,
            metrics=self.metrics, breakers=self.breakers,
            call_timeout=self.call_timeout,
            streams=self.streams, refresh_delay=refresh_delay,
            refresh_enabled=refresh_enabled)
        self.clients[name] = node
        return node

    # ------------------------------------------------------------------
    # Suites
    # ------------------------------------------------------------------

    def suite(self, config: SuiteConfiguration, client: str = "client",
              **kwargs: Any) -> FileSuiteClient:
        """A suite client handle bound to ``client``'s transaction manager.

        The handle reads the client's metrics, tracer, breakers, flight
        recorder and streams from that manager; attach a recorder to the
        manager before building handles.
        """
        node = self.clients[client]
        kwargs.setdefault("refresher", node.refresher)
        return FileSuiteClient(node.manager, config, **kwargs)

    def install(self, config: SuiteConfiguration, initial_data: bytes = b"",
                client: str = "client", **kwargs: Any) -> FileSuiteClient:
        """Create the suite on its servers and return a client handle."""
        handle = self.suite(config, client=client, **kwargs)
        self.run(install_suite(self.clients[client].manager, config,
                               initial_data))
        return handle

    # ------------------------------------------------------------------
    # Execution and failure injection
    # ------------------------------------------------------------------

    def run(self, process: Generator, limit: Optional[float] = None) -> Any:
        """Spawn ``process`` and run the simulation until it finishes."""
        return self.sim.run_process(process, limit=limit)

    def settle(self, grace: float = 10_000.0) -> None:
        """Let background work (refreshers, retries) run to quiescence."""
        self.sim.run(until=self.sim.now + grace)

    def crash(self, server: str) -> None:
        self.network.host(server).crash()

    def restart(self, server: str) -> None:
        self.network.host(server).restart()

    def partition(self, groups: Iterable[Iterable[str]]) -> None:
        """Split the hosts into isolated groups (unlisted hosts join
        group 0) through the network's chaos policy — attaching a
        fault-free one on first use."""
        groups = [list(group) for group in groups]
        for group in groups:
            for name in group:
                self.network.host(name)  # unknown hosts raise KeyError
        if self.network.chaos is None:
            self.network.chaos = ChaosPolicy(streams=self.streams)
        self.network.chaos.partition(groups)

    def heal(self) -> None:
        """Remove the partition, if any."""
        if self.network.chaos is not None:
            self.network.chaos.heal()

    def set_client_link(self, client: str, server: str,
                        latency: "Distribution | float",
                        byte_time: float = 0.0) -> None:
        """Configure the client↔server link (latency and bandwidth)."""
        self.network.set_latency(client, server, latency)
        if byte_time > 0.0:
            self.network.set_byte_time(client, server, byte_time)


#: Size of the suite data used by the example testbeds; link bandwidths
#: are derived from it so one data transfer costs the paper's latency.
EXAMPLE_DATA_SIZE = 8_192

#: Base one-way message latency in the example testbeds (ms).
EXAMPLE_BASE_LATENCY = 1.0


def example_data(fill: bytes = b"v") -> bytes:
    """A data blob of the size the example link model assumes."""
    return fill * EXAMPLE_DATA_SIZE


def example_testbed(number: int, seed: int = 0,
                    clients: Sequence[str] = ("client",),
                    **kwargs: Any) -> "tuple[Testbed, SuiteConfiguration]":
    """Build the deployment for the paper's example ``number``.

    Per-representative latency L_i is realised as: one-way message
    latency of 1 ms plus a per-byte transfer time such that moving the
    suite's data across the client↔server-i link costs ``L_i - 2`` ms.
    A version-number inquiry therefore costs ≈2 ms round trip while a
    data read costs ≈``L_i`` — matching the cost model the paper's
    table assumes.
    """
    config = example_configuration(number)
    servers = [rep.server for rep in config.representatives]
    bed = Testbed(servers=servers, clients=clients, seed=seed,
                  default_latency=EXAMPLE_BASE_LATENCY, **kwargs)
    latencies = LATENCIES[number]
    for client in clients:
        for rep, latency in zip(config.representatives, latencies):
            transfer_budget = latency - 2.0 * EXAMPLE_BASE_LATENCY
            bed.set_client_link(
                client, rep.server, EXAMPLE_BASE_LATENCY,
                byte_time=transfer_budget / EXAMPLE_DATA_SIZE)
    return bed, config
