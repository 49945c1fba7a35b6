"""Stand up a whole sharded cluster in one call, sim or live.

The harness is the cluster-scale counterpart of
:class:`~repro.testbed.Testbed` / :class:`~repro.live.harness.LoopbackCluster`:
given a :class:`ClusterSpec` it builds the fleet, installs ``K``
directory shard suites, creates ``M`` data suites where the placement
ring says they belong, and binds every one in the sharded namespace.
The bootstrap and join procedures are plain protocol generators —
the same code runs on the simulated kernel (deterministic, virtual
time) and the live asyncio kernel (real TCP daemons), which is the
whole repository's party trick.

A **server join** is the production resize operation: add the server
to the fleet and the ring, diff the placement maps, and move exactly
the affected suites by running the paper's reconfiguration (a write
under the *old* quorums that installs the new member set) followed by
a directory re-bind so brand-new clients bootstrap straight to the new
layout.  Clients that hold the old entry keep working and adopt the
new configuration through the stamp check on first contact — the
staleness-repair story is per shard exactly what it was for one suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Dict, Generator, List,
                    Optional, Tuple)

from ..core.reconfig import change_configuration
from ..core.suite import FileSuiteClient, install_suite
from ..directory.service import SuiteDirectory, empty_directory_data
from ..txn.coordinator import TransactionManager
from .namespace import ShardedNamespace, shard_configurations
from .placement import (DEFAULT_VNODES, PlacementRing, RebalancePlan,
                        plan_rebalance)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..testbed import Testbed


@dataclass(frozen=True)
class ClusterSpec:
    """Shape of a sharded deployment; everything derives from this."""

    servers: int = 4
    suites: int = 16
    directory_shards: int = 2
    replication: int = 3
    vnodes: int = DEFAULT_VNODES
    seed: int = 0
    #: Directory shards default to read-any / write-all (see
    #: :func:`~repro.cluster.namespace.shard_configurations`); override
    #: for balanced quorums on flakier fleets.
    directory_read_quorum: Optional[int] = None
    directory_write_quorum: Optional[int] = None
    server_prefix: str = "n"
    suite_prefix: str = "app"

    def __post_init__(self) -> None:
        if self.servers < self.replication:
            raise ValueError(
                f"{self.servers} server(s) cannot hold replication "
                f"degree {self.replication}")
        if self.directory_shards < 1:
            raise ValueError("need at least one directory shard")
        if self.suites < 1:
            raise ValueError("need at least one suite")

    @property
    def server_names(self) -> List[str]:
        return [f"{self.server_prefix}{i + 1}"
                for i in range(self.servers)]

    @property
    def suite_names(self) -> List[str]:
        return [f"{self.suite_prefix}-{i:03d}"
                for i in range(self.suites)]

    def ring(self) -> PlacementRing:
        return PlacementRing(self.server_names,
                             replication=self.replication,
                             vnodes=self.vnodes, seed=self.seed)

    def initial_data(self, suite_name: str) -> bytes:
        return f"{suite_name}:v1".encode()


@dataclass
class ClusterState:
    """A running cluster's client-side view, runtime-agnostic."""

    spec: ClusterSpec
    ring: PlacementRing
    manager: TransactionManager
    suite_factory: Callable[..., FileSuiteClient]
    namespace: Optional[ShardedNamespace] = None
    #: Warm handles for every data suite, keyed by suite name.  Cold
    #: opens go through the namespace; the workload drivers reuse these.
    handles: Dict[str, FileSuiteClient] = field(default_factory=dict)
    #: The layout the namespace currently reflects, for rebalance diffs.
    placement: Dict[str, Tuple[str, ...]] = field(default_factory=dict)


def bootstrap_cluster(state: ClusterState,
                      suite_kwargs: Optional[Dict[str, Any]] = None,
                      ) -> Generator[Any, Any, ShardedNamespace]:
    """Install shards and suites; returns the routed namespace.

    Runs on either kernel: ``Testbed.run`` or ``LiveRuntime.run``.
    """
    spec = state.spec
    kwargs = dict(suite_kwargs or {})

    shards: List[SuiteDirectory] = []
    for config in shard_configurations(
            state.ring, spec.directory_shards,
            read_quorum=spec.directory_read_quorum,
            write_quorum=spec.directory_write_quorum):
        yield from install_suite(state.manager, config,
                                 empty_directory_data())
        shards.append(SuiteDirectory(state.suite_factory(config)))
    namespace = ShardedNamespace(shards, seed=spec.seed)

    for name in spec.suite_names:
        config = state.ring.configuration_for(name)
        yield from install_suite(state.manager, config,
                                 spec.initial_data(name))
        yield from namespace.bind(config)
        state.handles[name] = state.suite_factory(config, **kwargs)

    state.namespace = namespace
    state.placement = state.ring.placement_map(spec.suite_names)
    return namespace


def join_server(state: ClusterState, server: str,
                ) -> Generator[Any, Any, RebalancePlan]:
    """Rebalance onto ``server`` (already added to fleet *and* ring).

    For every suite the ring now places differently: reconfigure it to
    the new member set under the old configuration's quorums (data
    moves to the new server inside that transaction), then re-bind the
    installed configuration so new clients bootstrap directly to it.
    Existing handles adopt via the stamp check; the handle used here
    adopts immediately.
    """
    assert state.namespace is not None, "cluster not bootstrapped"
    before = state.placement
    after = state.ring.placement_map(state.spec.suite_names)
    plan = plan_rebalance(before, after)
    for suite_name in sorted(plan.moves):
        handle = state.handles.get(suite_name)
        if handle is None:
            handle = yield from state.namespace.open_suite(suite_name)
            state.handles[suite_name] = handle
        target = state.ring.configuration_for(suite_name)
        installed = yield from change_configuration(handle, target)
        yield from state.namespace.bind(installed)
    state.placement = after
    return plan


class _ClusterViews:
    """What either deployment reads off its :class:`ClusterState`."""

    spec: ClusterSpec
    state: Optional[ClusterState]

    @property
    def _started(self) -> ClusterState:
        assert self.state is not None, "cluster not started"
        return self.state

    @property
    def ring(self) -> PlacementRing:
        return self._started.ring

    @property
    def namespace(self) -> ShardedNamespace:
        namespace = self._started.namespace
        assert namespace is not None, "call start() first"
        return namespace

    @property
    def handles(self) -> Dict[str, FileSuiteClient]:
        return self._started.handles

    def placement_table(self) -> List[Tuple[str, int]]:
        """(server, suites hosted) rows, sorted by server name."""
        load = self.ring.load_distribution(self.spec.suite_names)
        return sorted(load.items())


# ---------------------------------------------------------------------------
# Simulated deployment
# ---------------------------------------------------------------------------

class SimCluster(_ClusterViews):
    """A sharded multi-suite deployment on the simulated testbed.

    Obs and chaos ride through unchanged: ``obs=True`` reaches the
    underlying :class:`Testbed`, and a
    :class:`~repro.chaos.policy.ChaosPolicy` assigned to
    ``cluster.bed.network.chaos`` applies to every link.
    """

    def __init__(self, spec: ClusterSpec,
                 suite_kwargs: Optional[Dict[str, Any]] = None,
                 **testbed_kwargs: Any) -> None:
        from ..testbed import Testbed

        self.spec = spec
        testbed_kwargs.setdefault("seed", spec.seed)
        self.bed: "Testbed" = Testbed(spec.server_names,
                                      **testbed_kwargs)
        self.state = ClusterState(
            spec=spec, ring=spec.ring(),
            manager=self.bed.clients["client"].manager,
            suite_factory=self.bed.suite)
        self._suite_kwargs = suite_kwargs

    def start(self) -> "SimCluster":
        self.bed.run(bootstrap_cluster(self.state, self._suite_kwargs))
        return self

    # -- convenience -------------------------------------------------------

    def open(self, suite_name: str, **kwargs: Any) -> FileSuiteClient:
        """Cold-open one suite through the directory tier."""
        return self.bed.run(self.namespace.open_suite(suite_name,
                                                      **kwargs))

    def join_server(self, server: str,
                    **server_kwargs: Any) -> RebalancePlan:
        """Add a storage server and rebalance the namespace onto it."""
        self.bed.add_server(server, **server_kwargs)
        self.ring.add_server(server)
        return self.bed.run(join_server(self.state, server))

    def fleet_view(self):
        """Merged metrics view of the whole simulated fleet.

        Snapshots the shared testbed registry through the same
        exposition/parse pipeline the live scraper uses, so every
        aggregate query answers identically on both runtimes.
        """
        from ..obs.aggregate import snapshot_sim_cluster
        return snapshot_sim_cluster(self)


# ---------------------------------------------------------------------------
# Live deployment (real TCP daemons)
# ---------------------------------------------------------------------------

class LiveCluster(_ClusterViews):
    """The same sharded deployment over live loopback daemons.

    Wraps a :class:`~repro.live.harness.LoopbackCluster` (one asyncio
    process per role boundary crossed by real sockets) and runs the
    identical bootstrap/join generators on the live kernel.
    """

    def __init__(self, spec: ClusterSpec,
                 suite_kwargs: Optional[Dict[str, Any]] = None,
                 **cluster_kwargs: Any) -> None:
        from ..live.harness import LoopbackCluster

        self.spec = spec
        cluster_kwargs.setdefault("seed", spec.seed)
        self.loopback = LoopbackCluster(spec.server_names,
                                        **cluster_kwargs)
        self._suite_kwargs = suite_kwargs
        self.state: Optional[ClusterState] = None

    async def start(self) -> "LiveCluster":
        await self.loopback.start()
        assert self.loopback.client is not None
        self.state = ClusterState(
            spec=self.spec, ring=self.spec.ring(),
            manager=self.loopback.client.manager,
            suite_factory=self.loopback.suite)
        await self.loopback.run(
            bootstrap_cluster(self.state, self._suite_kwargs))
        return self

    async def close(self) -> None:
        await self.loopback.close()

    async def __aenter__(self) -> "LiveCluster":
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # -- convenience -------------------------------------------------------

    async def open(self, suite_name: str,
                   **kwargs: Any) -> FileSuiteClient:
        return await self.loopback.run(
            self.namespace.open_suite(suite_name, **kwargs))

    async def join_server(self, server: str) -> RebalancePlan:
        """Boot one more live daemon and rebalance onto it."""
        assert self.state is not None, "cluster not started"
        await self.loopback.add_server(server)
        self.ring.add_server(server)
        return await self.loopback.run(join_server(self.state, server))

    def obs_addresses(self) -> Dict[str, Tuple[str, int]]:
        """Each live daemon's obs sidecar address (empty without obs)."""
        return self.loopback.obs_addresses()

    def write_obs_manifest(self, path: str) -> Dict[str, Tuple[str, int]]:
        """Persist the fleet's obs addresses for the CLI's ``--cluster``.

        Obs ports are ephemeral (bound to port 0 at daemon start), so
        out-of-process tools — ``repro top``, ``repro metrics
        --cluster`` — discover the fleet from this manifest file.
        """
        from ..obs.aggregate import write_obs_manifest
        addresses = self.obs_addresses()
        write_obs_manifest(addresses, path)
        return addresses

    async def fleet_view(self):
        """Merged metrics view scraped from every live daemon."""
        from ..obs.aggregate import scrape_fleet
        return await scrape_fleet(self.obs_addresses())
