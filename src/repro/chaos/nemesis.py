"""Nemesis: scheduled crash / restart / partition scripts.

A :class:`NemesisScript` is a plain, runtime-agnostic list of timed
steps.  Scripts come from three places:

* hand-written, for targeted scenarios (the crash-mid-2PC tests);
* :func:`random_nemesis` — a seeded random schedule that respects a
  *disruption budget* (never more representatives simultaneously
  crashed or cut off than the quorum can tolerate), so a soak under it
  is expected to make progress;
* :func:`markov_nemesis` — per-server alternating exponential up/down
  periods, pre-sampled into a script so the identical failure timeline
  can be replayed on either runtime.

Because the steps are data, the *same script* drives the simulator
(:func:`schedule_on_sim` via :class:`TestbedAdapter`) and a live
loopback cluster (:func:`run_live_nemesis` via
:class:`LiveClusterAdapter`).  Partitions are applied to the shared
:class:`~repro.chaos.policy.ChaosPolicy`, never to runtime-specific
machinery, which is what keeps the two executions equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Iterable, List, Optional, Sequence,
                    Tuple)

from ..sim.rng import RandomStreams
from .policy import ChaosPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..live.harness import LoopbackCluster
    from ..testbed import Testbed

#: Valid :attr:`NemesisStep.action` values.
ACTIONS = ("crash", "restart", "partition", "heal")


@dataclass(frozen=True)
class NemesisStep:
    """One timed action.  ``at`` is in runtime-clock ms."""

    at: float
    action: str
    targets: Tuple[str, ...] = ()          # crash / restart
    groups: Tuple[Tuple[str, ...], ...] = ()   # partition

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(f"unknown nemesis action {self.action!r}")

    def describe(self) -> str:
        if self.action == "partition":
            sides = " | ".join("{" + ",".join(group) + "}"
                               for group in self.groups)
            return f"t={self.at:.0f}ms partition {sides}"
        target = " " + ",".join(self.targets) if self.targets else ""
        return f"t={self.at:.0f}ms {self.action}{target}"


@dataclass
class NemesisScript:
    """Timed steps (kept sorted) plus the horizon they end by."""

    steps: List[NemesisStep] = field(default_factory=list)
    horizon: float = 0.0

    def __post_init__(self) -> None:
        self.steps.sort(key=lambda step: step.at)
        if self.steps:
            self.horizon = max(self.horizon, self.steps[-1].at)

    def __iter__(self):
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def describe(self) -> str:
        return "\n".join(step.describe() for step in self.steps)


# ---------------------------------------------------------------------------
# Script generators
# ---------------------------------------------------------------------------

def random_nemesis(servers: Sequence[str], seed: int = 0,
                   horizon: float = 30_000.0,
                   mean_interval: float = 1_500.0,
                   max_down: Optional[int] = None,
                   streams: Optional[RandomStreams] = None
                   ) -> NemesisScript:
    """A seeded random crash/restart/partition schedule.

    The *disruption budget*: at no instant are more than ``max_down``
    representatives crashed or isolated on a partition minority
    (default ``(n - 1) // 2`` — the most a majority quorum tolerates).
    Clients are never listed in a minority group, so they stay with the
    majority (unlisted hosts fall in the implicit group 0).  The script
    always ends, at ``horizon``, by healing the partition and
    restarting every crashed server, so a soak's tail runs against a
    whole cluster and its final reads must see the latest version.
    """
    servers = list(servers)
    if max_down is None:
        max_down = max(0, (len(servers) - 1) // 2)
    max_down = min(max_down, len(servers))
    rng = (streams or RandomStreams(seed=seed)).stream("nemesis")
    steps: List[NemesisStep] = []
    down: set = set()
    minority: Tuple[str, ...] = ()
    now = 0.0
    while True:
        now += rng.expovariate(1.0 / mean_interval)
        if now >= horizon:
            break
        action = rng.choice(ACTIONS)
        if action == "crash":
            budget = max_down - len(down) - len(minority)
            candidates = sorted(set(servers) - down - set(minority))
            if budget < 1 or not candidates:
                continue
            target = rng.choice(candidates)
            down.add(target)
            steps.append(NemesisStep(now, "crash", (target,)))
        elif action == "restart":
            if not down:
                continue
            target = rng.choice(sorted(down))
            down.discard(target)
            steps.append(NemesisStep(now, "restart", (target,)))
        elif action == "partition":
            budget = max_down - len(down) - len(minority)
            candidates = sorted(set(servers) - down - set(minority))
            if budget < 1 or not candidates:
                continue
            size = rng.randint(1, min(budget, len(candidates)))
            minority = tuple(sorted(rng.sample(candidates, size)))
            steps.append(NemesisStep(now, "partition",
                                     groups=((), minority)))
        else:  # heal
            if not minority:
                continue
            minority = ()
            steps.append(NemesisStep(now, "heal"))
    if minority:
        steps.append(NemesisStep(horizon, "heal"))
    for target in sorted(down):
        steps.append(NemesisStep(horizon, "restart", (target,)))
    return NemesisScript(steps, horizon=horizon)


def markov_nemesis(servers: Sequence[str], availability: float,
                   mttr: float, horizon: float, seed: int = 0,
                   streams: Optional[RandomStreams] = None
                   ) -> NemesisScript:
    """Per-server exponential up/down periods, pre-sampled into a script.

    ``mtbf = mttr * availability / (1 - availability)``; each server
    draws from its own ``failures:<name>`` stream, so the sampled
    timeline is a function of the seed alone.  Servers down at the
    horizon are restarted there.
    """
    if not 0.0 < availability < 1.0:
        raise ValueError("availability must be in (0, 1)")
    if mttr <= 0:
        raise ValueError("mttr must be positive")
    mtbf = mttr * availability / (1.0 - availability)
    streams = streams or RandomStreams(seed=seed)
    steps: List[NemesisStep] = []
    for name in servers:
        rng = streams.stream(f"failures:{name}")
        now = 0.0
        while True:
            now += rng.expovariate(1.0 / mtbf)
            if now >= horizon:
                break
            steps.append(NemesisStep(now, "crash", (name,)))
            now += rng.expovariate(1.0 / mttr)
            if now >= horizon:
                steps.append(NemesisStep(horizon, "restart", (name,)))
                break
            steps.append(NemesisStep(now, "restart", (name,)))
    return NemesisScript(steps, horizon=horizon)


# ---------------------------------------------------------------------------
# Runtime adapters
# ---------------------------------------------------------------------------

class TestbedAdapter:
    """Apply nemesis steps to a simulated :class:`~repro.testbed.Testbed`.

    Crash/restart go to the simulated hosts; partitions go to the
    shared :class:`~repro.chaos.policy.ChaosPolicy` (NOT the sim
    network) so the live adapter sees the identical mechanism.
    """

    def __init__(self, bed: "Testbed", policy: ChaosPolicy) -> None:
        self.bed = bed
        self.policy = policy
        self.applied: List[NemesisStep] = []

    def apply(self, step: NemesisStep) -> None:
        if step.action == "crash":
            for target in step.targets:
                self.bed.crash(target)
        elif step.action == "restart":
            for target in step.targets:
                self.bed.restart(target)
        elif step.action == "partition":
            self.policy.partition(step.groups)
        else:
            self.policy.heal()
        self.applied.append(step)


class LiveClusterAdapter:
    """Apply nemesis steps to a live
    :class:`~repro.live.harness.LoopbackCluster`."""

    def __init__(self, cluster: "LoopbackCluster",
                 policy: ChaosPolicy) -> None:
        self.cluster = cluster
        self.policy = policy
        self.applied: List[NemesisStep] = []

    async def apply(self, step: NemesisStep) -> None:
        if step.action == "crash":
            for target in step.targets:
                await self.cluster.stop_server(target)
        elif step.action == "restart":
            for target in step.targets:
                await self.cluster.restart_server(target)
        elif step.action == "partition":
            self.policy.partition(step.groups)
        else:
            self.policy.heal()
        self.applied.append(step)


def schedule_on_sim(bed: "Testbed", script: NemesisScript,
                    policy: ChaosPolicy,
                    disable_at_end: bool = True) -> TestbedAdapter:
    """Spawn a sim process that walks the script at its virtual times."""
    adapter = TestbedAdapter(bed, policy)

    def _runner():
        for step in script:
            if step.at > bed.sim.now:
                yield bed.sim.timeout(step.at - bed.sim.now)
            adapter.apply(step)
        if disable_at_end:
            policy.enabled = False

    bed.sim.spawn(_runner(), name="nemesis")
    return adapter


async def run_live_nemesis(cluster: "LoopbackCluster",
                           script: NemesisScript, policy: ChaosPolicy,
                           disable_at_end: bool = True
                           ) -> LiveClusterAdapter:
    """Walk the script against a live cluster in wall-clock time.

    Run it as a task alongside the workload::

        task = asyncio.ensure_future(
            run_live_nemesis(cluster, script, policy))
    """
    import asyncio

    assert cluster.client is not None, "cluster not started"
    kernel = cluster.client.kernel
    adapter = LiveClusterAdapter(cluster, policy)
    start = kernel.now
    for step in script:
        delay_ms = step.at - (kernel.now - start)
        if delay_ms > 0:
            await asyncio.sleep(delay_ms / 1000.0)
        await adapter.apply(step)
    if disable_at_end:
        policy.enabled = False
    return adapter
