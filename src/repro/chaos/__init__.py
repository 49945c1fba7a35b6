"""Deterministic fault injection and graceful degradation.

Gifford's availability argument is only as good as the failures it is
exercised against.  This package makes failure a first-class, *seeded*
input to both runtimes:

* :mod:`~repro.chaos.policy` — a :class:`ChaosPolicy` that decides, per
  link and per message, whether to drop, delay or duplicate.  The same
  policy object interposes on the simulated
  :class:`~repro.sim.network.Network` and the live
  :class:`~repro.live.transport.TransportNode`, so one fault model
  drives either runtime.
* :mod:`~repro.chaos.nemesis` — scripted and seeded-random crash /
  restart / partition schedules, with adapters for the sim testbed and
  the live loopback cluster.
* :mod:`~repro.chaos.retry` — exponential backoff with cap and seeded
  jitter, the suite's operation retries.
* :mod:`~repro.chaos.health` — per-representative circuit breakers
  (closed → open → half-open) that quorum assembly consults to route
  around dead representatives and fail fast when a quorum is provably
  unattainable.

:mod:`~repro.chaos.soak` (imported on demand — it pulls in the live
runtime) runs a seeded soak of N operations under these faults on either
runtime, one suite or a sharded namespace, and judges every recorded
history with :func:`repro.verification.check_history`.
"""

from .health import CLOSED, HALF_OPEN, OPEN, CircuitBreaker, HealthTracker
from .nemesis import (LiveClusterAdapter, NemesisScript, NemesisStep,
                      TestbedAdapter, markov_nemesis, random_nemesis,
                      run_live_nemesis, schedule_on_sim)
from .policy import ChaosPolicy, ChaosVerdict
from .retry import RetryPolicy

__all__ = [
    "CLOSED",
    "ChaosPolicy",
    "ChaosVerdict",
    "CircuitBreaker",
    "HALF_OPEN",
    "HealthTracker",
    "LiveClusterAdapter",
    "NemesisScript",
    "NemesisStep",
    "OPEN",
    "RetryPolicy",
    "TestbedAdapter",
    "markov_nemesis",
    "random_nemesis",
    "run_live_nemesis",
    "schedule_on_sim",
]
