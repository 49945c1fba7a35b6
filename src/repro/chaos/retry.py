"""Retry backoff policy: exponential, capped, with seeded jitter.

One small immutable object: how long :meth:`~repro.txn.coordinator.
TransactionManager.transact`, the one attempt loop, waits between an
operation's tries.  Each caller keeps its own schedule: suite
operations and reconfiguration (×2 from the handle's
``retry_backoff``, jittered), suite creation (a fixed 150 ms), the
baselines and Violet's multi-suite transactions (×2, no jitter).
Background pushes do not use it — the RPC layer retransmits on a fixed
per-call timeout, the 2PC coordinator re-sends decisions every
``commit_retry_interval``, and the refresher and primary-copy
propagation back off linearly.  Jitter draws come from the caller's
:class:`~repro.sim.rng.RandomStreams` stream, so simulated runs stay
bit-for-bit deterministic and live runs de-synchronise naturally.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class RetryPolicy:
    """Delay schedule for attempt ``n`` (0-based): ``base * multiplier**n``,
    capped at ``cap``, scaled by a jitter factor in
    ``[1 - jitter, 1 + jitter]``.

    The defaults give 25, 50, 100, ... ms (±50 %), uncapped: the
    caller's number of attempts bounds the ladder.  ``jitter=0.5`` draws
    the factor as ``0.5 + rng.random()``, the suite's jitter since its
    first retry loop.
    """

    base: float = 25.0
    multiplier: float = 2.0
    cap: float = float("inf")
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError("base must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def delay(self, attempt: int,
              rng: Optional[random.Random]) -> float:
        """Backoff before retry number ``attempt`` (0-based), in ms.

        Draws from ``rng`` exactly once when jitter is enabled and the
        delay is non-zero — callers relying on common random numbers
        can count draws.
        """
        if self.base <= 0:
            return 0.0
        raw = min(self.cap, self.base * self.multiplier ** attempt)
        if self.jitter <= 0:
            return raw
        factor = 1.0 - self.jitter + 2.0 * self.jitter * rng.random()
        return raw * factor
