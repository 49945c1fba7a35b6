"""Per-link message fault policy, shared by both runtimes.

A :class:`ChaosPolicy` answers one question — "what happens to this
message from ``source`` to ``destination``?" — with a
:class:`ChaosVerdict`: drop it, delay it, and/or deliver a duplicate.
Each directed link draws from its own named stream of the policy's
:class:`~repro.sim.rng.RandomStreams`, so the fault pattern on one link
is independent of traffic on every other and fully determined by the
seed.

The policy is the interposition point for *partitions* too: symmetric
group splits with the same semantics as
:meth:`repro.sim.network.Network.partition` (hosts not listed in any
group belong to the implicit group 0).  Putting partitions here rather
than in each runtime is what lets one nemesis script drive the
simulator and a live TCP cluster identically.

Reordering falls out of random per-message delays: two frames on the
same link with different sampled delays arrive out of order, which is
all the datagram contract above (client timeouts, at-most-once servers)
has to survive.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from ..sim.rng import RandomStreams


@dataclass(frozen=True)
class ChaosVerdict:
    """What the policy decided for one message."""

    drop: bool = False
    delay: float = 0.0            # extra latency, ms
    duplicate: bool = False
    duplicate_delay: float = 0.0  # extra latency of the duplicate, ms


#: Shared "no fault" verdict — the hot-path answer when chaos is off.
PASS = ChaosVerdict()
_DROP = ChaosVerdict(drop=True)


class ChaosPolicy:
    """Seeded per-link drop / delay / duplicate decisions + partitions.

    All probabilities are per *message*; delays are uniform in
    ``[delay_min, delay_max]`` ms.  A duplicate is delivered once more
    after an additional delay drawn from the same range (so duplicates
    typically arrive late, after the original — the case the
    at-most-once machinery exists for).
    """

    def __init__(self, streams: Optional[RandomStreams] = None,
                 seed: int = 0,
                 drop_probability: float = 0.0,
                 delay_probability: float = 0.0,
                 delay_min: float = 0.0,
                 delay_max: float = 0.0,
                 duplicate_probability: float = 0.0) -> None:
        for name, probability in (("drop", drop_probability),
                                  ("delay", delay_probability),
                                  ("duplicate", duplicate_probability)):
            if not 0.0 <= probability < 1.0:
                raise ValueError(f"{name} probability must be in [0, 1)")
        if delay_min < 0 or delay_max < delay_min:
            raise ValueError("need 0 <= delay_min <= delay_max")
        self.streams = streams or RandomStreams(seed=seed)
        self.drop_probability = drop_probability
        self.delay_probability = delay_probability
        self.delay_min = delay_min
        self.delay_max = delay_max
        self.duplicate_probability = duplicate_probability
        #: Master switch: a disabled policy passes everything untouched
        #: (the nemesis flips this off when its script ends, so a soak's
        #: final convergence reads run on a clean network).
        self.enabled = True
        #: Optional :class:`~repro.obs.flight.FlightRecorder`: fault
        #: surface changes (partition/heal/slow) append ``chaos``
        #: records, so a replay can line the injected faults up against
        #: the protocol's decisions.  Per-message verdicts are *not*
        #: journaled — they outnumber operations ~10:1 and would blow
        #: the recorder's overhead budget; their totals (``stats()``)
        #: ride in the journal's final ``metrics`` record instead.
        self.flight = None
        self._partition_of: Dict[str, int] = {}
        self._slow_hosts: Dict[str, float] = {}
        self.dropped = 0
        self.delayed = 0
        self.duplicated = 0
        self.slowed = 0
        self.partition_drops = 0

    # -- partitions --------------------------------------------------------

    def partition(self, groups: Iterable[Iterable[str]]) -> None:
        """Split hosts into isolated groups; unlisted hosts join group 0."""
        self._partition_of = {}
        for index, group in enumerate(groups):
            for name in group:
                self._partition_of[name] = index
        self._record_flight("partition",
                            groups={name: index for name, index
                                    in sorted(self._partition_of.items())})

    def heal(self) -> None:
        """Remove the partition (message-level faults keep applying)."""
        self._partition_of = {}
        self._record_flight("heal")

    def partitioned(self, a: str, b: str) -> bool:
        """True if the current partition separates ``a`` from ``b``."""
        if not self._partition_of:
            return False
        return (self._partition_of.get(a, 0)
                != self._partition_of.get(b, 0))

    # -- targeted slowness -------------------------------------------------

    def slow_host(self, host: str, delay_ms: float) -> None:
        """Add a deterministic ``delay_ms`` to every message to or from
        ``host`` (both directions: its requests arrive late and so do
        its replies).

        Unlike the probabilistic faults this consumes no randomness, so
        it composes with a seeded policy without perturbing the streams
        — the tool for "representative X is slow" experiments such as
        the ``repro doctor`` known-answer scenario.
        """
        if delay_ms < 0:
            raise ValueError("delay_ms must be >= 0")
        self._slow_hosts[host] = delay_ms
        self._record_flight("slow_host", host=host, delay_ms=delay_ms)

    def clear_slow_hosts(self) -> None:
        self._slow_hosts = {}
        self._record_flight("clear_slow_hosts")

    @property
    def slow_hosts(self) -> Dict[str, float]:
        return dict(self._slow_hosts)

    # -- per-message verdicts ----------------------------------------------

    def _rng(self, source: str, destination: str) -> random.Random:
        return self.streams.stream(f"chaos:{source}->{destination}")

    def filter(self, source: str, destination: str) -> ChaosVerdict:
        """Decide the fate of one message on the ``source -> destination``
        link.  Mutates only the policy's own counters and rng streams."""
        if not self.enabled:
            return PASS
        if source != destination and self.partitioned(source, destination):
            self.partition_drops += 1
            return _DROP
        if source == destination:
            return PASS  # loopback never faults (matches the sim network)
        slow = 0.0
        if self._slow_hosts:
            slow = (self._slow_hosts.get(source, 0.0)
                    + self._slow_hosts.get(destination, 0.0))
            if slow > 0.0:
                self.slowed += 1
        rng = self._rng(source, destination)
        if (self.drop_probability > 0.0
                and rng.random() < self.drop_probability):
            self.dropped += 1
            return _DROP
        delay = 0.0
        if (self.delay_probability > 0.0
                and rng.random() < self.delay_probability):
            delay = rng.uniform(self.delay_min, self.delay_max)
            self.delayed += 1
        delay += slow
        duplicate = False
        duplicate_delay = 0.0
        if (self.duplicate_probability > 0.0
                and rng.random() < self.duplicate_probability):
            duplicate = True
            duplicate_delay = delay + rng.uniform(self.delay_min,
                                                  self.delay_max)
            self.duplicated += 1
        if not delay and not duplicate:
            return PASS
        return ChaosVerdict(delay=delay, duplicate=duplicate,
                            duplicate_delay=duplicate_delay)

    def _record_flight(self, what: str, **data: object) -> None:
        if self.flight is None or self.flight.closed:
            return
        self.flight.emit("chaos", what=what, **data)

    def stats(self) -> Dict[str, int]:
        """Counter snapshot for reports."""
        return {"dropped": self.dropped, "delayed": self.delayed,
                "duplicated": self.duplicated, "slowed": self.slowed,
                "partition_drops": self.partition_drops}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ChaosPolicy drop={self.drop_probability} "
                f"delay={self.delay_probability}"
                f"[{self.delay_min},{self.delay_max}]ms "
                f"dup={self.duplicate_probability} "
                f"{'on' if self.enabled else 'off'}>")
