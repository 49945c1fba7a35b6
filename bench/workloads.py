"""The four named workloads and their seeded input generators.

Everything the program will be asked to do — which suite, read or
write, and (open loop) when — is drawn from ``--seed`` here, before any
timing starts; the live runner and the sim twin consume the same
sequence.  Two variance reductions keep different seeds comparable
without changing what a workload *is*: the read/write coin is dealt in
shuffled blocks of :data:`KIND_BLOCK` ops that each hold exactly the
workload's write share, and open-loop arrivals are uniform within
one-second strata that each hold exactly ``rate`` arrivals (a Poisson
process conditioned on its per-second count), so every seed offers the
same mix at the same rate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Tuple

from repro.core import make_configuration
from repro.core.votes import SuiteConfiguration

#: The deployment every workload runs on, live and in the sim twin:
#: three single-vote representatives, r = w = 2.
SERVERS = ("s1", "s2", "s3")
LATENCY_HINTS = {"s1": 10.0, "s2": 20.0, "s3": 30.0}
READ_QUORUM = WRITE_QUORUM = 2

#: Ops per dealt block of the read/write coin.
KIND_BLOCK = 20

#: Length of the pre-generated op sequence.  Closed-loop clients stride
#: through it (client ``c`` takes ``ops[c::clients]``) and wrap around if
#: a much faster system ever exhausts it.
SEQUENCE_OPS = 1 << 16

#: Length of one arrival stratum of the open loop, in seconds.
STRATUM_SECONDS = 1.0


@dataclass(frozen=True)
class Workload:
    """One traffic mix; ``why`` says which layers it loads."""

    name: str
    why: str
    loop: str            # "closed" or "open"
    clients: int         # closed loop: coroutine clients
    rate: float          # open loop: offered arrivals per second
    write_share: float
    suites: int
    payload: int         # bytes per suite
    zipf: float          # exponent of the suite popularity law; 0 = uniform


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="read_hot",
        why=("closed loop, 4 clients, 100% reads of 4 suites of 256 B: rpc, "
             "codec, transport, runtime, suite and obs do the work, "
             "storage writes 0 pages"),
        loop="closed", clients=4, rate=0.0, write_share=0.0,
        suites=4, payload=256, zipf=0.0),
    Workload(
        name="write_spread",
        why=("closed loop, 4 clients, 100% writes over 64 suites of 256 B: "
             "storage, 2PC, locks and refresh dominate; directory rewrite "
             "cost grows with files per server"),
        loop="closed", clients=4, rate=0.0, write_share=1.0,
        suites=64, payload=256, zipf=0.0),
    Workload(
        name="mix_open",
        why=("open loop at 120 ops/s, 90% reads / 10% writes, Zipf(0.99) "
             "over 64 suites, latency from the due time: queueing and "
             "shared-vs-exclusive lock waits on hot keys show here"),
        loop="open", clients=0, rate=120.0, write_share=0.1,
        suites=64, payload=256, zipf=0.99),
    Workload(
        name="large_page",
        why=("closed loop, 4 clients, 70% reads / 30% writes over 8 suites "
             "of 16 KiB (33-page chains): bytes-bound; blob codec path and "
             "primary+shadow page-chain I/O carry the cost"),
        loop="closed", clients=4, rate=0.0, write_share=0.3,
        suites=8, payload=16 * 1024, zipf=0.0),
)}


@dataclass
class Plan:
    """The generated inputs of one run."""

    workload: Workload
    seed: int
    suite_names: List[str]
    #: ``(suite index, is_write)`` in issue order.
    ops: List[Tuple[int, bool]]
    #: Open loop only: due time of arrival ``k`` (which issues
    #: ``ops[k]``), in seconds from the start of the measured phase;
    #: warm-up arrivals are negative.
    due: List[float]
    #: Random block that write payloads slice their filler from.
    filler: bytes


def suite_configuration(name: str) -> SuiteConfiguration:
    """The configuration of suite ``name`` on the benchmark's deployment."""
    return make_configuration(
        name, [(server, 1) for server in SERVERS], READ_QUORUM, WRITE_QUORUM,
        latency_hints=LATENCY_HINTS)


def zipf_weights(count: int, exponent: float) -> List[float]:
    """Popularity of ranks ``1..count`` under Zipf(``exponent``)."""
    return [1.0 / (rank ** exponent) for rank in range(1, count + 1)]


def draw_suites(rng: random.Random, suites: int, zipf: float,
                count: int) -> List[int]:
    """``count`` suite picks; which suite holds which rank is seeded."""
    order = list(range(suites))
    rng.shuffle(order)
    cumulative = list(accumulate(zipf_weights(suites, zipf)))
    ranks = rng.choices(range(suites), cum_weights=cumulative, k=count)
    return [order[rank] for rank in ranks]


def draw_kinds(rng: random.Random, write_share: float,
               count: int) -> List[bool]:
    """``count`` read/write flags, ``write_share`` exact per block."""
    writes = round(write_share * KIND_BLOCK)
    block = [True] * writes + [False] * (KIND_BLOCK - writes)
    kinds: List[bool] = []
    while len(kinds) < count:
        rng.shuffle(block)
        kinds.extend(block)
    return kinds[:count]


def draw_arrivals(rng: random.Random, rate: float, start: float,
                  end: float) -> List[float]:
    """Due times in ``[start, end)``: ``rate`` per stratum, uniform inside."""
    per_stratum = round(rate * STRATUM_SECONDS)
    due: List[float] = []
    strata = math.ceil((end - start) / STRATUM_SECONDS)
    for index in range(strata):
        base = start + index * STRATUM_SECONDS
        due.extend(sorted(base + rng.random() * STRATUM_SECONDS
                          for _ in range(per_stratum)))
    return [moment for moment in due if moment < end]


def generate(workload: Workload, seed: int, warmup: float,
             measured: float) -> Plan:
    """Draw every input of a run from ``seed``."""
    # A string seed is hashed with SHA-512, so the stream does not
    # depend on PYTHONHASHSEED.
    rng = random.Random(f"bench:{workload.name}:{seed}")
    picks = draw_suites(rng, workload.suites, workload.zipf, SEQUENCE_OPS)
    kinds = draw_kinds(rng, workload.write_share, SEQUENCE_OPS)
    due: List[float] = []
    if workload.loop == "open":
        due = draw_arrivals(rng, workload.rate, -warmup, measured)
        if len(due) > SEQUENCE_OPS:
            raise ValueError("open-loop schedule longer than the sequence")
    return Plan(
        workload=workload, seed=seed,
        suite_names=[f"b{index:02d}" for index in range(workload.suites)],
        ops=list(zip(picks, kinds)), due=due,
        filler=rng.randbytes(2 * workload.payload))
