"""Experiment T2 — weighted voting vs the era's replica-control schemes.

Read-one/write-all (SDD-1), primary copy (distributed INGRES), Thomas'
majority consensus, and a weighted suite run the same mixed workload on
the same three-server substrate through three phases: healthy, one
server crashed, and a network partition that isolates a different
server.  Reported: completed and blocked operations per phase.

Shape assertions (the paper's qualitative claims):
* healthy: every scheme completes everything;
* one crash: ROWA blocks all writes, primary copy blocks everything
  when its primary is the victim, voting schemes block nothing;
* partition: voting schemes on the majority side block nothing;
  ROWA again loses writes.
"""

import pytest

from _support import print_table, record
from repro.baselines import (MajorityConsensusClient, PrimaryCopyClient,
                             ReadOneWriteAllClient)
from repro.core import install_suite, make_configuration
from repro.errors import ReproError
from repro.testbed import Testbed
from repro.workload import ClosedLoopDriver, OperationMix, PayloadShape

SERVERS = ["s1", "s2", "s3"]
HINTS = {"s1": 5.0, "s2": 10.0, "s3": 15.0}
OPS_PER_PHASE = 30
MIX = OperationMix(read_fraction=0.6)


def build_protocols(bed):
    manager = bed.clients["client"].manager
    rowa = ReadOneWriteAllClient(manager, "obj", SERVERS,
                                 latency_hints=HINTS, max_attempts=2,
                                 retry_backoff=20.0)
    primary = PrimaryCopyClient(manager, "obj", SERVERS, max_attempts=2,
                                retry_backoff=20.0)
    majority = MajorityConsensusClient.build(
        manager, "majority-obj", SERVERS, latency_hints=HINTS,
        max_attempts=2, retry_backoff=20.0)
    weighted = bed.suite(make_configuration(
        "weighted-obj", [("s1", 2), ("s2", 1), ("s3", 1)], 2, 3,
        latency_hints=HINTS), max_attempts=2, retry_backoff=20.0)
    bed.run(rowa.install(b"seed"))
    bed.run(primary.install(b"seed"))
    bed.run(install_suite(manager, majority.config, b"seed"))
    bed.run(install_suite(manager, weighted.config, b"seed"))
    return {"rowa": rowa, "primary": primary, "majority": majority,
            "weighted": weighted}


def run_phase(bed, protocols, phase_name):
    results = {}
    for name, protocol in protocols.items():
        # Suite clients time out faster so blocked phases finish quickly.
        if hasattr(protocol, "inquiry_timeout"):
            protocol.inquiry_timeout = 150.0
        driver = ClosedLoopDriver(
            bed.sim, protocol, MIX, payload=PayloadShape(size=256),
            think_time=5.0, streams=bed.streams,
            name=f"{phase_name}:{name}")
        stats = bed.run(driver.run(OPS_PER_PHASE))
        results[name] = stats
    return results


def run_comparison():
    bed = Testbed(servers=SERVERS, seed=31, call_timeout=300.0)
    protocols = build_protocols(bed)

    phases = {}
    phases["healthy"] = run_phase(bed, protocols, "healthy")

    bed.crash("s2")
    phases["one crash (s2)"] = run_phase(bed, protocols, "crash")
    bed.restart("s2")
    bed.settle(5_000.0)

    bed.partition([["client", "s1", "s2"], ["s3"]])
    phases["partition (s3 cut)"] = run_phase(bed, protocols, "partition")
    bed.heal()
    bed.settle(5_000.0)
    return phases


def test_table2_baselines(benchmark):
    phases = benchmark.pedantic(run_comparison, rounds=1, iterations=1)

    rows = []
    for phase_name, results in phases.items():
        for protocol in ("rowa", "primary", "majority", "weighted"):
            stats = results[protocol]
            rows.append((phase_name, protocol, stats.reads,
                         stats.read_blocked, stats.writes,
                         stats.write_blocked))
    print_table(
        f"T2 — replica-control schemes under failures "
        f"({OPS_PER_PHASE} ops per cell, 60% reads)",
        ["phase", "protocol", "reads ok", "reads blocked",
         "writes ok", "writes blocked"],
        rows)
    phase_slugs = {"healthy": "healthy", "one crash (s2)": "crash-s2",
                   "partition (s3 cut)": "partition-s3"}
    for phase_name, results in phases.items():
        for protocol, stats in results.items():
            config = f"{phase_slugs[phase_name]}/{protocol}"
            record("tables", "table2_baselines", "ops_blocked",
                   float(stats.blocked), "count", config=config,
                   seed=31)
            record("tables", "table2_baselines", "ops_completed",
                   float(stats.reads + stats.writes), "count",
                   config=config, seed=31)

    healthy = phases["healthy"]
    for protocol in healthy:
        assert healthy[protocol].blocked == 0

    crash = phases["one crash (s2)"]
    assert crash["rowa"].write_blocked > 0      # write-all loses writes
    assert crash["rowa"].read_blocked == 0      # read-one keeps reads
    assert crash["majority"].blocked == 0       # voting sails through
    assert crash["weighted"].blocked == 0

    partition = phases["partition (s3 cut)"]
    assert partition["rowa"].write_blocked > 0
    assert partition["majority"].blocked == 0
    assert partition["weighted"].blocked == 0
    # Primary copy survives these phases only because its primary (s1)
    # was never the victim — its availability is one machine's.
    assert partition["primary"].blocked == 0
