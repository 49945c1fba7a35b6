"""Experiment F7 (extension) — concurrent clients on one suite.

The paper's prototype served multiple Violet users at once; this bench
measures how the implementation behaves as client concurrency grows on
a single 3-server suite: per-operation latency, total throughput, and
the retry rate caused by lock conflicts between writers.

Shape assertions:
* every operation eventually completes (no starvation, no lost
  updates: final version = total writes + 1);
* total throughput does not collapse as clients are added;
* mean write latency grows with contention (serialization is real).
"""

import pytest

from _support import print_table, record
from repro.core import make_configuration
from repro.testbed import Testbed
from repro.workload import (ClosedLoopDriver, OperationMix, PayloadShape,
                            WorkloadStats)

OPS_PER_CLIENT = 25
CLIENT_COUNTS = [1, 2, 4, 8]


def run_population(clients: int, seed: int = 55):
    names = [f"c{i}" for i in range(clients)]
    bed = Testbed(servers=["s1", "s2", "s3"], clients=names, seed=seed)
    config = make_configuration(
        "shared", [("s1", 1), ("s2", 1), ("s3", 1)], 2, 2,
        latency_hints={"s1": 5.0, "s2": 10.0, "s3": 15.0})
    suites = {}
    first = True
    for name in names:
        if first:
            suites[name] = bed.install(config, b"seed" * 64, client=name)
            first = False
        else:
            suites[name] = bed.suite(config, client=name)

    drivers = [
        ClosedLoopDriver(bed.sim, suites[name],
                         OperationMix(read_fraction=0.5),
                         payload=PayloadShape(size=256),
                         think_time=20.0, streams=bed.streams,
                         name=f"pop-{clients}-{name}")
        for name in names
    ]

    def population():
        processes = [bed.sim.spawn(driver.run(OPS_PER_CLIENT),
                                   name=driver.name)
                     for driver in drivers]
        results = yield bed.sim.all_of(processes)
        return results

    started = bed.sim.now
    all_stats = bed.run(population())
    elapsed = bed.sim.now - started
    merged = WorkloadStats()
    for stats in all_stats:
        merged.operations += stats.operations
        merged.reads += stats.reads
        merged.writes += stats.writes
        merged.read_blocked += stats.read_blocked
        merged.write_blocked += stats.write_blocked
        merged.read_latency.samples += stats.read_latency.samples
        merged.write_latency.samples += stats.write_latency.samples
    retries = bed.metrics.counter("suite.retries").value
    bed.settle(30_000.0)
    final_version = max(node.server.fs.stat("suite:shared").version
                        for node in bed.servers.values())
    return {
        "stats": merged,
        "elapsed": elapsed,
        "retries": retries,
        "final_version": final_version,
    }


def run_sweep():
    return {clients: run_population(clients)
            for clients in CLIENT_COUNTS}


def test_fig_contention(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    rows = []
    for clients, cell in results.items():
        stats = cell["stats"]
        throughput = stats.operations / cell["elapsed"] * 1_000.0
        rows.append((clients, stats.operations,
                     stats.read_latency.mean, stats.write_latency.mean,
                     throughput, cell["retries"]))
    print_table(
        f"F7 — client concurrency on one suite "
        f"({OPS_PER_CLIENT} ops/client, 50% reads)",
        ["clients", "ops done", "read ms (mean)", "write ms (mean)",
         "ops/sec", "retries"],
        rows)
    for clients, ops, read_mean, write_mean, throughput, retries in rows:
        config = f"clients={clients}"
        record("figs", "fig_contention", "read_latency_ms", read_mean,
               "ms", config=config, seed=55)
        record("figs", "fig_contention", "write_latency_ms", write_mean,
               "ms", config=config, seed=55)
        record("figs", "fig_contention", "throughput_ops_per_sec",
               throughput, "ops/s", config=config, seed=55)
        record("figs", "fig_contention", "retries", float(retries),
               "count", config=config, seed=55)

    for clients, cell in results.items():
        stats = cell["stats"]
        # Completeness: nothing starved, nothing blocked for good.
        assert stats.operations == clients * OPS_PER_CLIENT
        assert stats.blocked == 0
        # No lost updates: version = initial(1) + committed writes.
        assert cell["final_version"] == 1 + stats.writes

    # Serialization shows up as rising write latency...
    writes_1 = results[1]["stats"].write_latency.mean
    writes_8 = results[8]["stats"].write_latency.mean
    assert writes_8 > writes_1
    # ...but aggregate throughput must not collapse below one client's.
    def throughput(cell):
        return cell["stats"].operations / cell["elapsed"]
    assert throughput(results[8]) > throughput(results[1]) * 0.8
