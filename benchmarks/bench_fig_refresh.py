"""Experiment F5 — background refresh: cost and convergence (ablation).

A write-heavy workload runs on the paper's Example-2 topology with the
background refresher on and off.  Reported per configuration:

* stale-copy exposure — the average number of representatives behind
  the current version, sampled after every operation;
* read latency (unchanged: staleness is never a correctness or
  foreground-latency problem — the refresher's point is exactly that
  catching up happens off the critical path);
* refresh transaction count (the background cost paid for currency).

Shape assertions: refresh-on keeps mean staleness near zero at the cost
of background transactions; refresh-off lets every non-quorum member
drift arbitrarily far behind.

The writes are ``write_in`` runs, which stage at the cheapest write
quorum and leave the rest behind.  A suite ``write()`` leaves no voting
representative behind — every one votes with its stage and commits,
late if need be — so it would give the refresher nothing to do here.
"""

import pytest

from _support import print_table, record
from repro.testbed import Testbed, example_data
from repro.core import example_configuration
from repro.testbed import example_testbed
from repro.workload import ClosedLoopDriver, OperationMix, PayloadShape

OPERATIONS = 40


def run_configuration(refresh_enabled: bool):
    bed, config = example_testbed(2, refresh_enabled=refresh_enabled)
    suite = bed.install(config, example_data())
    file_name = config.file_name
    staleness_samples = []
    read_latencies = []
    rng = bed.streams.stream(f"f5:{refresh_enabled}")

    def staleness():
        versions = [node.server.fs.stat(file_name).version
                    for node in bed.servers.values()
                    if node.server.up and node.server.fs.exists(file_name)]
        current = max(versions)
        return sum(1 for version in versions if version < current)

    def loop():
        for i in range(OPERATIONS):
            if rng.random() < 0.5:
                start = bed.sim.now
                yield from suite.read()
                read_latencies.append(bed.sim.now - start)
            else:
                data = example_data(b"%d" % i)
                yield from suite.transact(
                    lambda txn: suite.write_in(txn, data))
            # Window long enough for a refresh over the slow (750 ms)
            # third link to complete between operations.
            yield bed.sim.timeout(2_500.0)
            staleness_samples.append(staleness())

    bed.run(loop())
    bed.settle(20_000.0)
    return {
        "mean_staleness": sum(staleness_samples) / len(staleness_samples),
        "final_staleness": staleness(),
        "read_latency": (sum(read_latencies) / len(read_latencies)
                         if read_latencies else 0.0),
        "refresh_txns": bed.metrics.counter(
            "refresh.transactions").value,
    }


def run_ablation():
    return {
        "refresh on": run_configuration(True),
        "refresh off": run_configuration(False),
    }


def test_fig_refresh_ablation(benchmark):
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    rows = [
        (label,
         cell["mean_staleness"], cell["final_staleness"],
         cell["read_latency"], cell["refresh_txns"])
        for label, cell in results.items()
    ]
    print_table(
        f"F5 — background refresh ablation ({OPERATIONS} mixed ops)",
        ["configuration", "mean stale reps", "stale at end",
         "read latency ms", "refresh txns"],
        rows)
    for label, cell in results.items():
        config = label.replace(" ", "-")
        record("figs", "fig_refresh", "mean_staleness",
               cell["mean_staleness"], "reps", config=config, seed=0)
        record("figs", "fig_refresh", "read_latency_ms",
               cell["read_latency"], "ms", config=config, seed=0)
        record("figs", "fig_refresh", "refresh_txns",
               float(cell["refresh_txns"]), "count", config=config,
               seed=0)

    on = results["refresh on"]
    off = results["refresh off"]
    # Refresh keeps the suite converged...
    assert on["mean_staleness"] < 0.5
    assert on["final_staleness"] == 0
    assert on["refresh_txns"] > 0
    # ...without it, the slowest representative simply never catches up.
    assert off["mean_staleness"] > 0.8
    assert off["refresh_txns"] == 0
    # Foreground reads are unaffected either way (same quorum math).
    assert off["read_latency"] == pytest.approx(on["read_latency"],
                                                rel=0.25)
