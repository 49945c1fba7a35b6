"""Experiment F3 — what weak representatives buy (and cost).

Ablation on the paper's Example-1 topology: a read-heavy workload runs
with and without the weak representatives, across update rates.
Reported per cell: mean read latency, weak-cache hit rate, and the
fraction of data reads served by the voting representative (its load).

Shape assertions:
* with weak reps, read latency approaches the local latency as the
  update rate falls (cache stays warm);
* without weak reps, read latency is pinned at the voting
  representative's latency regardless of update rate;
* the voting representative's data-read load drops when weak reps are
  on, and rises with the update rate.
"""

import pytest

from _support import print_table, record
from repro.core import Representative, SuiteConfiguration
from repro.errors import ReproError
from repro.testbed import Testbed
from repro.workload import OperationMix

DATA_SIZE = 8_192
READS = 40
UPDATE_RATES = [0.0, 0.1, 0.3]  # probability a write precedes each read


def build(weak_enabled: bool, seed: int) -> tuple:
    bed = Testbed(servers=["file-server", "local-server"], seed=seed)
    bed.set_client_link("client", "file-server", 1.0,
                        byte_time=73.0 / DATA_SIZE)
    bed.set_client_link("client", "local-server", 0.5,
                        byte_time=4.0 / DATA_SIZE)
    reps = [Representative("master", "file-server", votes=1,
                           latency_hint=75.0)]
    if weak_enabled:
        reps.append(Representative("cache", "local-server", votes=0,
                                   latency_hint=5.0))
    config = SuiteConfiguration(suite_name="f3",
                                representatives=tuple(reps),
                                read_quorum=1, write_quorum=1)
    suite = bed.install(config, b"x" * DATA_SIZE)
    return bed, suite


def run_cell(weak_enabled: bool, update_rate: float, seed: int = 5):
    bed, suite = build(weak_enabled, seed)
    rng = bed.streams.stream(f"f3:{weak_enabled}:{update_rate}")
    latencies = []
    weak_hits = 0
    master_reads = 0

    def loop():
        nonlocal weak_hits, master_reads
        for i in range(READS):
            if rng.random() < update_rate:
                yield from suite.write(b"y%04d" % i + b"x" * DATA_SIZE)
                yield bed.sim.timeout(40.0)  # refresher window
            start = bed.sim.now
            result = yield from suite.read()
            latencies.append(bed.sim.now - start)
            if result.served_by == "cache":
                weak_hits += 1
            else:
                master_reads += 1
            yield bed.sim.timeout(10.0)

    bed.run(loop())
    return {
        "read_latency": sum(latencies) / len(latencies),
        "hit_rate": weak_hits / READS,
        "master_load": master_reads / READS,
    }


def run_figure():
    rows = []
    for update_rate in UPDATE_RATES:
        with_weak = run_cell(True, update_rate)
        without = run_cell(False, update_rate)
        rows.append((update_rate,
                     with_weak["read_latency"], with_weak["hit_rate"],
                     with_weak["master_load"],
                     without["read_latency"], without["master_load"]))
    return rows


def test_fig_weak_representatives(benchmark):
    rows = benchmark.pedantic(run_figure, rounds=1, iterations=1)
    print_table(
        f"F3 — weak representative ablation ({READS} reads per cell)",
        ["update rate", "weak: read ms", "weak: hit rate",
         "weak: master load", "no-weak: read ms", "no-weak: master load"],
        rows)
    for update_rate, weak_ms, hit_rate, weak_load, plain_ms, \
            plain_load in rows:
        config = f"ur={update_rate}"
        record("figs", "fig_weak_reps", "weak_read_latency_ms", weak_ms,
               "ms", config=config, seed=5)
        record("figs", "fig_weak_reps", "weak_hit_rate", hit_rate,
               "fraction", config=config, seed=5)
        record("figs", "fig_weak_reps", "plain_read_latency_ms",
               plain_ms, "ms", config=config, seed=5)

    for update_rate, weak_ms, hit_rate, weak_load, plain_ms, \
            plain_load in rows:
        # Weak reps help, most at low update rates.
        assert weak_ms < plain_ms
        assert weak_load < plain_load
        assert plain_load == 1.0
    # Cache stays warm when updates are rare.
    assert rows[0][2] >= 0.95            # update rate 0 → ~100% hits
    assert rows[0][1] <= 15.0            # ≈ local latency
    # Hit rate degrades as the update rate grows.
    hit_rates = [row[2] for row in rows]
    assert hit_rates[0] >= hit_rates[-1]
