"""Experiment F9 (extension) — the piggybacked single-round-trip read.

The paper's read costs two serial rounds: a parallel version inquiry,
then a data fetch from the cheapest current representative.  The fast
path lets the cheapest representative's inquiry reply carry the file
contents, collapsing the read to one data-bearing round trip.  This
benchmark measures the saving on a bandwidth-limited triple: same
seed, same workload, fast path on versus off.

Shape assertions:
* the fast path is strictly faster — by roughly one network round,
  since the bulk-transfer time is identical on both paths;
* message budgets match the analytic model (6 versus 8 on a triple:
  the inquiries and, on the legacy path, the data fetch — each
  representative drops its shared lock as it replies, so there is no
  release round on either path).

The message budgets count protocol *messages*, not wire frames, so
they are identical under the JSON and binary live codecs and under
per-destination batching — the wire format is an encoding concern the
sim kernel never sees.  A codec change that shifts these counts is a
protocol regression, not an optimisation.
"""

import pytest

from _support import print_table, record
from repro.core import make_configuration
from repro.core.analysis import message_cost
from repro.testbed import Testbed

DATA_SIZE = 8_192
READS = 40
SEED = 11
LATENCIES = {"s1": 15.0, "s2": 20.0, "s3": 25.0}


def run_reads(fastpath: bool):
    bed = Testbed(servers=list(LATENCIES), seed=SEED,
                  refresh_enabled=False)
    for server, latency in LATENCIES.items():
        # The link charges ~40 ms to move one payload: bulk transfer
        # dominates, as on the paper's Ethernet.
        bed.set_client_link("client", server, latency,
                            byte_time=40.0 / DATA_SIZE)
    config = make_configuration(
        "f9", [(server, 1) for server in LATENCIES], 2, 2,
        latency_hints=LATENCIES)
    suite = bed.install(config, b"x" * DATA_SIZE,
                        read_fastpath=fastpath)
    bed.settle(5_000.0)
    before = bed.network.messages_sent
    latencies = []

    def loop():
        for _ in range(READS):
            start = bed.sim.now
            yield from suite.read()
            latencies.append(bed.sim.now - start)
            yield bed.sim.timeout(10.0)  # let the third reply land

    bed.run(loop())
    bed.settle(5_000.0)
    messages = (bed.network.messages_sent - before) / READS
    return sum(latencies) / len(latencies), messages, suite.config


def run_figure():
    return run_reads(True), run_reads(False)


def test_fig_read_fastpath(benchmark):
    (fast_ms, fast_msgs, config), (legacy_ms, legacy_msgs, _) = \
        benchmark.pedantic(run_figure, rounds=1, iterations=1)
    print_table(
        f"F9 — single-round-trip read ({READS} reads, "
        f"{DATA_SIZE} B payload)",
        ["path", "read ms", "messages/read"],
        [("fastpath", fast_ms, fast_msgs),
         ("legacy", legacy_ms, legacy_msgs)])
    cell = f"triple,{DATA_SIZE}B"
    record("figs", "fig_read_fastpath", "fastpath_read_latency_ms",
           fast_ms, "ms", config=cell, seed=SEED)
    record("figs", "fig_read_fastpath", "legacy_read_latency_ms",
           legacy_ms, "ms", config=cell, seed=SEED)
    record("figs", "fig_read_fastpath", "fastpath_read_messages",
           fast_msgs, "messages", config=cell, seed=SEED)

    # One network round cheaper, identical bulk-transfer time.
    assert fast_ms < legacy_ms
    assert legacy_ms - fast_ms >= min(LATENCIES.values())
    # And the counts match the analytic model.
    costs = message_cost(config)
    assert fast_msgs == costs["read"] == 6
    assert legacy_msgs == costs["read_fallback"] == 8
