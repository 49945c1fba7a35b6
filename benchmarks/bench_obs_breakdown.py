"""Experiment O1 — where a quorum operation's latency goes.

Runs paper example 2 on the full simulated stack with causal tracing
enabled, then derives a per-phase latency breakdown from the span tree
instead of from ad-hoc stopwatches: quorum assembly (version-inquiry
gather), the two-phase-commit decision round (a suite write votes with
its stages, so it has no prepare round to span), and the individual
RPCs underneath them — each RPC twice: ``rpc.M`` is the caller's round
trip, ``rpc.M@server`` the handler that served it.  Each row is also emitted as a JSON object so
downstream tooling (plots, regression dashboards) can consume the
breakdown without re-parsing the pretty table.

Tracing is opt-in on the testbed because trace context rides inside
RPC requests and inflates their simulated byte size; this experiment
accepts that perturbation — it is measuring *shape*, not the paper's
exact milliseconds — and asserts structure: every operation yields one
stitched trace whose phase spans nest inside, and account for no more
than, the root's duration; only a write's late vote — a stage the
gather did not wait for, and its commit — outlives the root.
"""

import json

import pytest

from _support import print_table, record
from repro.obs import breakdown, group_traces
from repro.testbed import example_data, example_testbed

OPERATIONS = 20
EXAMPLE = 2


def run_traced_operations(example=EXAMPLE, operations=OPERATIONS):
    """Read/write ``operations`` times with tracing on; return spans."""
    bed, config = example_testbed(example, obs=True)
    suite = bed.install(config, example_data())
    for index in range(operations):
        bed.run(suite.read())
        bed.run(suite.write(example_data(b"%d" % (index % 10))))
    bed.settle()
    # A wrapped ring buffer would silently average only the newest spans.
    assert bed.collector.dropped == 0
    return bed.collector.spans()


def _rows_for(spans, root_name):
    """One breakdown row per span name inside traces rooted at
    ``root_name``."""
    keep = {span.trace_id for span in spans
            if span.parent_id is None and span.name == root_name}
    members = [span for span in spans if span.trace_id in keep]
    return [(root_name, name, count, mean)
            for name, (count, mean) in breakdown(members).items()]


def test_span_latency_breakdown(benchmark):
    spans = benchmark.pedantic(run_traced_operations, rounds=1,
                               iterations=1)
    rows = _rows_for(spans, "suite.read") + _rows_for(spans,
                                                      "suite.write")
    print_table(
        f"O1 — span-derived latency breakdown (example {EXAMPLE}, "
        f"{OPERATIONS} reads + {OPERATIONS} writes)",
        ["operation", "span", "count", "mean ms"], rows)
    for operation, name, count, mean in rows:
        print(json.dumps({"experiment": "O1", "operation": operation,
                          "span": name, "count": count,
                          "mean_ms": round(mean, 3)}))
    for operation, name, count, mean in rows:
        # Per-phase spans of the two operation types; deterministic sim
        # run, so these gate like any other latency.
        record("obs", "obs_breakdown", "span_mean_ms", mean, "ms",
               config=f"{operation}/{name}", seed=0)

    # Structure: every operation produced exactly one stitched trace.
    traces = group_traces(spans)
    read_roots = [span for span in spans
                  if span.parent_id is None and span.name == "suite.read"]
    write_roots = [span for span in spans
                   if span.parent_id is None
                   and span.name == "suite.write"]
    assert len(read_roots) == OPERATIONS
    assert len(write_roots) == OPERATIONS

    by_name = {(operation, name): (count, mean)
               for operation, name, count, mean in rows}
    # Each read assembles one read quorum; each write assembles a
    # write quorum (version collect), votes with its stages — no
    # prepare phase — and runs the decision round.
    assert by_name[("suite.read", "quorum.assemble")][0] == OPERATIONS
    assert by_name[("suite.write", "quorum.assemble")][0] == OPERATIONS
    assert ("suite.write", "2pc.prepare") not in by_name
    assert by_name[("suite.write", "2pc.commit")][0] == OPERATIONS

    # Phases nest inside the root: a child's mean cannot exceed the
    # operation's, and assembly + staging + commit fit within the write.
    write_mean = by_name[("suite.write", "suite.write")][1]
    assemble_mean = by_name[("suite.write", "quorum.assemble")][1]
    commit_mean = by_name[("suite.write", "2pc.commit")][1]
    assert assemble_mean + commit_mean <= write_mean + 1e-9
    # A handler runs inside its caller's round trip.
    for (operation, name), (_count, mean) in by_name.items():
        if name.endswith("@server"):
            caller_mean = by_name[(operation, name[:-len("@server")])][1]
            assert mean <= caller_mean + 1e-9
    # Every span the operation waited for ends inside the root.  The
    # only ones that outlive it are the write's stage to the slow third
    # representative — the gather closes on w votes without it — and
    # the numbered commit its late vote then gets.
    outlived = set()
    for root in read_roots + write_roots:
        for span in traces[root.trace_id]:
            if span.finished and span.parent_id is not None:
                if span.end_time > root.end_time + 1e-9:
                    outlived.add((root.name, span.name))
                else:
                    assert span.duration <= root.duration + 1e-9
    assert outlived <= {("suite.write", name) for name in (
        "rpc.txn.stage_write", "rpc.txn.stage_write@server",
        "rpc.txn.commit", "rpc.txn.commit@server")}
