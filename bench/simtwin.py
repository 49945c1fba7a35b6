"""Deterministic sim twin: exact per-operation counts for a workload.

Replays the first :data:`TWIN_OPS` operations of a workload's seeded
sequence, one at a time, on a :class:`repro.testbed.Testbed` laid out
like the live cluster (three single-vote representatives, r = w = 2,
same suites, same payloads).  Between operations the simulator runs
until background refresh has drained, so each operation is charged its
own refresh.  Counters are read before and after every operation from
the program's public surface: ``Network.messages_sent``, calls of
``Simulator.schedule`` and ``Network.send`` (counted by shadowing the
bound method on the instance), ``PageStore.reads/writes``, and
``estimate_size`` of every payload sent.

The counts are a function of the seed alone and must repeat exactly;
``python -m bench.simtwin --workload write_spread --suites 1`` prints
the same workload squeezed onto one suite, which is how the directory
cost of ``write_spread`` is shown.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Any, Dict, List

if __package__ in (None, ""):  # run as a script: make the packages importable
    _ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [_ROOT, os.path.join(_ROOT, "src")]
    __package__ = "bench"

from repro.sim.network import estimate_size  # noqa: E402
from repro.testbed import Testbed  # noqa: E402

from .check import INSTALLER, Checker, encode_payload  # noqa: E402
from .workloads import (SERVERS, WORKLOADS, Plan, generate,  # noqa: E402
                        suite_configuration)

#: Operations replayed per twin run.
TWIN_OPS = 256

#: Virtual milliseconds the simulator runs on after each operation so
#: its background refresh finishes inside the operation's own count.
SETTLE_MS = 1_000.0

METRICS = ("sim.messages_per_read", "sim.messages_per_write",
           "sim.events_per_read", "sim.events_per_write",
           "sim.page_reads_per_read", "sim.page_writes_per_write",
           "sim.wire_bytes_per_read", "sim.wire_bytes_per_write")


class _Counts:
    """Running totals, with the two instance-level taps that feed them."""

    def __init__(self, bed: Testbed) -> None:
        self.bed = bed
        self.events = 0
        self.wire_bytes = 0
        schedule, send = bed.sim.schedule, bed.network.send

        def counting_schedule(delay: float, callback: Any, *args: Any) -> Any:
            self.events += 1
            return schedule(delay, callback, *args)

        def counting_send(source: str, destination: str, payload: Any) -> Any:
            self.wire_bytes += estimate_size(payload)
            return send(source, destination, payload)

        bed.sim.schedule = counting_schedule  # type: ignore[method-assign]
        bed.network.send = counting_send  # type: ignore[method-assign]

    def read(self) -> Dict[str, int]:
        stores = [careful.pages for node in self.bed.servers.values()
                  for careful in (node.server.stable.primary,
                                  node.server.stable.shadow)]
        return {"messages": self.bed.network.messages_sent,
                "events": self.events,
                "wire_bytes": self.wire_bytes,
                "page_reads": sum(store.reads for store in stores),
                "page_writes": sum(store.writes for store in stores)}


def run_twin(plan: Plan, ops: int = TWIN_OPS) -> Dict[str, Any]:
    """Replay ``ops`` operations; returns the eight ``sim.*`` metrics,
    the totals behind them and the checker's verdict."""
    workload = plan.workload
    # No idle-abort sweeper: its timer would add a constant to every count.
    bed = Testbed(servers=SERVERS, seed=plan.seed, idle_abort_after=None)
    suites = []
    for name in plan.suite_names:
        suites.append(bed.install(suite_configuration(name), encode_payload(
            name, INSTALLER, 0, workload.payload, plan.filler)))
    bed.settle(SETTLE_MS)
    checker = Checker(plan.suite_names)
    counts = _Counts(bed)
    totals = {kind: {"ops": 0, "messages": 0, "events": 0, "wire_bytes": 0,
                     "page_reads": 0, "page_writes": 0}
              for kind in ("read", "write")}
    for seq, (suite_index, is_write) in enumerate(plan.ops[:ops], start=1):
        before = counts.read()
        floor = checker.issue(suite_index, is_write)
        if is_write:
            result = bed.run(suites[suite_index].write(encode_payload(
                plan.suite_names[suite_index], "twin", seq,
                workload.payload, plan.filler)))
            checker.write_done(suite_index, floor, result.version, "twin",
                               seq)
        else:
            result = bed.run(suites[suite_index].read())
            checker.read_done(suite_index, floor, result.version,
                              result.data)
        bed.settle(SETTLE_MS)
        after = counts.read()
        bucket = totals["write" if is_write else "read"]
        bucket["ops"] += 1
        for name, value in after.items():
            bucket[name] += value - before[name]
    for index, suite in enumerate(suites):
        final = bed.run(suite.read())
        checker.final(index, final.version, final.data)

    def per(kind: str, name: str) -> float:
        bucket = totals[kind]
        return bucket[name] / bucket["ops"] if bucket["ops"] else 0.0

    metrics = {
        "sim.messages_per_read": per("read", "messages"),
        "sim.messages_per_write": per("write", "messages"),
        "sim.events_per_read": per("read", "events"),
        "sim.events_per_write": per("write", "events"),
        "sim.page_reads_per_read": per("read", "page_reads"),
        "sim.page_writes_per_write": per("write", "page_writes"),
        "sim.wire_bytes_per_read": per("read", "wire_bytes"),
        "sim.wire_bytes_per_write": per("write", "wire_bytes"),
    }
    return {"metrics": metrics, "totals": totals,
            "violations": list(checker.violations)}


def run_twin_twice(plan: Plan, ops: int = TWIN_OPS) -> Dict[str, Any]:
    """Run the twin twice; ``identical`` says the counts repeated exactly."""
    first = run_twin(plan, ops)
    second = run_twin(plan, ops)
    first["identical"] = (first["metrics"] == second["metrics"]
                          and first["totals"] == second["totals"])
    return first


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        default="write_spread")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--ops", type=int, default=TWIN_OPS)
    parser.add_argument("--suites", type=int, default=None,
                        help="override the workload's suite count")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.suites is not None:
        workload = dataclasses.replace(workload, suites=args.suites)
    outcome = run_twin_twice(generate(workload, args.seed, 0.0, 0.0),
                             args.ops)
    print(f"sim twin of {workload.name} on {workload.suites} suite(s), "
          f"seed {args.seed}, first {args.ops} ops")
    for name in METRICS:
        print(f"  {name:<28} {outcome['metrics'][name]:>12.3f}")
    print(f"  repeated exactly: {outcome['identical']}; "
          f"violations: {len(outcome['violations'])}")
    print(json.dumps({"identical": outcome["identical"],
                      "metrics": outcome["metrics"]}))
    return 0 if outcome["identical"] and not outcome["violations"] else 1


if __name__ == "__main__":
    sys.exit(main())
