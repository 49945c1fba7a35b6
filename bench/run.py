"""The benchmark's one command.

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in this process and prints, as the last line of its
standard output, the JSON object ``BENCHMARK.json`` promises: the
end-to-end metrics of an untraced run (``--trace 0``) or the per-layer
metrics of a traced run plus the sim twin (``--trace 1``).

Without ``--workload`` it runs all four workloads, each untraced and
traced in its own fresh subprocess, one after another, prints every
metric and writes the collected results as JSON (``--out``).
``--compare A.json B.json`` holds two such files against the bounds.
See ``bench/README.md``.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

if __package__ in (None, ""):  # run as a script: make the packages importable
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    __package__ = "bench"

from . import layers  # noqa: E402
from .live import (QUIET_SHARE, PhaseSpec, phase_stats,  # noqa: E402
                   run_workload, validity)
from .simtwin import TWIN_OPS, run_twin_twice  # noqa: E402
from .stats import percentile  # noqa: E402
from .workloads import WORKLOADS, generate  # noqa: E402

#: Seconds from interpreter entry to every module of the program and
#: the benchmark being imported.  One sample per process, so it is kept
#: in the detail file and not folded into ``setup_s``.
IMPORT_SECONDS = time.perf_counter() - _PROCESS_START

#: Cluster set-ups timed per untraced run.  ``setup_s`` is the mean of
#: the quietest third of them (the two fastest), by the same reasoning
#: as the quiet slices of ``live.phase_stats``.
SETUP_ROUNDS = 5

#: Shares of ``--seconds`` a traced run gives to its two phases: first
#: the wrappers installed but switched off, then switched on.
BASELINE_SHARE, TRACED_SHARE = 0.25, 0.6

#: The ledger must account for the window's CPU time this closely.
LEDGER_TOLERANCE = 0.02


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def setup_seconds(rounds: List[float]) -> float:
    """Mean of the quietest third of the timed set-ups (at least two)."""
    keep = sorted(rounds)[:max(2, round(len(rounds) * QUIET_SHARE))]
    return sum(keep) / len(keep)


def warmup_seconds(seconds: float, traced: bool) -> float:
    """3 s untraced, 2 s traced; shorter for ``--quick``-sized windows."""
    return min(2.0 if traced else 3.0, max(1.0, float(round(seconds / 4))))


# ---------------------------------------------------------------------------
# One workload in this process
# ---------------------------------------------------------------------------

def run_untraced(name: str, seed: int, seconds: float,
                 setup_rounds: int = SETUP_ROUNDS) -> Dict[str, Any]:
    workload = WORKLOADS[name]
    warmup = warmup_seconds(seconds, traced=False)
    plan = generate(workload, seed, warmup, seconds)
    result = asyncio.run(run_workload(
        plan, warmup, [PhaseSpec("window", seconds)], OUT_DIR,
        setup_rounds=setup_rounds))
    stats = phase_stats(result, result.marks[0], plan)
    invalid = result.invalid + validity(stats, plan)
    values = {
        "ops_per_s": stats["ops_per_s"],
        "cpu_ms_per_op": stats["cpu_ms_per_op"],
        "op_p50_ms": stats["op_p50_ms"],
        "op_p95_ms": stats["op_p95_ms"],
        "setup_s": setup_seconds(result.setup_seconds),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": 0,
            "values": values, "stats": stats, "invalid": invalid,
            "violations": result.checker.violations,
            "cancelled": result.cancelled, "errors": result.log.errors,
            "import_seconds": IMPORT_SECONDS,
            "setup_seconds": result.setup_seconds}


def run_traced(name: str, seed: int, seconds: float,
               twin_ops: int = TWIN_OPS) -> Dict[str, Any]:
    workload = WORKLOADS[name]
    warmup = warmup_seconds(seconds, traced=True)
    phases = [PhaseSpec("baseline", seconds * BASELINE_SHARE),
              PhaseSpec("traced", seconds * TRACED_SHARE, traced=True)]
    plan = generate(workload, seed, warmup, sum(p.seconds for p in phases))
    ledger = layers.Ledger()
    layers.install(ledger)
    try:
        result = asyncio.run(run_workload(plan, warmup, phases, OUT_DIR,
                                          ledger=ledger))
    finally:
        layers.uninstall(ledger)
    baseline = phase_stats(result, result.marks[0], plan)
    traced = phase_stats(result, result.marks[1], plan)
    spans = ledger.write_spans(
        os.path.join(OUT_DIR, f"{name}.trace.jsonl"),
        int(result.marks[1].start * 1e9))
    twin = run_twin_twice(plan, twin_ops)
    invalid = result.invalid + validity(traced, plan)
    if ledger.missing:
        invalid.append(f"entry points not found: {ledger.missing}")
    if not twin["identical"]:
        invalid.append("sim twin counts differed between two runs")
    values = layer_values(ledger, baseline, traced, workload)
    values.update(twin["metrics"])
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": 1,
            "values": values, "stats": traced, "baseline": baseline,
            "invalid": invalid,
            "violations": result.checker.violations + twin["violations"],
            "cancelled": result.cancelled, "errors": result.log.errors,
            "ledger": [row for row in ledger.entry_rows() if row["calls"]
                       or row["self_ns"]],
            "ledger_ok": abs(values["trace.ledger_gap_share"])
            <= LEDGER_TOLERANCE,
            "spans_written": spans, "spans_lost": ledger.spans_lost,
            "sim_totals": twin["totals"]}


def layer_values(ledger: layers.Ledger, baseline: Dict[str, Any],
                 traced: Dict[str, Any], workload: Any) -> Dict[str, float]:
    """Every per-layer metric of the traced phase, by its contract name."""
    ops = traced["ops"]
    if not ops:
        raise RuntimeError("no operation completed in the traced window")
    writes = traced["writes"]
    delta = traced["counters"]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def pct(samples: List[float], p: float) -> float:
        return percentile(sorted(samples), p) if samples else 0.0

    self_ns = ledger.layer_self_ns()
    values = {f"{layer}.self_us_per_op": self_ns.get(layer, 0) / 1e3 / ops
              for layer in layers.LAYERS}
    accounted = sum(spent for layer, spent in self_ns.items()
                    if layer != layers.IDLE)
    messages = delta["transport.frames_received"]
    codec_encode = ledger.entry_self_ns(
        "live.codec", "encode_frame", "encode_binary_body",
        "encode_json_body", "encode_batch_body")
    codec_decode = ledger.entry_self_ns("live.codec", "decode_wire_body")
    if workload.loop == "open":
        overhead = ratio(traced["cpu_ms_per_op"],
                         baseline["cpu_ms_per_op"]) - 1.0
    else:
        overhead = 1.0 - ratio(traced["ops_per_s"], baseline["ops_per_s"])
    latency = traced["latency_ms"]
    values.update({
        "core.suite.attempts_per_op": traced["attempts"] / ops,
        "core.suite.fastpath_share": ratio(
            delta["suite.read_fastpath"],
            delta["suite.read_fastpath"] + delta["suite.read_fallback"]
            + delta["suite.read_cached"]),
        "core.suite.retries_per_op": delta["suite.retries"] / ops,
        "core.refresh.txns_per_write": ratio(delta["refresh.transactions"],
                                             writes),
        "txn.coordinator.commit_ms_p50": pct(ledger.latencies(
            "txn.coordinator", "TransactionManager.commit"), 50),
        "txn.coordinator.aborts_per_op": ledger.layer_calls(
            "txn.coordinator", "TransactionManager.abort") / ops,
        "txn.participant.calls_per_op": ledger.layer_calls(
            "txn.participant") / ops,
        "txn.locks.wait_ms_p50": pct(ledger.lock_waits_ms, 50),
        "txn.locks.wait_ms_p99": pct(ledger.lock_waits_ms, 99),
        "txn.locks.deadlocks": delta["locks.deadlocks"],
        "txn.locks.timeouts": delta["locks.timeouts"],
        "rpc.calls_per_op": delta["rpc.calls_sent"] / ops,
        "rpc.retransmissions": delta["rpc.retransmissions"],
        "rpc.duplicates_suppressed": delta["rpc.duplicates_suppressed"],
        "live.codec.encode_us_per_msg": ratio(codec_encode / 1e3, messages),
        "live.codec.decode_us_per_msg": ratio(codec_decode / 1e3, messages),
        "live.codec.bytes_per_op": ledger.wire_bytes / ops,
        "live.transport.frames_per_op": delta["transport.frames_sent"] / ops,
        "live.transport.msgs_per_frame": ratio(
            messages, delta["transport.frames_sent"]),
        "live.transport.frames_dropped": delta["transport.frames_dropped"],
        "live.runtime.callbacks_per_op": ledger.layer_calls(
            "live.runtime", "LiveKernel.schedule") / ops,
        "live.runtime.resumes_per_op": ledger.resumes[0] / ops,
        "storage.page_writes_per_op": delta["storage.page_writes"] / ops,
        "storage.page_reads_per_op": delta["storage.page_reads"] / ops,
        "storage.bytes_written_per_user_byte": ratio(
            ledger.page_bytes, writes * workload.payload),
        "obs.spans_per_op": ledger.obs_spans / ops,
        "trace.overhead_share": overhead,
        "trace.ledger_gap_share": ratio(
            accounted / 1e9,
            traced["cpu_seconds"] + traced["run_delay_seconds"]) - 1.0,
        "client.read_p50_ms": latency["read"]["p50"],
        "client.read_p99_ms": latency["read"]["p99"],
        "client.write_p50_ms": latency["write"]["p50"],
        "client.write_p95_ms": latency["write"]["p95"],
        "client.sched_lag_p99_ms": traced.get("sched_lag_p99_ms", 0.0),
    })
    return values


def run_single(args: argparse.Namespace) -> int:
    contract = load_contract()
    if args.workload not in {w["name"] for w in contract["workloads"]}:
        raise SystemExit(f"{args.workload} is not in BENCHMARK.json")
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.trace:
        outcome = run_traced(args.workload, args.seed, args.seconds,
                             args.twin_ops)
    else:
        outcome = run_untraced(args.workload, args.seed, args.seconds,
                               args.setup_rounds)
    listed = contract["per_layer" if args.trace else "end_to_end"]
    metrics = {metric["name"]: {"value": outcome["values"][metric["name"]],
                                "unit": metric["unit"]}
               for metric in listed}
    stats = outcome["stats"]
    failed = stats["failed"] + len(outcome["violations"])
    correct = not failed and not outcome["invalid"]
    outcome["result"] = {"correct": correct, "attempted": stats["attempted"],
                         "failed": failed, "metrics": metrics}
    kind = "layers" if args.trace else "e2e"
    with open(os.path.join(OUT_DIR, f"{args.workload}.{kind}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(outcome, handle, indent=1, sort_keys=True)
    print_outcome(outcome, metrics)
    print(json.dumps(outcome["result"]))
    return 0 if correct else 1


def print_outcome(outcome: Dict[str, Any],
                  metrics: Dict[str, Dict[str, Any]]) -> None:
    stats = outcome["stats"]
    print(f"== {outcome['workload']}  seed {outcome['seed']}  "
          f"{'traced' if outcome['trace'] else 'untraced'}  "
          f"window {stats['seconds']:.2f} s")
    for name, metric in metrics.items():
        print(f"  {name:<38} {metric['value']:>14.4f} {metric['unit']}")
    counts = stats["whole"]["latency_ms"]
    print(f"  samples: {counts['op']['count']} ops = "
          f"{counts['read']['count']} reads + "
          f"{counts['write']['count']} writes; attempted "
          f"{stats['attempted']}, failed {stats['failed']}, "
          f"verification violations {len(outcome['violations'])}")
    for kind in ("read", "write"):
        if counts[kind]["count"]:
            print(f"  {kind}: p50 {counts[kind]['p50']:.3f} ms  "
                  f"p95 {counts[kind]['p95']:.3f} ms  "
                  f"p99 {counts[kind]['p99']:.3f} ms  "
                  f"(n={counts[kind]['count']})")
    whole = stats["whole"]
    print(f"  whole window (quietest third is reported above): "
          f"{whole['ops_per_s']:.1f} ops/s, "
          f"{whole['cpu_ms_per_op']:.3f} CPU-ms/op, op p50 "
          f"{whole['latency_ms']['op']['p50']:.3f} ms, p95 "
          f"{whole['latency_ms']['op']['p95']:.3f} ms")
    print("  ops per slice (* = quiet): " + " ".join(
        f"{row['ops']}{'*' if row['quiet'] else ''}"
        for row in stats["slices"]))
    if "in_flight" in stats:
        print(f"  open loop: offered {stats['offered_ops_per_s']:.2f} ops/s, "
              f"achieved {stats['ops'] / stats['seconds']:.2f}, "
              f"sched lag p99 {stats['sched_lag_p99_ms']:.3f} ms, "
              f"in flight at sub-window ends {stats['in_flight']}")
    if outcome["trace"]:
        gap = outcome["values"]["trace.ledger_gap_share"]
        print(f"  ledger self-check: layers + untraced = "
              f"{(1 + gap) * 100:.2f}% of the window's process_time + "
              f"run-queue wait (the wait was "
              f"{stats['run_delay_seconds'] / stats['cpu_seconds']:.2%} of "
              f"the CPU time): "
              f"{'PASS' if outcome['ledger_ok'] else 'FAIL'} at "
              f"{LEDGER_TOLERANCE:.0%}; spans written "
              f"{outcome['spans_written']}, not kept {outcome['spans_lost']}")
    for problem in outcome["invalid"]:
        print(f"  INVALID: {problem}")
    for violation in outcome["violations"][:10]:
        print(f"  VIOLATION: {violation}")
    if outcome["errors"]:
        print(f"  operation errors: {outcome['errors']}")


# ---------------------------------------------------------------------------
# All workloads, one fresh subprocess each
# ---------------------------------------------------------------------------

def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_all(args: argparse.Namespace) -> int:
    contract = load_contract()
    seconds = 2.0 if args.quick else (
        args.seconds or float(contract["run_seconds"]))
    results: Dict[str, Any] = {
        "command": contract["command"], "seed": args.seed,
        "seconds": seconds, "git_sha": git_sha(),
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "platform": platform.platform()},
        "workloads": {}}
    status = 0
    started = time.perf_counter()
    for workload in contract["workloads"]:
        name = workload["name"]
        entry: Dict[str, Any] = {}
        for trace, kind in ((0, "e2e"), (1, "layers")):
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(seconds), "--trace", str(trace),
                       "--twin-ops", str(32 if args.quick else TWIN_OPS),
                       "--setup-rounds",
                       str(1 if args.quick else SETUP_ROUNDS)]
            done = subprocess.run(command, cwd=ROOT, text=True,
                                  capture_output=True, timeout=600)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode:
                status = 1
            try:
                with open(os.path.join(OUT_DIR, f"{name}.{kind}.json"),
                          encoding="utf-8") as handle:
                    outcome = json.load(handle)
            except (OSError, ValueError):
                print(f"  {name} ({kind}) left no result")
                status = 1
                continue
            entry[kind] = outcome
            if trace and not outcome["ledger_ok"] and not args.quick:
                status = 1
        results["workloads"][name] = {
            "end_to_end": entry.get("e2e", {}).get("values", {}),
            "per_layer": entry.get("layers", {}).get("values", {}),
            "result": {kind: entry[kind]["result"] for kind in entry},
            "samples": entry.get("e2e", {}).get("stats", {}).get(
                "latency_ms", {}),
            "ledger": entry.get("layers", {}).get("ledger", []),
        }
    results["wall_seconds"] = time.perf_counter() - started
    out = args.out or os.path.join(OUT_DIR, f"results-seed{args.seed}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"all workloads: {results['wall_seconds']:.0f} s wall; results in "
          f"{os.path.relpath(out, os.getcwd())}; "
          f"{'OK' if not status else 'FAILED'}")
    return status


# ---------------------------------------------------------------------------
# Comparing two result files
# ---------------------------------------------------------------------------

def compare(path_a: str, path_b: str) -> int:
    contract = load_contract()
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)
    status = 0
    print(f"{'workload':<13}{'metric':<16}{'A':>12}{'B':>12}{'diff':>9}"
          f"{'bound':>8}")
    for workload in contract["workloads"]:
        name = workload["name"]
        side_a = a["workloads"].get(name, {})
        side_b = b["workloads"].get(name, {})
        for metric in contract["end_to_end"]:
            value_a = side_a.get("end_to_end", {}).get(metric["name"])
            value_b = side_b.get("end_to_end", {}).get(metric["name"])
            if value_a is None or value_b is None:
                print(f"{name:<13}{metric['name']:<16} missing")
                status = 1
                continue
            diff = abs(value_b - value_a) / abs(value_a)
            over = diff > metric["bound"]
            status |= over
            print(f"{name:<13}{metric['name']:<16}{value_a:>12.4f}"
                  f"{value_b:>12.4f}{diff:>8.1%} {metric['bound']:>7.0%}"
                  f"{'  OVER' if over else ''}")
        for side in (side_a, side_b):
            result = side.get("result", {})
            if any(not part.get("correct") for part in result.values()):
                print(f"{name:<13}a run was not correct")
                status = 1
        if a.get("seed") == b.get("seed"):
            sim_a = {k: v for k, v in side_a.get("per_layer", {}).items()
                     if k.startswith("sim.")}
            sim_b = {k: v for k, v in side_b.get("per_layer", {}).items()
                     if k.startswith("sim.")}
            same = sim_a == sim_b
            print(f"{name:<13}sim twin counts "
                  f"{'identical' if same else 'DIFFER'}")
            status |= not same
    print("within bounds" if not status else "OUT OF BOUNDS")
    return int(status)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--twin-ops", type=int, default=TWIN_OPS,
                        help="operations the sim twin replays")
    parser.add_argument("--setup-rounds", type=int, default=SETUP_ROUNDS,
                        help="cluster set-ups timed by an untraced run")
    parser.add_argument("--quick", action="store_true",
                        help="all workloads with 2 s windows, one set-up "
                             "round and a 32-operation sim twin")
    parser.add_argument("--out", help="where the all-workloads run writes")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        return run_all(args)
    if args.seconds is None:
        args.seconds = float(load_contract()["run_seconds"])
    return run_single(args)


if __name__ == "__main__":
    sys.exit(main())
