"""Command-line interface: explore the reproduction without writing code.

Subcommands::

    python -m repro table1                     # the paper's example table
    python -m repro simulate --example 2       # full-stack measurement
    python -m repro sweep                      # availability sweep (F1)
    python -m repro tune --read-fraction 0.9 \\
        --server fast:10:0.99 --server slow:200:0.95
    python -m repro demo                       # quickstart scenario
    python -m repro serve --name server-1      # live storage daemon
    python -m repro live-demo                  # quorum ops on real TCP
    python -m repro cluster                    # sharded namespace demo
    python -m repro chaos --seed 1             # fault-injected soak
    python -m repro autopilot --degrade-server s4   # vote autopilot demo
    python -m repro trace spans.jsonl          # per-operation timelines
    python -m repro metrics --port 9464        # scrape a daemon
    python -m repro metrics n1:9464 n2:9465    # merged fleet view
    python -m repro top --cluster obs.json     # live fleet dashboard
    python -m repro doctor --delay-server n2   # one-shot health report
    python -m repro perf compare old.json new.json   # regression gate
    python -m repro perf profile --runtime live      # hot-path phases

Analytic and simulated subcommands run in simulated time and finish in
seconds; ``serve`` and ``live-demo`` use the asyncio runtime on real
loopback sockets in wall-clock time.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from .core import (EXPECTED, ServerProfile, SuiteAnalysis,
                   best_configuration, example_analysis,
                   example_configuration, make_configuration)
from .errors import InvalidConfigurationError
from .testbed import Testbed, example_data, example_testbed


def _print_rows(columns: Sequence[str], rows: Sequence[Sequence]) -> None:
    widths = [max(len(str(column)), 12) for column in columns]
    print("  ".join(str(column).rjust(width)
                    for column, width in zip(columns, widths)))
    for row in rows:
        cells = []
        for cell, width in zip(row, widths):
            if isinstance(cell, float):
                text = f"{cell:.6g}"
            else:
                text = str(cell)
            cells.append(text.rjust(width))
        print("  ".join(cells))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_table1(_args: argparse.Namespace) -> int:
    print("Gifford's example file suites (analytic model)")
    rows = []
    for example in (1, 2, 3):
        analysis = example_analysis(example)
        rows.append((f"example {example}",
                     analysis.read_latency(),
                     analysis.read_blocking_probability(),
                     analysis.write_latency(),
                     analysis.write_blocking_probability()))
    _print_rows(["configuration", "read ms", "read block",
                 "write ms", "write block"], rows)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    bed, config = example_testbed(args.example, seed=args.seed)
    suite = bed.install(config, example_data())

    def timed(operation):
        start = bed.sim.now
        result = yield from operation
        return bed.sim.now - start, result

    read_latency, read = bed.run(timed(suite.read()))
    write_latency, write = bed.run(
        timed(suite.write(example_data(b"w"))))
    bed.settle()
    expected = EXPECTED[args.example]
    print(f"example {args.example} on the full simulated stack:")
    _print_rows(
        ["operation", "simulated ms", "paper ms", "detail"],
        [("read", read_latency, expected["read_latency"],
          f"served by {read.served_by}"),
         ("write", write_latency, expected["write_latency"],
          f"quorum {','.join(write.quorum)}")])
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = example_configuration(args.example)
    print(f"blocking probability vs availability, example {args.example}")
    rows = []
    for availability in (0.5, 0.7, 0.9, 0.95, 0.99, 0.999):
        analysis = SuiteAnalysis(config, availability=availability)
        rows.append((availability,
                     analysis.read_blocking_probability(),
                     analysis.write_blocking_probability()))
    _print_rows(["availability", "read block", "write block"], rows)
    return 0


def _parse_server(text: str) -> ServerProfile:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"{text!r}: expected NAME:LATENCY:AVAILABILITY")
    name, latency, availability = parts
    try:
        return ServerProfile(name=name, latency=float(latency),
                             availability=float(availability))
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def cmd_tune(args: argparse.Namespace) -> int:
    servers = args.server or [
        ServerProfile("local", 75.0, 0.99),
        ServerProfile("near", 100.0, 0.99),
        ServerProfile("far", 750.0, 0.99),
    ]
    try:
        best = best_configuration(
            servers, read_fraction=args.read_fraction,
            min_read_availability=args.min_read_availability,
            min_write_availability=args.min_write_availability,
            max_votes_per_rep=args.max_votes)
    except InvalidConfigurationError as error:
        print(f"no feasible configuration: {error}", file=sys.stderr)
        return 1
    config = best.config
    print(f"best configuration for read fraction "
          f"{args.read_fraction:.2f}:")
    _print_rows(
        ["server", "votes", "latency ms", "availability"],
        [(profile.name,
          config.representative(f"rep-{profile.name}").votes,
          profile.latency, profile.availability)
         for profile in servers])
    print(f"\n  r = {config.read_quorum}, w = {config.write_quorum}, "
          f"N = {config.total_votes}")
    _print_rows(
        ["metric", "value"],
        [("read latency ms", best.read_latency),
         ("write latency ms", best.write_latency),
         ("read availability", best.read_availability),
         ("write availability", best.write_availability),
         ("mean latency ms", best.mean_latency)])
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    """Build a demo deployment, degrade it, and show the admin view."""
    from .core import suite_status, verify_invariants

    bed = Testbed(servers=["s1", "s2", "s3"], seed=args.seed)
    config = make_configuration(
        "demo", [("s1", 1), ("s2", 1), ("s3", 1)], 2, 2,
        latency_hints={"s1": 10.0, "s2": 20.0, "s3": 30.0})
    suite = bed.install(config, b"status-demo")
    suite.refresher.enabled = False
    bed.run(suite.write(b"v2"))        # leaves one representative stale
    suite.inquiry_timeout = 200.0
    bed.crash("s3")

    status = bed.run(suite_status(suite))
    print(f"suite {status.suite_name!r} "
          f"(configuration v{status.config_version}):")
    _print_rows(
        ["representative", "server", "votes", "reachable", "version"],
        [(rep.rep_id, rep.server, rep.votes, str(rep.reachable),
          rep.version if rep.version is not None else "-")
         for rep in status.representatives])
    print(f"\n  current version: {status.current_version}")
    print(f"  reachable votes: {status.reachable_votes} "
          f"(read needs {config.read_quorum}, "
          f"write needs {config.write_quorum})")
    print(f"  stale: {[rep.rep_id for rep in status.stale]}")
    print(f"  unreachable: "
          f"{[rep.rep_id for rep in status.unreachable]}")
    report = bed.run(verify_invariants(suite))
    print(f"  invariants: {'OK' if report.ok else report.problems}")
    return 0


def cmd_scaling(args: argparse.Namespace) -> int:
    """Majority suites of growing size: availability and message cost."""
    from .core import SuiteAnalysis
    from .core.analysis import message_cost

    print(f"majority quorums, per-replica availability "
          f"{args.availability}")
    rows = []
    for size in (3, 5, 7, 9, 11):
        servers = [(f"s{i}", 1) for i in range(size)]
        quorum = size // 2 + 1
        config = make_configuration(f"scale-{size}", servers, quorum,
                                    quorum)
        analysis = SuiteAnalysis(config, availability=args.availability)
        costs = message_cost(config)
        rows.append((size, quorum, analysis.write_availability(),
                     costs["read"], costs["write"]))
    _print_rows(["members", "quorum", "op availability", "read msgs",
                 "write msgs"], rows)
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    bed = Testbed(servers=["s1", "s2", "s3"], seed=args.seed)
    config = make_configuration(
        "demo", [("s1", 1), ("s2", 1), ("s3", 1)], 2, 2,
        latency_hints={"s1": 10.0, "s2": 20.0, "s3": 30.0})
    suite = bed.install(config, b"hello, 1979")
    read = bed.run(suite.read())
    print(f"read {read.data!r} at version {read.version} "
          f"(served by {read.served_by})")
    write = bed.run(suite.write(b"weighted voting works"))
    print(f"wrote version {write.version} to quorum {write.quorum}")
    bed.crash("s1")
    read = bed.run(suite.read())
    print(f"with s1 crashed, read {read.data!r} "
          f"(served by {read.served_by})")
    bed.restart("s1")
    bed.settle()
    versions = sorted(node.server.fs.stat("suite:demo").version
                      for node in bed.servers.values())
    print(f"after background refresh, versions: {versions}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run one live storage server daemon until interrupted."""
    from .live import LiveStorageServer

    async def _serve() -> None:
        server = LiveStorageServer(args.name, data_dir=args.data_dir,
                                   num_pages=args.num_pages,
                                   page_size=args.page_size,
                                   obs=not args.no_obs)
        host, port = await server.start(
            args.host, args.port,
            obs_port=None if args.no_obs else args.obs_port)
        where = (f"data in {args.data_dir}" if args.data_dir
                 else "in-memory pages")
        print(f"storage server {args.name!r} listening on "
              f"{host}:{port} ({where})", flush=True)
        if server.obs_address is not None:
            obs_host, obs_port = server.obs_address
            print(f"observability on http://{obs_host}:{obs_port} "
                  f"(/metrics /healthz /trace)", flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.close()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    except OSError as exc:  # e.g. port already in use
        print(f"repro serve: cannot listen on "
              f"{args.host}:{args.port}: {exc.strerror or exc}",
              file=sys.stderr)
        return 1
    return 0


def cmd_live_demo(args: argparse.Namespace) -> int:
    """The quickstart demo over real loopback TCP sockets."""
    from .live import LoopbackCluster

    async def _demo() -> None:
        async with LoopbackCluster(["s1", "s2", "s3"],
                                   seed=args.seed) as cluster:
            for name, server in cluster.servers.items():
                host, port = server.address
                print(f"booted {name} on {host}:{port}")
            config = make_configuration(
                "live-demo", [("s1", 1), ("s2", 1), ("s3", 1)], 2, 2,
                latency_hints={"s1": 10.0, "s2": 20.0, "s3": 30.0})
            suite = await cluster.install(config, b"hello, 1979 (live)")
            read = await cluster.read(suite)
            print(f"read {read.data!r} at version {read.version} "
                  f"(served by {read.served_by})")
            write = await cluster.write(suite, b"weighted voting over TCP")
            print(f"wrote version {write.version} to quorum "
                  f"{sorted(write.quorum)}")
            await cluster.stop_server("s1")
            read = await cluster.read(suite)
            print(f"with s1 stopped, read {read.data!r} at version "
                  f"{read.version} (served by {read.served_by})")
            write = await cluster.write(suite, b"s1 missed this write")
            print(f"with s1 stopped, wrote version {write.version} "
                  f"to quorum {sorted(write.quorum)}")
            await cluster.restart_server("s1")
            # s1 came back stale; ask the refresher to bring it current
            # and wait for the repair to land on its file system.
            cluster.client.refresher.schedule(suite, ["rep-1"],
                                              write.version)
            loop = asyncio.get_event_loop()
            deadline = loop.time() + 10.0
            while loop.time() < deadline:
                versions = sorted(
                    node.server.fs.stat(config.file_name).version
                    for node in cluster.servers.values())
                if versions == [write.version] * 3:
                    break
                await asyncio.sleep(0.05)
            print(f"after restart and background refresh, "
                  f"versions: {versions}")

    asyncio.run(_demo())
    return 0


def _render_autopilot_state(state: Dict) -> None:
    """Human-readable reassignment ledger + final posture."""
    records = state.get("reassignments") or []
    if records:
        print("  reassignment ledger:")
        for rec in records:
            votes = " ".join(f"{rep}={count}" for rep, count
                             in sorted(rec["votes_after"].items()))
            if rec["applied"]:
                fate = f"applied (config v{rec['config_version']})"
            elif rec.get("rejected_by_gate"):
                fate = f"gate-rejected: {rec['rejected_by_gate']}"
            else:
                fate = f"failed: {rec.get('error')}"
            print(f"    t={rec['at']:.0f}ms {rec['kind']} "
                  f"{rec['rep_id']} ({rec['server']}, score "
                  f"{rec['score']:.2f}) -> {votes} — {fate}")
    weights = " ".join(f"{rep}={count}" for rep, count
                       in sorted(state["weights"].items()))
    posture = ("at seed weights" if state["at_seed_weights"]
               else "OFF seed weights")
    print(f"  final votes: {weights} ({posture}); "
          f"{state['applied']} applied, "
          f"{state['rejected_gate']} gate-rejected, "
          f"{state['errors']} errors")


def _autopilot_shift_detected(state: Dict, server: str) -> bool:
    """Did an applied demotion move votes off ``server``?"""
    return any(rec["kind"] == "demote" and rec["applied"]
               and rec["server"] == server
               for rec in state.get("reassignments") or [])


def _check_autopilot_expectations(runtime: str, state: "Optional[Dict]",
                                  expect_shift: "Optional[str]",
                                  expect_restore: bool) -> bool:
    """Print known-answer verdicts; True when any expectation failed."""
    if state is None:
        print(f"  known-answer [{runtime}]: autopilot was not enabled "
              "(pass --autopilot)")
        return True
    failed = False
    if expect_shift:
        detected = _autopilot_shift_detected(state, expect_shift)
        print(f"  known-answer [{runtime}]: votes shifted off "
              f"{expect_shift} {'DETECTED' if detected else 'MISSED'}")
        failed |= not detected
    if expect_restore:
        restored = bool(state["at_seed_weights"])
        print(f"  known-answer [{runtime}]: weights restored to seed "
              f"{'CONFIRMED' if restored else 'MISSED'}")
        failed |= not restored
    return failed


def cmd_chaos(args: argparse.Namespace) -> int:
    """Invariant-checked soak under deterministic fault injection."""
    import json
    import os

    from .chaos.invariants import history_to_json
    from .chaos.soak import SoakConfig, run_live_soak, run_sim_soak

    try:
        config = SoakConfig(reps=args.reps, ops=args.ops, seed=args.seed,
                            read_fraction=args.read_fraction,
                            loss=args.loss, horizon=args.horizon,
                            nemesis_kind=args.nemesis,
                            autopilot=args.autopilot,
                            degrade_server=args.degrade_server,
                            degrade_delay_ms=args.degrade_delay_ms)
    except ValueError as exc:
        print(f"repro chaos: {exc}", file=sys.stderr)
        return 2
    runtimes = (["live", "sim"] if args.runtime == "both"
                else [args.runtime])
    export_dir = args.export_dir
    if export_dir is not None:
        os.makedirs(export_dir, exist_ok=True)

    def _artifact(name: str) -> "Optional[str]":
        if export_dir is None:
            return None
        return os.path.join(export_dir,
                            f"chaos-seed{args.seed}-{name}")

    def _flight_dir(runtime: str) -> "Optional[str]":
        if args.flight_dir is None:
            return None
        return os.path.join(args.flight_dir,
                            f"seed{args.seed}-{runtime}")

    reports = {}
    failed_expectation = False
    for runtime in runtimes:
        extras = ""
        if args.autopilot:
            extras += " autopilot=on"
        if args.degrade_server:
            extras += (f" degrade={args.degrade_server}"
                       f"(+{args.degrade_delay_ms:g}ms)")
        print(f"soak [{runtime}] seed={args.seed} ops={args.ops} "
              f"reps={args.reps} loss={config.loss} "
              f"nemesis={config.nemesis_kind} "
              f"horizon={config.nemesis_horizon():.0f}ms{extras} ...",
              flush=True)
        if runtime == "live":
            report = asyncio.run(run_live_soak(
                config, trace_path=_artifact("live-trace.jsonl"),
                flight_dir=_flight_dir(runtime)))
        else:
            report = run_sim_soak(config,
                                  flight_dir=_flight_dir(runtime))
        reports[runtime] = report
        print(report.summary())
        if _flight_dir(runtime) is not None:
            print(f"  flight journal -> {_flight_dir(runtime)}")
        if report.autopilot is not None:
            _render_autopilot_state(report.autopilot)
        history_path = _artifact(f"{runtime}-history.json")
        if history_path is not None or not report.ok:
            # Always dump the history on a violation, even without
            # --export-dir: a failed soak must leave evidence behind.
            history_path = (history_path
                            or f"chaos-seed{args.seed}-{runtime}"
                               f"-history.json")
            with open(history_path, "w", encoding="utf-8") as handle:
                json.dump({"seed": args.seed, "runtime": runtime,
                           "verdict": report.verdict,
                           "breakers": report.breakers,
                           "chaos": report.chaos_stats,
                           "autopilot": report.autopilot,
                           "history": history_to_json(report.history)},
                          handle, indent=2)
            print(f"  history -> {history_path}")
        for violation in report.report.violations:
            print(f"  VIOLATION op {violation.index} "
                  f"[{violation.rule}]: {violation.detail}")
        if args.expect_shift or args.expect_restore:
            failed_expectation |= _check_autopilot_expectations(
                runtime, report.autopilot, args.expect_shift,
                args.expect_restore)

    if len(reports) == 2:
        live, sim = reports["live"], reports["sim"]
        match = live.verdict == sim.verdict
        print(f"verdict parity: live={live.verdict} sim={sim.verdict} "
              f"-> {'MATCH' if match else 'MISMATCH'}")
        if not match:
            return 1
    if not all(report.ok for report in reports.values()):
        return 1
    return 2 if failed_expectation else 0


def cmd_autopilot(args: argparse.Namespace) -> int:
    """Vote autopilot scenario: degrade, watch votes shift, heal,
    watch them return — with the invariant checker over the whole run."""
    import json
    import os

    from .chaos.soak import SoakConfig, run_live_soak, run_sim_soak

    degrade = (None if args.degrade_server in (None, "none")
               else args.degrade_server)
    try:
        config = SoakConfig(reps=args.reps, ops=args.ops, seed=args.seed,
                            nemesis_kind=args.nemesis, autopilot=True,
                            degrade_server=degrade,
                            degrade_delay_ms=args.degrade_delay_ms)
    except ValueError as exc:
        print(f"repro autopilot: {exc}", file=sys.stderr)
        return 2
    runtimes = (["live", "sim"] if args.runtime == "both"
                else [args.runtime])
    states: Dict[str, Dict] = {}
    failed_expectation = False
    all_ok = True
    for runtime in runtimes:
        scenario = f"nemesis={args.nemesis}"
        if degrade:
            scenario += (f" degrade={degrade} "
                         f"(+{args.degrade_delay_ms:g}ms, heals at op "
                         f"{config.degrade_heal_index()})")
        print(f"autopilot [{runtime}] seed={args.seed} ops={args.ops} "
              f"reps={args.reps} {scenario} ...", flush=True)
        flight_dir = None
        if args.flight_dir is not None:
            flight_dir = os.path.join(args.flight_dir,
                                      f"seed{args.seed}-{runtime}")
        if runtime == "live":
            report = asyncio.run(run_live_soak(config,
                                               flight_dir=flight_dir))
        else:
            report = run_sim_soak(config, flight_dir=flight_dir)
        print(report.summary())
        if flight_dir is not None:
            print(f"  flight journal -> {flight_dir}")
        state = report.autopilot
        states[runtime] = state
        _render_autopilot_state(state)
        all_ok &= report.ok
        for violation in report.report.violations:
            print(f"  VIOLATION op {violation.index} "
                  f"[{violation.rule}]: {violation.detail}")
        if args.expect_shift or args.expect_restore:
            failed_expectation |= _check_autopilot_expectations(
                runtime, state, args.expect_shift, args.expect_restore)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(states, handle, indent=2)
        print(f"autopilot state -> {args.json}")
    if not all_ok:
        return 1
    return 2 if failed_expectation else 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Audit and deterministically re-execute flight journals."""
    import os
    import tempfile

    from .obs.flight import FlightJournalError
    from .replay import re_execute, verify_journal

    if not args.verify and not args.re_execute:
        print("repro replay: pass --verify DIR and/or "
              "--re-execute DIR", file=sys.stderr)
        return 2

    failed = False
    for directory in args.verify or []:
        try:
            verdict = verify_journal(
                directory, read_threshold_ms=args.slo_read_ms)
        except (OSError, FlightJournalError) as exc:
            print(f"repro replay: cannot verify {directory}: {exc}",
                  file=sys.stderr)
            failed = True
            continue
        print(f"{directory}: {verdict.summary()}")
        for finding in verdict.findings():
            print(f"  - {finding}")
        if args.slo:
            for status in verdict.slos:
                print(f"  slo {status.name}: {status.state} "
                      f"({status.good}/{status.total} good)")
        failed |= not verdict.ok

    if args.re_execute:
        out_dir = args.out_dir or os.path.join(
            tempfile.mkdtemp(prefix="repro-replay-"), "journal")
        try:
            report = re_execute(args.re_execute, out_dir)
        except (OSError, FlightJournalError, ValueError) as exc:
            print(f"repro replay: cannot re-execute "
                  f"{args.re_execute}: {exc}", file=sys.stderr)
            return 1
        print(report.summary())
        print(f"  replay journal -> {out_dir}")
        failed |= not report.ok

    return 1 if failed else 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Dump/filter a JSONL span export as per-operation timelines."""
    from .obs import group_traces, load_jsonl, render_trace, summarize

    spans = []
    for path in args.files:
        try:
            spans.extend(load_jsonl(path))
        except OSError as exc:
            print(f"repro trace: cannot read {path}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return 1
    if args.operation:
        keep = {span.trace_id for span in spans
                if span.parent_id is None and span.name == args.operation}
        spans = [span for span in spans if span.trace_id in keep]
    if args.trace_id:
        spans = [span for span in spans
                 if span.trace_id == args.trace_id]
    if not spans:
        print("no spans match", file=sys.stderr)
        return 1
    if args.list:
        _print_rows(
            ["trace", "operation", "origin", "start ms", "duration ms",
             "spans", "status"],
            [(summary.trace_id, summary.root_name, summary.origin,
              summary.start, summary.duration, summary.span_count,
              summary.status)
             for summary in summarize(spans)])
        return 0
    traces = group_traces(spans)
    ordered = sorted(traces.values(),
                     key=lambda members: min(span.start
                                             for span in members))
    for index, members in enumerate(ordered):
        if index:
            print()
        print(render_trace(members, events=not args.no_events))
    return 0


def _obs_targets(args: argparse.Namespace) -> Dict[str, Tuple[str, int]]:
    """Resolve scrape targets from --cluster, HOST:PORT args, --port.

    Returns ``name -> (host, port)``; raises ``ValueError`` on
    unreadable manifests or malformed targets.
    """
    from .obs.aggregate import load_obs_manifest

    addresses: Dict[str, Tuple[str, int]] = {}
    manifest = getattr(args, "cluster", None)
    if manifest:
        try:
            addresses.update(load_obs_manifest(manifest))
        except (OSError, ValueError, KeyError, IndexError,
                TypeError) as exc:
            raise ValueError(
                f"cannot read manifest {manifest}: {exc}") from exc
    default_host = getattr(args, "host", "127.0.0.1")
    for target in getattr(args, "targets", None) or []:
        host, _, port_text = target.rpartition(":")
        try:
            port = int(port_text)
        except ValueError:
            raise ValueError(
                f"{target!r}: expected HOST:PORT") from None
        addresses[target] = (host or default_host, port)
    port = getattr(args, "port", None)
    if port is not None:
        addresses[f"{default_host}:{port}"] = (default_host, port)
    return addresses


def _metrics_single(args: argparse.Namespace, host: str,
                    port: int) -> int:
    """The classic single-daemon scrape (kept verbatim for scripts)."""
    from .obs import fetch, parse_exposition

    async def _scrape() -> "tuple[int, str]":
        return await fetch(host, port, args.path, timeout=args.timeout)

    try:
        status, body = asyncio.run(_scrape())
    except (OSError, asyncio.TimeoutError) as exc:
        print(f"repro metrics: cannot scrape "
              f"http://{host}:{port}{args.path}: {exc}",
              file=sys.stderr)
        return 1
    if status != 200:
        print(f"repro metrics: HTTP {status} from "
              f"http://{host}:{port}{args.path}",
              file=sys.stderr)
        return 1
    if args.raw:
        print(body, end="" if body.endswith("\n") else "\n")
        return 0
    samples = parse_exposition(body)
    if args.filter:
        samples = [(name, labels, value)
                   for name, labels, value in samples
                   if args.filter in name]
    _print_rows(
        ["metric", "labels", "value"],
        [(name,
          ",".join(f"{key}={labels[key]}" for key in sorted(labels))
          or "-",
          value)
         for name, labels, value in samples])
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Scrape daemon /metrics endpoints; merge when given a fleet."""
    try:
        addresses = _obs_targets(args)
    except ValueError as exc:
        print(f"repro metrics: {exc}", file=sys.stderr)
        return 2
    if not addresses:
        print("repro metrics: no targets (use --port, HOST:PORT "
              "arguments, or --cluster MANIFEST)", file=sys.stderr)
        return 2
    if len(addresses) == 1:
        ((host, port),) = addresses.values()
        return _metrics_single(args, host, port)
    if args.raw:
        print("repro metrics: --raw needs a single target",
              file=sys.stderr)
        return 2

    from .obs.aggregate import render_fleet_view, scrape_fleet_sync

    view = scrape_fleet_sync(addresses, path=args.path,
                             timeout=args.timeout)
    for name, error in sorted(view.errors.items()):
        print(f"repro metrics: cannot scrape {name}: {error}",
              file=sys.stderr)
    if not view.sources:
        return 1
    rows = []
    for (name, labels), value in sorted(view.merged_counters().items()):
        if args.filter and args.filter not in name:
            continue
        rows.append((name,
                     ",".join(f"{key}={val}" for key, val in labels)
                     or "-",
                     value))
    _print_rows(["metric", "labels", "merged value"], rows)
    print()
    print(render_fleet_view(view))
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live-refreshing terminal dashboard over the merged fleet view."""
    import time

    from .obs.aggregate import render_fleet_view, scrape_fleet_sync

    try:
        addresses = _obs_targets(args)
    except ValueError as exc:
        print(f"repro top: {exc}", file=sys.stderr)
        return 2
    if not addresses:
        print("repro top: no targets (pass HOST:PORT arguments or "
              "--cluster MANIFEST)", file=sys.stderr)
        return 2
    refresh = 0
    try:
        while True:
            view = scrape_fleet_sync(addresses, path=args.path,
                                     timeout=args.timeout)
            body = render_fleet_view(view, top=args.top)
            if not args.no_clear:
                print("\x1b[2J\x1b[H", end="")
            refresh += 1
            print(f"repro top — refresh {refresh}, "
                  f"{len(view.sources)}/{len(addresses)} sources up")
            print(body, flush=True)
            if args.iterations and refresh >= args.iterations:
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    return 0


def _doctor_offline(args: argparse.Namespace) -> int:
    """Diagnose exported artifacts: traces, histories, flight journals.

    Exit contract (pinned by the test suite): 0 when the artifacts
    look healthy, 1 when they contain *findings* (invariant
    violations, failed journal verification), 2 when a known-answer
    ``--expect-*`` check misses.  Unreadable artifacts are findings
    too — a postmortem that cannot read its evidence has failed.
    """
    import json

    from .obs import load_jsonl
    from .obs.critical_path import analyze_quorum_paths

    findings: List[str] = []
    spans = []
    for path in args.trace or []:
        try:
            spans.extend(load_jsonl(path))
        except OSError as exc:
            print(f"repro doctor: cannot read {path}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return 1
    report = analyze_quorum_paths(spans)
    print(f"repro doctor — offline: {len(spans)} spans from "
          f"{len(args.trace or [])} trace file(s)")
    print(report.render(args.top))

    # Breaker evidence from chaos histories: a representative that died
    # mid-run shows up as a tripped breaker even if it healed later.
    tripped: Dict[str, Tuple[str, int]] = {}
    autopilot_flagged: Dict[str, str] = {}   # server -> evidence
    verdicts = []
    for path in args.history or []:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"repro doctor: cannot read {path}: {exc}",
                  file=sys.stderr)
            return 1
        verdict = str(payload.get("verdict", "?"))
        if verdict not in ("OK", "?"):
            findings.append(f"history {path}: verdict {verdict}")
        verdicts.append((path, verdict))
        for server, info in sorted(
                (payload.get("breakers") or {}).items()):
            if isinstance(info, dict):
                state = str(info.get("state", "?"))
                opens = int(info.get("opens", 0) or 0)
            else:
                state, opens = str(info), 0
            seen_state, seen_opens = tripped.get(server, ("closed", 0))
            tripped[server] = (
                state if state != "closed" else seen_state,
                max(opens, seen_opens))
        pilot = payload.get("autopilot")
        if isinstance(pilot, dict):
            verdicts[-1] = (path, verdicts[-1][1] + (
                f" | autopilot: {pilot.get('applied', 0)} applied, "
                f"{pilot.get('rejected_gate', 0)} gate-rejected, "
                + ("at" if pilot.get("at_seed_weights") else "OFF")
                + " seed weights"))
            for server in (pilot.get("flagged") or {}):
                autopilot_flagged.setdefault(server, "flagged")
            for rec in pilot.get("reassignments") or []:
                if rec.get("kind") == "demote" and rec.get("applied"):
                    autopilot_flagged[rec["server"]] = "votes shifted"
    if verdicts:
        print()
        for path, verdict in verdicts:
            print(f"history {path}: verdict {verdict}")
    flagged = sorted(server for server, (state, opens) in tripped.items()
                     if state != "closed" or opens > 0)
    if flagged:
        print("representatives with tripped breakers: " + ", ".join(
            f"{server} ({tripped[server][0]}, {tripped[server][1]} "
            f"opens)" for server in flagged))
    if autopilot_flagged:
        print("representatives flagged by the autopilot: " + ", ".join(
            f"{server} ({evidence})" for server, evidence
            in sorted(autopilot_flagged.items())))

    for directory in getattr(args, "flight", None) or []:
        from .obs.flight import FlightJournalError
        from .replay import verify_journal
        print()
        try:
            verdict = verify_journal(directory)
        except (OSError, FlightJournalError) as exc:
            print(f"repro doctor: cannot verify flight journal "
                  f"{directory}: {exc}", file=sys.stderr)
            findings.append(f"flight {directory}: unreadable ({exc})")
            continue
        print(f"flight {directory}: {verdict.summary()}")
        for finding in verdict.findings():
            print(f"  - {finding}")
            findings.append(f"flight {directory}: {finding}")

    if findings:
        print()
        print(f"findings: {len(findings)}")

    if args.expect_dead:
        detected = args.expect_dead in flagged
        print(f"known-answer: dead representative {args.expect_dead} "
              f"{'DETECTED' if detected else 'MISSED'}")
        if not detected:
            return 2
    if args.expect_slow:
        top = report.top_blockers(1)
        rep = f"rep-{args.expect_slow}"
        detected = ((bool(top) and top[0][0] in (rep, args.expect_slow))
                    or args.expect_slow in autopilot_flagged)
        print(f"known-answer: slow representative {args.expect_slow} "
              f"{'DETECTED' if detected else 'MISSED'} as top blocker "
              f"or autopilot target")
        if not detected:
            return 2
    return 1 if findings else 0


def _doctor_scenario(args: argparse.Namespace) -> int:
    """Seeded sim-cluster checkup with optional injected faults.

    Replication degree 2 (r = w = 2) means every representative is on
    every quorum it serves — a slowed server deterministically gates
    each of its suites' gathers, so the critical path must name it.
    """
    from .chaos.health import HealthTracker
    from .chaos.policy import ChaosPolicy
    from .cluster import ClusterSpec, SimCluster
    from .errors import ReproError
    from .obs.critical_path import analyze_quorum_paths
    from .obs.slo import (OK, SLOEvaluator, read_latency_slo,
                          staleness_slo, success_rate_slo)
    from .sim.rng import RandomStreams

    spec = ClusterSpec(servers=args.servers, suites=args.suites,
                       directory_shards=1, replication=2,
                       seed=args.seed)
    for flag, server in (("--delay-server", args.delay_server),
                         ("--kill-server", args.kill_server)):
        if server is not None and server not in spec.server_names:
            print(f"repro doctor: {flag} {server!r} is not in the "
                  f"fleet {spec.server_names}", file=sys.stderr)
            return 2

    suite_kwargs = {"inquiry_timeout": 250.0, "data_timeout": 500.0,
                    "max_attempts": 2, "retry_backoff": 40.0}
    cluster = SimCluster(spec, suite_kwargs=suite_kwargs,
                         call_timeout=300.0, obs=True)
    bed = cluster.bed
    streams = RandomStreams(seed=args.seed)
    policy = ChaosPolicy(streams=streams)   # all probabilities zero
    policy.enabled = False                  # clean bootstrap first
    bed.network.chaos = policy
    if args.delay_server:
        policy.slow_host(args.delay_server, args.delay_ms)
    health = HealthTracker(clock=lambda: bed.sim.now,
                           metrics=bed.metrics)
    bed.clients["client"].endpoint.health = health
    suite_kwargs["health"] = health

    cluster.start()
    pilots: Dict[str, "object"] = {}
    if args.autopilot:
        from .autonomy import WeightAutopilot
        # Diagnosis-first posture: the default policy's survivability
        # floor (min_voting_reps=2) can never be met by shifting votes
        # inside a replication-2 suite, so the pilots observe, score
        # and flag — and the gate records every demotion it refused.
        pilots = {name: WeightAutopilot(cluster.handles[name],
                                        health=health)
                  for name in spec.suite_names}
    # Attribution covers the checkup workload, not the bootstrap.
    bed.collector.ring.clear()
    if args.kill_server:
        bed.crash(args.kill_server)
    policy.enabled = True

    slo = SLOEvaluator([read_latency_slo(threshold_ms=args.slo_read_ms),
                        success_rate_slo(), staleness_slo()])
    clock = lambda: bed.sim.now  # noqa: E731
    rng = streams.stream("doctor:ops")
    rotation = sorted(pilots)
    # Round-robin one pilot per interval: each pilot's observation
    # window then spans len(pilots) intervals of traffic — enough
    # blocking mass per suite for a confident verdict.
    pilot_interval = max(1, args.ops // 12)

    def drive():
        names = spec.suite_names
        failures = 0
        steps = 0
        for index in range(args.ops):
            name = rng.choice(names)
            handle = cluster.handles[name]
            is_read = rng.random() < args.read_fraction
            started = clock()
            try:
                if is_read:
                    yield from handle.read()
                else:
                    yield from handle.write(
                        f"{name}:doctor-{index}".encode())
                ok = True
            except ReproError:
                ok = False
                failures += 1
            finished = clock()
            if is_read:
                slo.observe("read_latency", finished, finished - started)
            slo.observe("success", finished, 1.0 if ok else 0.0)
            if rotation and (index + 1) % pilot_interval == 0:
                target = rotation[steps % len(rotation)]
                steps += 1
                yield from pilots[target].step()
        return failures

    failures = bed.run(drive())
    now = clock()

    from .obs.aggregate import render_fleet_view
    view = cluster.fleet_view()
    for (_suite, _rep), lag in sorted(view.version_lag_skyline().items()):
        slo.observe("staleness", now, lag)
    trace_report = analyze_quorum_paths(bed.collector.spans())
    online_report = view.quorum_blocking()

    injected = []
    if args.delay_server:
        injected.append(f"slowed {args.delay_server} "
                        f"(+{args.delay_ms:g} ms/message)")
    if args.kill_server:
        injected.append(f"crashed {args.kill_server}")
    print(f"repro doctor — sim scenario: {spec.servers} servers × "
          f"{spec.suites} suites, replication 2, seed {args.seed}")
    if injected:
        print(f"  injected: {'; '.join(injected)}")
    print(f"  drove {args.ops} ops, {failures} failed, "
          f"{now:.0f} ms virtual")
    print()
    print(render_fleet_view(view, top=args.top))
    print()
    print("critical path (trace plane):")
    print(trace_report.render(args.top))
    print()
    print("critical path (metrics plane):")
    print(online_report.render(args.top))
    print()
    print(slo.render(now))

    # -- findings ------------------------------------------------------
    findings: List[str] = []
    trace_top = trace_report.top_blockers(1)
    online_top = online_report.top_blockers(1)
    if trace_top and online_top and trace_top[0][0] != online_top[0][0]:
        findings.append(f"trace and metrics planes disagree on the top "
                        f"blocker ({trace_top[0][0]} vs "
                        f"{online_top[0][0]})")
    primary = (trace_report if trace_report.total_blocked_ms
               else online_report)
    shares = primary.blocking_share()
    if len(shares) > 1:
        fair = 1.0 / len(shares)
        for rep, _blocked, _closes in primary.top_blockers(1):
            share = shares.get(rep, 0.0)
            if share > 2.0 * fair:
                findings.append(
                    f"quorum wait concentrates on {rep}: "
                    f"{share:.0%} of attributed blocking "
                    f"(fair share {fair:.0%})")
    snapshot = health.snapshot()
    for server, info in sorted(snapshot.items()):
        if info["state"] != "closed" or info["opens"]:
            findings.append(f"circuit breaker tripped for {server} "
                            f"({info['state']}, {info['opens']} opens)")
    for status in slo.evaluate(now):
        if status.state != OK:
            findings.append(
                f"SLO {status.name} is {status.state.upper()}: "
                f"burn {status.burn_long:.1f} long / "
                f"{status.burn_short:.1f} short")
    stale = sorted(((lag, suite, rep) for (suite, rep), lag
                    in view.version_lag_skyline().items() if lag > 0.0),
                   reverse=True)
    for lag, suite, rep in stale[:3]:
        findings.append(f"stale copy: {suite}/{rep} is {int(lag)} "
                        f"version(s) behind")
    if failures:
        findings.append(f"{failures}/{args.ops} operations failed")
    pilot_flagged: Dict[str, List[str]] = {}
    if pilots:
        rejected = applied = 0
        for name in rotation:
            state = pilots[name].state()
            rejected += state["rejected_gate"]
            applied += state["applied"]
            for server in state["flagged"]:
                pilot_flagged.setdefault(server, []).append(name)
        for server, suites in sorted(pilot_flagged.items()):
            findings.append(
                f"autopilot flagged {server} as unhealthy in "
                f"{len(suites)} suite(s): {', '.join(suites)}")
        if applied:
            findings.append(
                f"autopilot applied {applied} vote reassignment(s)")
        if rejected:
            findings.append(
                f"autopilot held {rejected} demotion(s) at the safety "
                f"gate (replication-2 suites sit on the "
                f"min_voting_reps floor)")

    print()
    if findings:
        print("findings:")
        for finding in findings:
            print(f"  - {finding}")
    else:
        print("findings: none — fleet looks healthy")

    # -- known-answer expectations (the CI harness leans on these) -----
    failed_expectation = False
    if args.expect_slow:
        rep = f"rep-{args.expect_slow}"
        detected = (bool(trace_top) and trace_top[0][0] == rep
                    and bool(online_top) and online_top[0][0] == rep)
        print(f"known-answer: slow representative {args.expect_slow} "
              f"{'DETECTED' if detected else 'MISSED'} as top blocker "
              f"in both planes")
        failed_expectation |= not detected
        if pilots:
            flagged_ap = args.expect_slow in pilot_flagged
            print(f"known-answer: autopilot flagged slow server "
                  f"{args.expect_slow} "
                  f"{'DETECTED' if flagged_ap else 'MISSED'}")
            failed_expectation |= not flagged_ap
    if args.expect_dead:
        flagged = {server for server, info in snapshot.items()
                   if info["state"] != "closed" or info["opens"]}
        detected = args.expect_dead in flagged
        print(f"known-answer: dead representative {args.expect_dead} "
              f"{'DETECTED' if detected else 'MISSED'}")
        failed_expectation |= not detected
    return 2 if failed_expectation else 0


def cmd_doctor(args: argparse.Namespace) -> int:
    """One-shot health report: offline artifacts or a seeded scenario."""
    if args.trace or args.history or args.flight:
        return _doctor_offline(args)
    return _doctor_scenario(args)


def cmd_perf_compare(args: argparse.Namespace) -> int:
    """Diff two BENCH_*.json files; exit 1 on a gated regression."""
    from .perf import SchemaError, compare_results, load_results

    try:
        old = load_results(args.old)
        new = load_results(args.new)
    except (OSError, ValueError) as exc:
        detail = getattr(exc, "strerror", None) or str(exc)
        print(f"repro perf compare: {detail}", file=sys.stderr)
        return 2
    report = compare_results(old, new, tolerance=args.tolerance)
    print(report.render(verbose=args.verbose))
    return 1 if report.failed else 0


def _profile_sim(args: argparse.Namespace):
    """Seeded read/write workload on the simulated runtime."""
    import time

    bed = Testbed(servers=["s1", "s2", "s3"], seed=args.seed,
                  profile=True)
    config = make_configuration(
        "perf", [("s1", 1), ("s2", 1), ("s3", 1)], 2, 2,
        latency_hints={"s1": 10.0, "s2": 20.0, "s3": 30.0})
    suite = bed.install(config, b"profile payload")
    start = time.monotonic()
    for index in range(args.ops):
        if index % 10 < 7:                # 70% reads
            bed.run(suite.read())
        else:
            bed.run(suite.write(b"profile payload %d" % index))
    bed.settle()
    # Phase durations are virtual milliseconds, but the overhead budget
    # is about *wall* cost — so the window the profiler is judged
    # against is the real time the workload took to simulate.
    return bed.profiler, (time.monotonic() - start) * 1000.0


def _profile_live(args: argparse.Namespace):
    """Seeded read/write workload on the live loopback runtime."""
    import tempfile
    import time

    from .live import LoopbackCluster

    async def scenario(cluster):
        async with cluster:
            config = make_configuration(
                "perf", [("s1", 1), ("s2", 1), ("s3", 1)], 2, 2,
                latency_hints={"s1": 10.0, "s2": 20.0, "s3": 30.0})
            suite = await cluster.install(config, b"profile payload")
            start = time.monotonic()
            for index in range(args.ops):
                if index % 10 < 7:
                    await cluster.read(suite)
                else:
                    await cluster.write(suite,
                                        b"profile payload %d" % index)
            return (time.monotonic() - start) * 1000.0

    with tempfile.TemporaryDirectory() as data_root:
        # On-disk stable stores so "storage.page_write" is a real phase.
        cluster = LoopbackCluster(["s1", "s2", "s3"], seed=args.seed,
                                  obs=False, data_root=data_root,
                                  profile=True)
        elapsed_ms = asyncio.run(scenario(cluster))
    return cluster.profiler, elapsed_ms


def cmd_perf_profile(args: argparse.Namespace) -> int:
    """Print a top-N hot-path phase breakdown for a seeded workload."""
    profiler, elapsed_ms = (_profile_sim(args) if args.runtime == "sim"
                            else _profile_live(args))
    unit = "sim ms" if args.runtime == "sim" else "ms"
    print(f"phase breakdown — {args.ops} ops on the {args.runtime} "
          f"runtime (seed {args.seed}):")
    print(profiler.render(top_n=args.top, unit=unit))
    overhead = profiler.overhead_fraction(elapsed_ms / 1000.0)
    print(f"\nprofiler: {profiler.samples} samples, self-measured "
          f"overhead {overhead:.3%} of the "
          f"{elapsed_ms / 1000.0:.2f}s window")
    return 0


def _cluster_report(cluster, stats, workload, plan, pre_table,
                    post_table) -> None:
    """Shared rendering for the sim and live cluster demos."""
    spec = cluster.spec
    print(f"\nplacement ({spec.suites} suites x {spec.replication} "
          f"replicas over {spec.servers} servers):")
    _print_rows(["server", "suites hosted"], pre_table)
    print(f"\nworkload: {stats.operations} operations "
          f"({stats.reads} reads, {stats.writes} writes, "
          f"{stats.blocked} blocked)")
    _print_rows(
        ["metric", "ms"],
        [("read p50", stats.read_p50), ("read p99", stats.read_p99),
         ("write p50", stats.write_p50),
         ("write p99", stats.write_p99)])
    print(f"\nper-server quorum load "
          f"(imbalance {stats.load_imbalance():.2f}):")
    _print_rows(["server", "quorum touches"],
                sorted(stats.per_server.items()))
    hottest = ", ".join(f"{name} ({count} ops, rank "
                        f"{workload.rank_of(name)})"
                        for name, count in stats.hottest_suites(top=3))
    print(f"hottest suites: {hottest}")
    if plan is not None:
        print(f"\njoin + rebalance: {plan.summary()}")
        for name in sorted(plan.moves)[:3]:
            was, now = plan.moves[name]
            print(f"  {name}: {','.join(was)} -> {','.join(now)}")
        if plan.moved_suites > 3:
            print(f"  ... and {plan.moved_suites - 3} more")
        print("placement after join:")
        _print_rows(["server", "suites hosted"], post_table)


def cmd_cluster(args: argparse.Namespace) -> int:
    """Sharded multi-suite namespace demo: fleet, shards, Zipf load."""
    from .cluster import ClusterSpec, LiveCluster, SimCluster
    from .sim.rng import RandomStreams
    from .workload import MultiTenantWorkload, OperationMix

    spec = ClusterSpec(servers=args.servers, suites=args.suites,
                       directory_shards=args.shards, seed=args.seed)

    def make_workload(kernel, handles):
        return MultiTenantWorkload(
            kernel, handles,
            mix=OperationMix(read_fraction=args.read_fraction),
            interarrival=args.interarrival, clients=args.clients,
            streams=RandomStreams(seed=args.seed))

    if args.runtime == "sim":
        cluster = SimCluster(spec).start()
        print(f"simulated cluster: {spec.servers} servers, "
              f"{spec.suites} suites, {spec.directory_shards} "
              f"directory shards (seed {spec.seed})")
        sizes = cluster.bed.run(cluster.namespace.shard_sizes())
        print("directory shard sizes: " + ", ".join(
            f"shard {index}: {count}" for index, count
            in sorted(sizes.items())))
        workload = make_workload(cluster.bed.sim, cluster.handles)
        stats = cluster.bed.run(workload.run(args.arrivals))
        pre = cluster.placement_table()
        plan = post = None
        if args.join:
            plan = cluster.join_server(f"n{spec.servers + 1}")
            post = cluster.placement_table()
        _cluster_report(cluster, stats, workload, plan, pre, post)
        return 0

    async def _live() -> None:
        async with LiveCluster(spec, obs=False) as cluster:
            print(f"live cluster: {len(cluster.loopback.servers)} "
                  f"storage daemons on loopback TCP (seed {spec.seed})")
            for name, server in sorted(cluster.loopback.servers.items()):
                host, port = server.address
                print(f"  booted {name} on {host}:{port}")
            sizes = await cluster.loopback.run(
                cluster.namespace.shard_sizes())
            print(f"{spec.suites} suites bound behind "
                  f"{spec.directory_shards} directory shards: " +
                  ", ".join(f"shard {index}: {count}"
                            for index, count in sorted(sizes.items())))
            workload = make_workload(cluster.loopback.client.kernel,
                                     cluster.handles)
            stats = await cluster.loopback.run(
                workload.run(args.arrivals))
            pre = cluster.placement_table()
            plan = post = None
            if args.join:
                joined = f"n{spec.servers + 1}"
                plan = await cluster.join_server(joined)
                host, port = cluster.loopback.servers[joined].address
                print(f"\nbooted {joined} on {host}:{port} and "
                      f"rebalanced")
                post = cluster.placement_table()
            _cluster_report(cluster, stats, workload, plan, pre, post)

    asyncio.run(_live())
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Weighted Voting for Replicated Data (SOSP 1979) — "
                    "reproduction toolkit")
    subparsers = parser.add_subparsers(dest="command", required=True)

    table1 = subparsers.add_parser(
        "table1", help="print the paper's example table (analytic)")
    table1.set_defaults(handler=cmd_table1)

    simulate = subparsers.add_parser(
        "simulate", help="measure one example on the full stack")
    simulate.add_argument("--example", type=int, choices=(1, 2, 3),
                          default=2)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.set_defaults(handler=cmd_simulate)

    sweep = subparsers.add_parser(
        "sweep", help="blocking probability vs availability")
    sweep.add_argument("--example", type=int, choices=(1, 2, 3),
                       default=3)
    sweep.set_defaults(handler=cmd_sweep)

    tune = subparsers.add_parser(
        "tune", help="search for the best vote assignment")
    tune.add_argument("--server", action="append", type=_parse_server,
                      metavar="NAME:LATENCY:AVAIL",
                      help="candidate server (repeatable)")
    tune.add_argument("--read-fraction", type=float, default=0.9)
    tune.add_argument("--min-read-availability", type=float, default=0.0)
    tune.add_argument("--min-write-availability", type=float,
                      default=0.0)
    tune.add_argument("--max-votes", type=int, default=3)
    tune.set_defaults(handler=cmd_tune)

    demo = subparsers.add_parser("demo", help="run the quickstart demo")
    demo.add_argument("--seed", type=int, default=0)
    demo.set_defaults(handler=cmd_demo)

    status = subparsers.add_parser(
        "status", help="admin view of a (degraded) demo suite")
    status.add_argument("--seed", type=int, default=0)
    status.set_defaults(handler=cmd_status)

    scaling = subparsers.add_parser(
        "scaling", help="availability and message cost vs suite size")
    scaling.add_argument("--availability", type=float, default=0.9)
    scaling.set_defaults(handler=cmd_scaling)

    serve = subparsers.add_parser(
        "serve", help="run a live storage server daemon (asyncio TCP)")
    serve.add_argument("--name", required=True,
                       help="server name clients address RPCs to")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 picks an ephemeral port)")
    serve.add_argument("--data-dir", default=None,
                       help="directory for on-disk stable storage "
                            "(omit for in-memory pages)")
    serve.add_argument("--num-pages", type=int, default=4096)
    serve.add_argument("--page-size", type=int, default=512)
    serve.add_argument("--obs-port", type=int, default=0,
                       help="HTTP port for /metrics, /healthz and "
                            "/trace (0 picks an ephemeral port)")
    serve.add_argument("--no-obs", action="store_true",
                       help="disable tracing and the observability "
                            "HTTP endpoint")
    serve.set_defaults(handler=cmd_serve)

    live_demo = subparsers.add_parser(
        "live-demo",
        help="quorum reads/writes over real loopback TCP sockets")
    live_demo.add_argument("--seed", type=int, default=0)
    live_demo.set_defaults(handler=cmd_live_demo)

    cluster = subparsers.add_parser(
        "cluster",
        help="sharded namespace over a server fleet, sim or live TCP")
    cluster.add_argument("--runtime", choices=("live", "sim"),
                         default="live")
    cluster.add_argument("--servers", type=int, default=3)
    cluster.add_argument("--suites", type=int, default=16)
    cluster.add_argument("--shards", type=int, default=2)
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--clients", type=int, default=40)
    cluster.add_argument("--arrivals", type=int, default=2,
                         help="open-loop arrivals per client")
    cluster.add_argument("--read-fraction", type=float, default=0.9)
    cluster.add_argument("--interarrival", type=float, default=10.0,
                         help="mean ms between a client's arrivals")
    cluster.add_argument("--join", action=argparse.BooleanOptionalAction,
                         default=True,
                         help="grow the fleet by one server mid-demo "
                              "and rebalance onto it")
    cluster.set_defaults(handler=cmd_cluster)

    chaos = subparsers.add_parser(
        "chaos",
        help="invariant-checked soak under deterministic fault "
             "injection (crashes, partitions, message chaos)")
    chaos.add_argument("--seed", type=int, default=1)
    chaos.add_argument("--ops", type=int, default=500)
    chaos.add_argument("--reps", type=int, default=5)
    chaos.add_argument("--runtime", choices=("live", "sim", "both"),
                       default="live",
                       help="which runtime to soak; 'both' also "
                            "compares verdicts")
    chaos.add_argument("--read-fraction", type=float, default=0.7)
    chaos.add_argument("--loss", type=float, default=0.05,
                       help="per-message drop probability")
    chaos.add_argument("--horizon", type=float, default=None,
                       help="nemesis horizon in ms (default scales "
                            "with --ops)")
    chaos.add_argument("--export-dir", default=None, metavar="DIR",
                       help="write op history (and live trace) "
                            "artifacts here")
    chaos.add_argument("--flight-dir", default=None, metavar="DIR",
                       help="record a flight journal per runtime "
                            "under DIR (see 'repro replay')")
    chaos.add_argument("--nemesis", choices=("random", "markov", "none"),
                       default="random",
                       help="crash/partition schedule generator")
    chaos.add_argument("--autopilot", action="store_true",
                       help="run the vote autopilot alongside the soak "
                            "(reassignments are invariant-checked)")
    chaos.add_argument("--degrade-server", default=None, metavar="NAME",
                       help="slow this server past the call timeout "
                            "from the first op; heals halfway")
    chaos.add_argument("--degrade-delay-ms", type=float, default=600.0,
                       help="extra per-message delay for "
                            "--degrade-server")
    chaos.add_argument("--expect-shift", default=None, metavar="NAME",
                       help="known-answer: exit 2 unless the autopilot "
                            "shifted votes off this server")
    chaos.add_argument("--expect-restore", action="store_true",
                       help="known-answer: exit 2 unless weights ended "
                            "back at seed")
    chaos.set_defaults(handler=cmd_chaos)

    autopilot = subparsers.add_parser(
        "autopilot",
        help="health-driven vote reassignment: degrade a "
             "representative, watch votes shift and return")
    autopilot.add_argument("--runtime", choices=("live", "sim", "both"),
                           default="sim")
    autopilot.add_argument("--seed", type=int, default=1)
    autopilot.add_argument("--ops", type=int, default=300)
    autopilot.add_argument("--reps", type=int, default=5)
    autopilot.add_argument("--nemesis",
                           choices=("random", "markov", "none"),
                           default="none",
                           help="optional fault schedule on top of the "
                                "planted degradation")
    autopilot.add_argument("--degrade-server", default="s4",
                           metavar="NAME",
                           help="server to slow past the call timeout "
                                "('none' to disable)")
    autopilot.add_argument("--degrade-delay-ms", type=float,
                           default=600.0)
    autopilot.add_argument("--expect-shift", default=None,
                           metavar="NAME",
                           help="known-answer: exit 2 unless votes "
                                "shifted off this server")
    autopilot.add_argument("--expect-restore", action="store_true",
                           help="known-answer: exit 2 unless weights "
                                "ended back at seed")
    autopilot.add_argument("--json", default=None, metavar="PATH",
                           help="write the final autopilot state here")
    autopilot.add_argument("--flight-dir", default=None, metavar="DIR",
                           help="record a flight journal per runtime "
                                "under DIR (see 'repro replay')")
    autopilot.set_defaults(handler=cmd_autopilot)

    replay = subparsers.add_parser(
        "replay",
        help="postmortem from flight journals: verify invariants and "
             "plane agreement, re-execute incidents deterministically")
    replay.add_argument("--verify", action="append", default=None,
                        metavar="DIR",
                        help="journal directory to audit (repeatable): "
                             "invariants over the rebuilt history, "
                             "attribution cross-check, ledger audit")
    replay.add_argument("--re-execute", default=None, metavar="DIR",
                        help="re-run this journal's recorded universe "
                             "on the sim kernel and diff the journals")
    replay.add_argument("--out-dir", default=None, metavar="DIR",
                        help="where --re-execute writes the replay "
                             "journal (default: temp dir)")
    replay.add_argument("--slo", action="store_true",
                        help="also print re-derived SLO verdicts")
    replay.add_argument("--slo-read-ms", type=float, default=250.0,
                        help="read-latency threshold for --slo")
    replay.set_defaults(handler=cmd_replay)

    trace = subparsers.add_parser(
        "trace", help="render exported JSONL spans as timelines")
    trace.add_argument("files", nargs="+", metavar="SPANS.jsonl",
                       help="span exports to merge (one per process)")
    trace.add_argument("--trace-id", default=None,
                       help="show only this trace")
    trace.add_argument("--operation", default=None, metavar="NAME",
                       help="show only traces whose root span is NAME "
                            "(e.g. suite.write)")
    trace.add_argument("--list", action="store_true",
                       help="one summary line per trace instead of "
                            "full timelines")
    trace.add_argument("--no-events", action="store_true",
                       help="omit span events from the timelines")
    trace.set_defaults(handler=cmd_trace)

    metrics = subparsers.add_parser(
        "metrics",
        help="scrape daemon /metrics endpoints (merged when several)")
    metrics.add_argument("targets", nargs="*", metavar="HOST:PORT",
                         help="observability endpoints to scrape; "
                              "several targets print one merged view")
    metrics.add_argument("--cluster", default=None, metavar="MANIFEST",
                         help="obs manifest JSON written by the cluster "
                              "harness; adds every member as a target")
    metrics.add_argument("--host", default="127.0.0.1")
    metrics.add_argument("--port", type=int, default=None,
                         help="single daemon's observability HTTP port")
    metrics.add_argument("--path", default="/metrics")
    metrics.add_argument("--filter", default=None, metavar="SUBSTRING",
                         help="only metrics whose name contains this")
    metrics.add_argument("--raw", action="store_true",
                         help="print the exposition text verbatim "
                              "(single target only)")
    metrics.add_argument("--timeout", type=float, default=5.0)
    metrics.set_defaults(handler=cmd_metrics)

    top = subparsers.add_parser(
        "top",
        help="live-refreshing dashboard over the merged fleet view")
    top.add_argument("targets", nargs="*", metavar="HOST:PORT",
                     help="observability endpoints to watch")
    top.add_argument("--cluster", default=None, metavar="MANIFEST",
                     help="obs manifest JSON naming the whole fleet")
    top.add_argument("--path", default="/metrics")
    top.add_argument("--timeout", type=float, default=5.0)
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between refreshes")
    top.add_argument("--iterations", type=int, default=0,
                     help="stop after N refreshes (0 = until Ctrl-C)")
    top.add_argument("--top", type=int, default=8,
                     help="rows per section, worst first")
    top.add_argument("--no-clear", action="store_true",
                     help="append refreshes instead of clearing the "
                          "screen")
    top.set_defaults(handler=cmd_top)

    doctor = subparsers.add_parser(
        "doctor",
        help="one-shot health report: critical-path attribution, "
             "breakers, staleness and SLO burn")
    doctor.add_argument("--trace", action="append", default=None,
                        metavar="SPANS.jsonl",
                        help="offline mode: diagnose exported spans "
                             "(repeatable)")
    doctor.add_argument("--history", action="append", default=None,
                        metavar="HISTORY.json",
                        help="offline mode: chaos soak histories with "
                             "breaker states (repeatable)")
    doctor.add_argument("--flight", action="append", default=None,
                        metavar="DIR",
                        help="offline mode: verify flight journal "
                             "directories via repro.replay "
                             "(repeatable)")
    doctor.add_argument("--seed", type=int, default=7)
    doctor.add_argument("--ops", type=int, default=120,
                        help="scenario operations to drive")
    doctor.add_argument("--servers", type=int, default=4)
    doctor.add_argument("--suites", type=int, default=6)
    doctor.add_argument("--read-fraction", type=float, default=0.7)
    doctor.add_argument("--delay-server", default=None, metavar="NAME",
                        help="scenario: deterministically slow every "
                             "message to/from this server")
    doctor.add_argument("--delay-ms", type=float, default=40.0,
                        help="extra one-way delay for --delay-server")
    doctor.add_argument("--kill-server", default=None, metavar="NAME",
                        help="scenario: crash this server before "
                             "driving ops")
    doctor.add_argument("--slo-read-ms", type=float, default=250.0,
                        help="read-latency SLO threshold")
    doctor.add_argument("--autopilot", action="store_true",
                        help="scenario: run observe-only vote "
                             "autopilots and report what they flagged")
    doctor.add_argument("--expect-slow", default=None, metavar="NAME",
                        help="known-answer: exit 2 unless this server "
                             "is the top quorum blocker")
    doctor.add_argument("--expect-dead", default=None, metavar="NAME",
                        help="known-answer: exit 2 unless this server "
                             "is flagged by a tripped breaker")
    doctor.add_argument("--top", type=int, default=8,
                        help="rows per report section")
    doctor.set_defaults(handler=cmd_doctor)

    perf = subparsers.add_parser(
        "perf", help="benchmark results: regression compare, profiling")
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)

    compare = perf_sub.add_parser(
        "compare",
        help="diff two BENCH_*.json files; non-zero exit on regression")
    compare.add_argument("old", metavar="OLD.json",
                         help="baseline result file")
    compare.add_argument("new", metavar="NEW.json",
                         help="candidate result file")
    compare.add_argument("--tolerance", type=float, default=0.25,
                         help="relative tolerance before a gated metric "
                              "fails (default 0.25)")
    compare.add_argument("--verbose", action="store_true",
                         help="also print in-tolerance and advisory "
                              "rows")
    compare.set_defaults(handler=cmd_perf_compare)

    profile = perf_sub.add_parser(
        "profile",
        help="hot-path phase breakdown for a seeded workload")
    profile.add_argument("--runtime", choices=("sim", "live"),
                         default="sim")
    profile.add_argument("--ops", type=int, default=200,
                         help="operations to drive (70%% reads)")
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--top", type=int, default=10,
                         help="phases to print, heaviest first")
    profile.set_defaults(handler=cmd_perf_profile)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
