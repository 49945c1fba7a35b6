"""Experiment O3 — flight recorder: overhead, determinism, replay.

The flight recorder is always-on in the soak harness, so its serving-
time cost has to be measured and its output provably faithful.  This
benchmark measures the first and pins the other two:

* **Overhead** — the same seeded chaos soak runs with the recorder off
  and on, ``SOAKS`` times each, interleaved; the
  extra CPU time of the best journaled soak over the best bare one
  must stay under ``OVERHEAD_BUDGET``.  CPU time, because the wall
  clock also carries the fsyncs of the journal's segment rolls, which
  cost whatever the disk makes them cost; the wall times are recorded
  beside it.
* **Determinism** — two journaled runs of one config are byte-
  identical, and ``re_execute`` reproduces the journal from the meta
  record alone.  Record count, journal bytes and segment count are all
  virtual-time deterministic, so they gate like latencies.
* **Audit** — ``verify_journal`` over the produced journal comes back
  clean: invariants hold, the journal-derived blocking attribution
  matches the run's own exported counters, the ledger conserves votes.

Timing rows (run times, overhead) are environment-dependent and
recorded ``gate=False``; the journal-shape rows gate.
"""

import gc
import statistics
import time

from _support import print_table, record
from repro.chaos.soak import SoakConfig, run_sim_soak
from repro.obs.flight import load_flight_journal, read_journal_bytes
from repro.replay import re_execute, verify_journal

CONFIG = SoakConfig(ops=300, seed=7)
#: A regression bound, not the design target: the recorder should cost
#: under 5 %, and costs ≈ 7 % of the soak's CPU today.  ROADMAP's
#: observability item owns bringing it down to the target, and
#: tightening this bound with it.
OVERHEAD_BUDGET = 0.12
#: Soaks of each plane.  One soak is about a third of a CPU second and
#: this machine's slow stretches last seconds, so the best of six
#: soaks a plane was left to luck; the best of 24 is not.
SOAKS = 24


def _timed_soaks(flight_dir):
    """``SOAKS`` bare and ``SOAKS`` journaled soaks, interleaved, each
    timed as (wall seconds, CPU seconds); returns the bare and the
    journaled timings.

    Interleaving keeps ambient machine noise correlated across the two
    planes, and the order alternates pair by pair.  Every soak starts
    from a collected heap: without that, a soak pays for the garbage
    the previous one left, and a journaled soak right after a bare one
    measured 0.45 CPU-s against 0.37 right after a journaled one."""
    timings = {None: [], flight_dir: []}
    for index in range(SOAKS):
        order = (flight_dir, None) if index % 2 else (None, flight_dir)
        for flight in order:
            gc.collect()
            wall, cpu = time.monotonic(), time.process_time()
            run_sim_soak(CONFIG, flight_dir=flight)
            timings[flight].append((time.monotonic() - wall,
                                    time.process_time() - cpu))
    return timings[None], timings[flight_dir]


def test_bench_flight_recorder(benchmark, tmp_path):
    flight_a = str(tmp_path / "journal-a")
    flight_b = str(tmp_path / "journal-b")

    run_sim_soak(CONFIG, flight_dir=flight_a)   # warm caches off the clock
    bare, journaled = benchmark.pedantic(
        lambda: _timed_soaks(flight_a), rounds=1, iterations=1)
    # Noise only ever *adds* time, so each plane's best soak is its
    # steady cost, and the overhead is the ratio of the two bests.
    bare_s = min(wall for wall, _cpu in bare)
    bare_cpu_s = min(cpu for _wall, cpu in bare)
    journaled_s = min(wall for wall, _cpu in journaled)
    journaled_cpu_s = min(cpu for _wall, cpu in journaled)
    overhead = journaled_cpu_s / bare_cpu_s - 1.0
    medians = statistics.median(cpu for _wall, cpu in journaled) \
        / statistics.median(cpu for _wall, cpu in bare) - 1.0

    # Determinism: a second journaled run is byte-identical ...
    run_sim_soak(CONFIG, flight_dir=flight_b)
    journal = read_journal_bytes(flight_a)
    assert journal == read_journal_bytes(flight_b)
    records, stats = load_flight_journal(flight_a)
    kinds = {}
    for entry in records:
        kinds[entry["kind"]] = kinds.get(entry["kind"], 0) + 1

    # ... the audit over it is clean ...
    verdict = verify_journal(flight_a)
    assert verdict.ok, verdict.findings()
    assert verdict.plane_checked and not verdict.plane_mismatches

    # ... and the meta record alone reproduces it, byte for byte.
    reexec = re_execute(flight_a, str(tmp_path / "journal-replay"))
    assert reexec.byte_compared and reexec.identical, reexec.summary()

    print_table(
        f"O3 — flight recorder ({CONFIG.ops} ops, seed {CONFIG.seed}, "
        f"best of {SOAKS})",
        ["plane", "wall s", "cpu s", "records", "bytes", "segments"],
        [("recorder off", bare_s, bare_cpu_s, 0, 0, 0),
         ("recorder on", journaled_s, journaled_cpu_s, stats.records,
          len(journal), stats.segments)])
    print(f"overhead {overhead:.2%} CPU (budget {OVERHEAD_BUDGET:.0%}; "
          f"{medians:.2%} between the medians), "
          f"{journaled_s / bare_s - 1.0:.2%} wall; "
          f"kinds: " + ", ".join(f"{kind}={count}" for kind, count
                                 in sorted(kinds.items())))
    print(f"replay: verify {verdict.summary()}")
    print(f"replay: re-exec {reexec.summary()}")

    assert overhead < OVERHEAD_BUDGET, (
        f"flight recorder cost {overhead:.2%} of the bare soak's CPU "
        f"(budget {OVERHEAD_BUDGET:.0%})")

    # Journal shape is virtual-time deterministic: gate it.
    record("obs", "obs_flight", "journal_records", stats.records,
           "records", config="chaos-soak", seed=CONFIG.seed)
    record("obs", "obs_flight", "journal_bytes", len(journal),
           "bytes", config="chaos-soak", seed=CONFIG.seed)
    record("obs", "obs_flight", "journal_segments", stats.segments,
           "segments", config="chaos-soak", seed=CONFIG.seed)
    for kind in ("op", "quorum", "txn", "chaos", "breaker"):
        record("obs", "obs_flight", "journal_kind_records",
               kinds.get(kind, 0), "records", config=kind,
               seed=CONFIG.seed)
    # Timings are environment-dependent: record, don't gate.
    record("obs", "obs_flight", "recorder_overhead_pct",
           overhead * 100.0, "%", config="self-measured",
           runtime="live", duration_s=journaled_s, gate=False)
    record("obs", "obs_flight", "soak_wall_s", bare_s, "s",
           config="recorder-off", runtime="live",
           duration_s=bare_s, gate=False)
    record("obs", "obs_flight", "soak_wall_s", journaled_s, "s",
           config="recorder-on", runtime="live",
           duration_s=journaled_s, gate=False)
