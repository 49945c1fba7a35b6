"""Experiment O3 — flight recorder: overhead, determinism, replay.

The flight recorder is always-on in the soak harness, so its serving-
time cost has to be measured and its output provably faithful.  This
benchmark measures the first and pins the other two:

* **Overhead** — the same seeded chaos soak runs with the recorder off
  and on; the extra CPU time of the best journaled run over the best
  bare run (best of ``ROUNDS`` each) must stay under
  ``OVERHEAD_BUDGET``.  CPU time, because the wall clock also carries
  the fsyncs of the journal's segment rolls, which cost whatever the
  disk makes them cost; the wall times are recorded beside it.
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
ROUNDS = 6


def _paced_pair(flight_dir, journaled_first):
    """One bare + one journaled run back to back, in either order; each
    run is timed as (wall seconds, CPU seconds).

    Pairing keeps ambient machine noise correlated across the two
    planes; alternating the order cancels any bias against whichever
    run goes second (cache state, frequency scaling).  Noise only ever
    *adds* time, so each plane's best run across ``ROUNDS`` pairs is
    its steady cost, and the overhead is the ratio of the two bests —
    not the best per-pair ratio, which one lucky pair would decide."""
    def one(flight):
        wall, cpu = time.monotonic(), time.process_time()
        run_sim_soak(CONFIG, flight_dir=flight)
        return time.monotonic() - wall, time.process_time() - cpu

    if journaled_first:
        journaled_s = one(flight_dir)
        bare_s = one(None)
    else:
        bare_s = one(None)
        journaled_s = one(flight_dir)
    return bare_s, journaled_s


def test_bench_flight_recorder(benchmark, tmp_path):
    flight_a = str(tmp_path / "journal-a")
    flight_b = str(tmp_path / "journal-b")

    _paced_pair(flight_a, False)         # warm caches off the clock
    pairs = benchmark.pedantic(
        lambda: [_paced_pair(flight_a, bool(index % 2))
                 for index in range(ROUNDS)],
        rounds=1, iterations=1)
    bare_s = min(bare[0] for bare, _journaled in pairs)
    bare_cpu_s = min(bare[1] for bare, _journaled in pairs)
    journaled_s = min(journaled[0] for _bare, journaled in pairs)
    journaled_cpu_s = min(journaled[1] for _bare, journaled in pairs)
    overhead = journaled_cpu_s / bare_cpu_s - 1.0

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
        f"best of {ROUNDS})",
        ["plane", "wall s", "cpu s", "records", "bytes", "segments"],
        [("recorder off", bare_s, bare_cpu_s, 0, 0, 0),
         ("recorder on", journaled_s, journaled_cpu_s, stats.records,
          len(journal), stats.segments)])
    print(f"overhead {overhead:.2%} CPU (budget {OVERHEAD_BUDGET:.0%}), "
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
