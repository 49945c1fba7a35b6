"""Flight recorder + replay: format, durability, determinism, audits.

The postmortem plane's contract has three layers, each pinned here:

* **Format/durability** — CRC-framed records in fsync-rotated
  segments; a torn or corrupt *trailing* record of the *final* segment
  is dropped and counted, damage anywhere else raises.
* **Determinism** — two sim soaks from one config produce
  byte-identical journals, and ``re_execute`` reproduces a recorded
  sim incident byte-for-byte (divergence keyed by version stamp when
  the evidence was tampered with).
* **Audit** — ``verify_journal`` reruns the invariant checker over
  the rebuilt history (including a live run's), re-derives quorum
  blocking attribution and demands it match the run's own counters,
  and the ``repro doctor`` exit-code matrix (0 healthy / 1 findings /
  2 expectation miss) extends to ``--flight``.
"""

import asyncio
import json
import os
import zlib

import pytest

from repro.chaos.soak import (ClusterSoakConfig, SoakConfig, run_live_soak,
                              run_sim_soak)
from repro.cli import main as cli_main
from repro.obs.flight import (FlightHistory, FlightJournalError,
                              FlightRecorder, load_flight_journal,
                              read_journal_bytes)
from repro.replay import re_execute, verify_journal
from repro.replay.reexec import _first_chain_divergence

SOAK = SoakConfig(ops=60, seed=3)


def _fixed_clock():
    state = {"now": 0.0}

    def clock():
        state["now"] += 1.0
        return state["now"]

    return clock


def _reframe(payload: bytes) -> bytes:
    """A correctly CRC-framed journal line for ``payload``."""
    return b"%08x %s\n" % (zlib.crc32(payload) & 0xFFFFFFFF, payload)


class TestRecorderFormat:
    def test_round_trip(self, tmp_path):
        directory = str(tmp_path / "j")
        with FlightRecorder(directory, clock=_fixed_clock()) as rec:
            rec.emit("quorum", suite="db", votes=3)
            rec.emit("txn", txn="client:1", outcome="commit")
        records, stats = load_flight_journal(directory)
        assert stats.records == 2
        assert stats.dropped_bytes == 0
        assert [r["kind"] for r in records] == ["quorum", "txn"]
        assert records[0]["data"] == {"suite": "db", "votes": 3}
        assert records[0]["at"] == 1.0
        assert [r["seq"] for r in records] == [0, 1]

    def test_payload_may_shadow_kind(self, tmp_path):
        directory = str(tmp_path / "j")
        with FlightRecorder(directory, clock=_fixed_clock()) as rec:
            rec.emit("op", kind="read", ok=True, index=0)
        records, _stats = load_flight_journal(directory)
        assert records[0]["kind"] == "op"
        assert records[0]["data"]["kind"] == "read"

    def test_segment_rotation(self, tmp_path):
        directory = str(tmp_path / "j")
        with FlightRecorder(directory, clock=_fixed_clock(),
                            max_segment_bytes=1024) as rec:
            for index in range(64):
                rec.emit("chaos", what="drop", index=index,
                         pad="x" * 64)
            assert rec.segments > 1
        names = sorted(os.listdir(directory))
        assert names[0] == "flight-000001.jrnl"
        assert len(names) == rec.segments
        for name in names[:-1]:
            assert (tmp_path / "j" / name).stat().st_size <= 1024
        records, stats = load_flight_journal(directory)
        assert stats.segments == rec.segments
        assert [r["seq"] for r in records] == list(range(64))

    def test_recorder_owns_the_directory(self, tmp_path):
        directory = str(tmp_path / "j")
        with FlightRecorder(directory, clock=_fixed_clock()) as rec:
            rec.emit("meta", runtime="sim")
        # A second run must not mix with the first run's segments.
        with FlightRecorder(directory, clock=_fixed_clock()) as rec:
            rec.emit("meta", runtime="sim")
        records, stats = load_flight_journal(directory)
        assert stats.records == 1

    def test_closed_recorder_rejects_emit(self, tmp_path):
        rec = FlightRecorder(str(tmp_path / "j"), clock=_fixed_clock())
        rec.close()
        rec.close()                      # idempotent
        assert rec.closed
        with pytest.raises(ValueError):
            rec.emit("quorum")

    def test_tiny_segment_cap_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            FlightRecorder(str(tmp_path / "j"), clock=_fixed_clock(),
                           max_segment_bytes=16)


class TestTornRecords:
    def _journal(self, tmp_path, records=4):
        directory = str(tmp_path / "j")
        with FlightRecorder(directory, clock=_fixed_clock()) as rec:
            for index in range(records):
                rec.emit("chaos", what="drop", index=index)
        return directory

    def test_torn_trailing_record_dropped(self, tmp_path):
        directory = self._journal(tmp_path)
        path = os.path.join(directory, "flight-000001.jrnl")
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-7])   # crash mid-record
        records, stats = load_flight_journal(directory)
        assert stats.records == 3
        assert stats.dropped_bytes > 0

    def test_corrupt_trailing_record_dropped(self, tmp_path):
        directory = self._journal(tmp_path)
        path = os.path.join(directory, "flight-000001.jrnl")
        lines = open(path, "rb").read().splitlines(keepends=True)
        lines[-1] = lines[-1][:9] + b"X" + lines[-1][10:]
        open(path, "wb").write(b"".join(lines))
        records, stats = load_flight_journal(directory)
        assert stats.records == 3
        assert stats.dropped_bytes == len(lines[-1])

    def test_corruption_mid_journal_raises(self, tmp_path):
        directory = self._journal(tmp_path)
        path = os.path.join(directory, "flight-000001.jrnl")
        lines = open(path, "rb").read().splitlines(keepends=True)
        lines[1] = lines[1][:9] + b"X" + lines[1][10:]
        open(path, "wb").write(b"".join(lines))
        with pytest.raises(FlightJournalError, match="mid-journal"):
            load_flight_journal(directory)

    def test_sequence_gap_raises(self, tmp_path):
        directory = self._journal(tmp_path)
        path = os.path.join(directory, "flight-000001.jrnl")
        lines = open(path, "rb").read().splitlines(keepends=True)
        # Drop a middle record but keep both framing and a valid tail
        # record after it: the CRCs verify, the seq chain does not.
        del lines[1]
        open(path, "wb").write(b"".join(lines))
        with pytest.raises(FlightJournalError, match="sequence gap"):
            load_flight_journal(directory)

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(FlightJournalError, match="no flight"):
            load_flight_journal(str(tmp_path))


class TestFlightHistory:
    class _Record:
        def __init__(self, index):
            self.index = index

        def to_json(self):
            return {"index": self.index, "kind": "read", "ok": True}

    def test_append_and_iadd_journal_ops(self, tmp_path):
        directory = str(tmp_path / "j")
        rec = FlightRecorder(directory, clock=_fixed_clock())
        history = FlightHistory(rec, suite="db-001")
        history.append(self._Record(0))
        history += [self._Record(1), self._Record(2)]
        rec.close()
        assert isinstance(history, FlightHistory)
        assert [item.index for item in history] == [0, 1, 2]
        records, _stats = load_flight_journal(directory)
        assert [r["data"]["index"] for r in records] == [0, 1, 2]
        assert all(r["data"]["suite"] == "db-001" for r in records)

    def test_plain_list_without_recorder(self):
        history = FlightHistory()
        history.append(self._Record(0))
        assert len(history) == 1


class TestSimJournalDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        one, two = str(tmp_path / "one"), str(tmp_path / "two")
        run_sim_soak(SOAK, flight_dir=one)
        run_sim_soak(SOAK, flight_dir=two)
        first = read_journal_bytes(one)
        assert first == read_journal_bytes(two)
        assert first                      # not vacuous

    def test_journal_covers_every_decision_kind(self, tmp_path):
        directory = str(tmp_path / "j")
        config = SoakConfig(ops=100, seed=5, autopilot=True,
                            degrade_server="s4", nemesis_kind="none")
        run_sim_soak(config, flight_dir=directory)
        records, _stats = load_flight_journal(directory)
        kinds = {record["kind"] for record in records}
        assert {"meta", "op", "quorum", "txn", "chaos", "breaker",
                "autopilot", "reconfig", "metrics"} <= kinds
        assert records[0]["kind"] == "meta"
        assert records[-1]["kind"] == "metrics"


class TestVerify:
    def test_sim_journal_verifies_clean(self, tmp_path):
        directory = str(tmp_path / "j")
        report = run_sim_soak(SOAK, flight_dir=directory)
        verdict = verify_journal(directory)
        assert verdict.ok, verdict.findings()
        assert verdict.plane_checked
        assert verdict.runtime == "sim"
        # The journal's history is the soak's history.
        (history,) = verdict.histories.values()
        assert len(history) == len(report.history)
        (rebuilt,) = verdict.reports.values()
        assert rebuilt.ok
        assert rebuilt.committed_writes == report.report.committed_writes
        assert verdict.slos               # re-derived, informational

    def test_live_journal_verifies_clean(self, tmp_path):
        directory = str(tmp_path / "j")
        asyncio.run(run_live_soak(SoakConfig(ops=40, seed=2),
                                  flight_dir=directory))
        verdict = verify_journal(directory)
        assert verdict.ok, verdict.findings()
        assert verdict.plane_checked
        assert verdict.runtime == "live"

    def test_cluster_journal_verifies_clean(self, tmp_path):
        directory = str(tmp_path / "j")
        run_sim_soak(ClusterSoakConfig(ops=50, seed=11),
                     flight_dir=directory)
        verdict = verify_journal(directory)
        assert verdict.ok, verdict.findings()
        assert len(verdict.reports) == 6  # one per data suite

    def test_tampered_attribution_is_a_plane_mismatch(self, tmp_path):
        directory = str(tmp_path / "j")
        run_sim_soak(SOAK, flight_dir=directory)
        _tamper_first(directory, "quorum", lambda data: data["order"]
                      .__setitem__(0, [data["order"][0][0],
                                       data["order"][0][1] + 50.0,
                                       data["order"][0][2]]))
        verdict = verify_journal(directory)
        assert not verdict.ok
        assert verdict.plane_mismatches

    def test_tampered_history_breaks_invariants(self, tmp_path):
        directory = str(tmp_path / "j")
        run_sim_soak(SOAK, flight_dir=directory)

        def dent(data):
            if data["kind"] == "write" and data["ok"]:
                data["version"] = 1      # duplicate committed version

        _tamper_first(directory, "op", dent,
                      want=lambda data: data["kind"] == "write"
                      and data["ok"])
        verdict = verify_journal(directory)
        assert not verdict.ok
        (report,) = verdict.reports.values()
        assert not report.ok

    def test_journal_without_meta_is_an_error(self, tmp_path):
        directory = str(tmp_path / "j")
        with FlightRecorder(directory, clock=_fixed_clock()) as rec:
            rec.emit("chaos", what="drop")
        verdict = verify_journal(directory)
        assert not verdict.ok
        assert "no meta record" in verdict.errors[0]


class TestReexecute:
    def test_sim_incident_reproduces_byte_identically(self, tmp_path):
        original = str(tmp_path / "orig")
        run_sim_soak(SOAK, flight_dir=original)
        report = re_execute(original, str(tmp_path / "replay"))
        assert report.ok
        assert report.byte_compared and report.identical
        assert (read_journal_bytes(original)
                == read_journal_bytes(str(tmp_path / "replay")))

    def test_divergence_keyed_by_version_stamp(self, tmp_path):
        original = str(tmp_path / "orig")
        run_sim_soak(SOAK, flight_dir=original)

        def dent(data):
            if data["kind"] == "write" and data["ok"]:
                data["version"] += 7

        _tamper_first(original, "op", dent,
                      want=lambda data: data["kind"] == "write"
                      and data["ok"])
        report = re_execute(original, str(tmp_path / "replay"))
        assert not report.ok
        assert not report.identical
        assert "version stamp" in report.divergence

    def test_cluster_incident_reproduces(self, tmp_path):
        original = str(tmp_path / "orig")
        run_sim_soak(ClusterSoakConfig(ops=50, seed=11),
                     flight_dir=original)
        report = re_execute(original, str(tmp_path / "replay"))
        assert report.ok and report.identical

    def test_live_journal_compares_commit_chains(self, tmp_path):
        # A journal recorded live cannot replay byte for byte: the
        # re-execution compares committed (version, tag) chains.
        original = str(tmp_path / "orig")
        run_sim_soak(SOAK, flight_dir=original)

        def go_live(data):
            data["runtime"] = "live"

        _tamper_first(original, "meta", go_live)
        report = re_execute(original, str(tmp_path / "replay"))
        assert report.ok and not report.byte_compared
        assert report.original_commits == report.replay_commits

        def dent(data):
            data["version"] += 7

        _tamper_first(original, "op", dent,
                      want=lambda data: data["kind"] == "write"
                      and data["ok"])
        report = re_execute(original, str(tmp_path / "replay2"))
        assert not report.ok
        assert report.divergence.startswith("[suite] commit 0: recorded")

    def test_chain_divergence_report(self):
        chains = {"a": [(2, "x"), (3, "y")]}
        assert _first_chain_divergence(chains, chains) is None
        assert _first_chain_divergence(chains, {"a": [(2, "x"), (3, "z")]}) \
            == "[a] commit 1: recorded version 3 tag 'y', " \
               "replay version 3 tag 'z'"
        assert _first_chain_divergence(chains, {"a": [(2, "x")]}) == (
            "[a] commit chains differ in length (2 recorded vs 1 "
            "replayed; first unmatched version stamp 3)")
        assert _first_chain_divergence({}, {"b": [(2, "x")]}).startswith(
            "[b] commit chains differ in length (0 recorded")

    def test_unknown_runtime_rejected(self, tmp_path):
        directory = str(tmp_path / "j")
        with FlightRecorder(directory, clock=_fixed_clock()) as rec:
            rec.emit("meta", runtime="martian", config={})
        with pytest.raises(ValueError, match="martian"):
            re_execute(directory, str(tmp_path / "replay"))


def _tamper_first(directory, kind, mutate, want=None):
    """Rewrite the first matching record in place, CRC kept valid.

    Tampering is the test's stand-in for a buggy emitter: the framing
    still verifies, so only the *semantic* audits can catch it.
    """
    names = sorted(name for name in os.listdir(directory)
                   if name.endswith(".jrnl"))
    done = False
    for name in names:
        path = os.path.join(directory, name)
        out = []
        for line in open(path, "rb").read().splitlines(keepends=True):
            record = json.loads(line[9:])
            if not done and record["kind"] == kind \
                    and (want is None or want(record["data"])):
                mutate(record["data"])
                payload = json.dumps(record, sort_keys=True,
                                     separators=(",", ":")).encode()
                line = _reframe(payload)
                done = True
            out.append(line)
        open(path, "wb").write(b"".join(out))
    assert done, f"no {kind} record matched"


class TestDoctorExitMatrix:
    """Pinned exit contract for offline doctor, --flight included:
    healthy -> 0, findings -> 1, --expect-* miss -> 2."""

    def _healthy_history(self, tmp_path):
        path = tmp_path / "history.json"
        path.write_text(json.dumps({
            "verdict": "OK",
            "breakers": {"rep-1": {"state": "closed", "opens": 2}}}))
        return str(path)

    def _violating_history(self, tmp_path):
        path = tmp_path / "bad-history.json"
        path.write_text(json.dumps({
            "verdict": "VIOLATIONS:unique-version", "breakers": {}}))
        return str(path)

    def test_healthy_artifacts_exit_0(self, tmp_path, capsys):
        rc = cli_main(["doctor", "--history",
                       self._healthy_history(tmp_path)])
        assert rc == 0
        assert "verdict OK" in capsys.readouterr().out

    def test_history_violations_exit_1(self, tmp_path, capsys):
        rc = cli_main(["doctor", "--history",
                       self._violating_history(tmp_path)])
        assert rc == 1
        assert "findings: 1" in capsys.readouterr().out

    def test_expectation_miss_exits_2(self, tmp_path, capsys):
        rc = cli_main(["doctor", "--history",
                       self._healthy_history(tmp_path),
                       "--expect-dead", "rep-9"])
        assert rc == 2
        assert "MISSED" in capsys.readouterr().out

    def test_healthy_flight_exits_0(self, tmp_path, capsys):
        directory = str(tmp_path / "j")
        run_sim_soak(SOAK, flight_dir=directory)
        rc = cli_main(["doctor", "--flight", directory])
        assert rc == 0
        assert "planes agree" in capsys.readouterr().out

    def test_tampered_flight_exits_1(self, tmp_path, capsys):
        directory = str(tmp_path / "j")
        run_sim_soak(SOAK, flight_dir=directory)

        def dent(data):
            if data["kind"] == "write" and data["ok"]:
                data["version"] = 1

        _tamper_first(directory, "op", dent,
                      want=lambda data: data["kind"] == "write"
                      and data["ok"])
        rc = cli_main(["doctor", "--flight", directory])
        assert rc == 1

    def test_missing_flight_exits_1(self, tmp_path, capsys):
        rc = cli_main(["doctor", "--flight", str(tmp_path / "absent")])
        assert rc == 1
        assert "cannot verify" in capsys.readouterr().err


class TestReplayCli:
    def test_verify_and_reexecute(self, tmp_path, capsys):
        directory = str(tmp_path / "j")
        run_sim_soak(SOAK, flight_dir=directory)
        rc = cli_main(["replay", "--verify", directory, "--slo"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "planes agree" in out and "slo " in out
        rc = cli_main(["replay", "--re-execute", directory,
                       "--out-dir", str(tmp_path / "replay")])
        assert rc == 0
        assert "byte-identical" in capsys.readouterr().out

    def test_no_mode_is_usage_error(self, capsys):
        rc = cli_main(["replay"])
        assert rc == 2

    def test_missing_journal_fails(self, tmp_path, capsys):
        rc = cli_main(["replay", "--verify", str(tmp_path / "absent")])
        assert rc == 1


class TestSoakCliFlight:
    def test_chaos_cli_writes_and_verifies_journal(self, tmp_path,
                                                   capsys):
        flight = str(tmp_path / "flight")
        rc = cli_main(["chaos", "--seed", "3", "--ops", "60",
                       "--runtime", "sim", "--nemesis", "random",
                       "--flight-dir", flight])
        assert rc == 0
        journal = os.path.join(flight, "seed3-sim")
        assert "flight journal" in capsys.readouterr().out
        verdict = verify_journal(journal)
        assert verdict.ok, verdict.findings()
