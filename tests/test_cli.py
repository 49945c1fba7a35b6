"""The command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestTable1:
    def test_prints_paper_values(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "example 1" in out
        assert "65" in out and "750" in out

class TestSimulate:
    def test_reports_both_operations(self, capsys):
        assert main(["simulate", "--example", "1"]) == 0
        out = capsys.readouterr().out
        assert "read" in out and "write" in out
        assert "served by" in out

    def test_rejects_bad_example(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--example", "9"])


class TestSweep:
    def test_monotone_output(self, capsys):
        assert main(["sweep", "--example", "3"]) == 0
        out = capsys.readouterr().out
        assert "0.999" in out
        assert "read block" in out


class TestTune:
    def test_default_servers(self, capsys):
        assert main(["tune", "--read-fraction", "0.9"]) == 0
        out = capsys.readouterr().out
        assert "best configuration" in out
        assert "r = " in out and "w = " in out

    def test_custom_servers(self, capsys):
        assert main(["tune", "--read-fraction", "0.5",
                     "--server", "a:10:0.99",
                     "--server", "b:20:0.99"]) == 0
        out = capsys.readouterr().out
        assert "a" in out and "b" in out

    def test_infeasible_constraints_exit_code(self, capsys):
        code = main(["tune", "--read-fraction", "0.5",
                     "--server", "only:10:0.9",
                     "--min-write-availability", "0.99999"])
        assert code == 1
        assert "no feasible" in capsys.readouterr().err

    def test_malformed_server_spec(self):
        with pytest.raises(SystemExit):
            main(["tune", "--server", "oops"])


class TestDemo:
    def test_runs_full_scenario(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "hello, 1979" in out
        assert "with s1 crashed" in out
        assert "versions: [2, 2, 2]" in out


class TestAutopilot:
    def test_default_sim_run_meets_its_known_answers(self, capsys,
                                                     tmp_path):
        path = tmp_path / "state.json"
        assert main(["autopilot", "--expect-shift", "s4",
                     "--expect-restore", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "autopilot [sim] seed=1 ops=300 reps=5 nemesis=none " \
               "degrade=s4" in out
        assert "votes shifted off s4 DETECTED" in out
        assert "weights restored to seed CONFIRMED" in out
        state = json.loads(path.read_text())
        assert list(state) == ["sim"]
        assert state["sim"]["at_seed_weights"]
        assert any(rec["kind"] == "demote" and rec["server"] == "s4"
                   and rec["applied"]
                   for rec in state["sim"]["reassignments"])

    def test_missed_shift_exits_2(self, capsys):
        assert main(["autopilot", "--degrade-server", "none",
                     "--expect-shift", "s4"]) == 2
        out = capsys.readouterr().out
        assert "votes shifted off s4 MISSED" in out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestBrokenPipe:
    def test_closed_stdout_exits_quietly(self):
        """``repro ... | head``: a reader that closes the pipe ends the
        command with status 0 and nothing on stderr."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro", "table1"],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                timeout=60)
        finally:
            os.close(write_end)
        assert done.returncode == 0
        assert b"Traceback" not in done.stderr
        assert done.stderr == b""


class TestStatus:
    def test_shows_degraded_suite(self, capsys):
        assert main(["status"]) == 0
        out = capsys.readouterr().out
        assert "rep-s3" in out
        assert "unreachable: ['rep-s3']" in out
        assert "invariants: OK" in out


class TestScaling:
    def test_prints_growth_table(self, capsys):
        assert main(["scaling", "--availability", "0.9"]) == 0
        out = capsys.readouterr().out
        assert "11" in out
        assert "write msgs" in out


class TestCluster:
    def test_sim_demo_with_join(self, capsys):
        assert main(["cluster", "--runtime", "sim", "--servers", "4",
                     "--suites", "12", "--clients", "20"]) == 0
        out = capsys.readouterr().out
        assert "simulated cluster: 4 servers, 12 suites" in out
        assert "directory shard sizes" in out
        assert "read p99" in out
        assert "per-server quorum load" in out
        assert "join + rebalance" in out
        assert "placement after join" in out

    def test_sim_demo_without_join(self, capsys):
        assert main(["cluster", "--runtime", "sim", "--no-join",
                     "--clients", "10", "--suites", "4",
                     "--shards", "1"]) == 0
        out = capsys.readouterr().out
        assert "join + rebalance" not in out

    def test_live_demo_boots_daemons(self, capsys):
        assert main(["cluster", "--servers", "3", "--suites", "16",
                     "--shards", "2", "--clients", "10",
                     "--arrivals", "1", "--interarrival", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "live cluster: 3 storage daemons" in out
        assert "booted n1 on 127.0.0.1:" in out
        assert "16 suites bound behind 2 directory shards" in out
        assert "booted n4 on 127.0.0.1:" in out
        assert "join + rebalance" in out
