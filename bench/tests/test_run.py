"""The contract file, and the whole benchmark end to end in --quick mode."""

import json
import os
import re
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_benchmark_json_keeps_to_its_shape():
    doc = contract()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["bench"]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    names = []
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert len(doc["end_to_end"]) <= 16 and len(doc["per_layer"]) <= 128
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + 12) < 3420


def test_workloads_in_the_contract_are_the_ones_in_the_code():
    from bench.workloads import WORKLOADS
    assert [(w["name"], w["why"]) for w in contract()["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]


def test_quick_run_is_complete_and_clean(tmp_path):
    out = tmp_path / "quick.json"
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--quick",
         "--seed", "3", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert elapsed < 40.0, f"--quick took {elapsed:.1f} s"
    results = json.loads(out.read_text())
    doc = contract()
    assert sorted(results["workloads"]) == sorted(
        w["name"] for w in doc["workloads"])
    for name, entry in results["workloads"].items():
        assert set(entry["end_to_end"]) == {m["name"] for m in doc["end_to_end"]}
        assert set(entry["per_layer"]) >= {m["name"] for m in doc["per_layer"]}
        for kind in ("e2e", "layers"):
            verdict = entry["result"][kind]
            assert verdict["correct"] and verdict["failed"] == 0
            assert verdict["attempted"] >= 1
        assert all(value > 0 for value in entry["end_to_end"].values()), name
    layered = results["workloads"]
    assert layered["read_hot"]["per_layer"]["storage.page_writes_per_op"] == 0
    assert layered["write_spread"]["per_layer"][
        "sim.page_writes_per_write"] > 1000


def test_exits_nonzero_without_the_program(tmp_path):
    """Only BENCHMARK.json and bench/: no result, a non-zero exit."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "read_hot", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
