"""Shared helpers for the benchmark harness.

Each benchmark regenerates one table or figure of the evaluation
(see DESIGN.md's per-experiment index) and prints it in paper-style
rows; pytest-benchmark wraps the run so wall-clock cost is tracked too.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Generator, Iterable, List, Optional, Sequence

from repro.errors import ReproError
from repro.perf import BenchRegistry, BenchResult, current_git_sha
from repro.sim import RandomStreams
from repro.testbed import Testbed, example_data, example_testbed


def print_table(title: str, columns: Sequence[str],
                rows: Iterable[Sequence[Any]]) -> None:
    """Render a fixed-width table to stdout (shown with pytest -s)."""
    print()
    print(title)
    print("=" * max(len(title), 8))
    widths = [max(len(str(column)), 12) for column in columns]
    header = "  ".join(str(column).rjust(width)
                       for column, width in zip(columns, widths))
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(_format(cell).rjust(width)
                        for cell, width in zip(row, widths)))
    print()


def _format(cell: Any) -> str:
    if isinstance(cell, float):
        if cell != 0 and abs(cell) < 0.01:
            return f"{cell:.2e}"
        return f"{cell:,.2f}"
    return str(cell)


#: One registry per benchmark process; every ``record`` flushes, so a
#: crashed later benchmark cannot lose earlier scripts' results.
_REGISTRY: Optional[BenchRegistry] = None


def _registry() -> BenchRegistry:
    global _REGISTRY
    if _REGISTRY is None:
        # BENCH_*.json land at the repo root (the parent of this
        # directory) unless REPRO_BENCH_DIR redirects them — the CI
        # bench job writes candidates next to, not over, the baselines.
        root = os.environ.get(
            "REPRO_BENCH_DIR",
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        os.makedirs(root, exist_ok=True)
        _REGISTRY = BenchRegistry(root)
    return _REGISTRY


def record(area: str, bench: str, metric: str, value: float, unit: str,
           config: str = "", runtime: str = "sim",
           seed: Optional[int] = None,
           duration_s: Optional[float] = None,
           gate: bool = True) -> None:
    """Record one schema-validated result into ``BENCH_<AREA>.json``.

    Benchmarks call this right where they print their paper-style
    table, so the human row and the machine record can never disagree.
    Set ``gate=False`` for wall-clock (live) numbers: they are recorded
    for trend-watching but never fail ``repro perf compare``.
    ``REPRO_BENCH_DISABLE=1`` turns recording off entirely.
    """
    if os.environ.get("REPRO_BENCH_DISABLE"):
        return
    registry = _registry()
    registry.record(area, BenchResult(
        bench=bench, metric=metric, value=float(value), unit=unit,
        config=config, runtime=runtime, seed=seed,
        git_sha=current_git_sha(), duration_s=duration_s, gate=gate))
    registry.flush()


def timed(bed: Testbed, operation: Generator) -> Generator:
    """Wrap an operation generator to return its virtual-time latency."""
    start = bed.sim.now
    result = yield from operation
    return bed.sim.now - start, result


def measure_example_latencies(example: int) -> Dict[str, float]:
    """Simulated read/write latency for one paper example (all up).

    The paper's table arithmetic assumes the literal two-trip read
    (version inquiry, then a separate data fetch), so these runs pin
    ``read_fastpath=False``: the point of T1 is to cross-validate the
    analytic model, not to beat it.  The piggybacked single-trip read
    is measured on its own in ``bench_fig_read_fastpath.py``.
    """
    bed, config = example_testbed(example)
    suite = bed.install(config, example_data(), read_fastpath=False)
    read_latency, _ = bed.run(timed(bed, suite.read()))
    write_latency, _ = bed.run(timed(bed, suite.write(example_data(b"w"))))
    return {"read": read_latency, "write": write_latency}


def blocking_trials(example: int, operation: str, trials: int,
                    availability: float = 0.99,
                    seed: int = 99) -> float:
    """Monte-Carlo blocking rate for one paper example.

    Before each trial every server is independently down with
    probability ``1 - availability`` — exactly the paper's analytic
    model — and a single-attempt operation is issued.
    """
    bed, config = example_testbed(example, seed=seed,
                                  refresh_enabled=False)
    suite = bed.install(config, example_data())
    suite.max_attempts = 1
    suite.inquiry_timeout = 150.0
    servers = [rep.server for rep in config.representatives]
    rng = RandomStreams(seed=seed).stream(f"trials:{example}:{operation}")
    blocked = 0

    def loop():
        nonlocal blocked
        for _trial in range(trials):
            down = [server for server in servers
                    if rng.random() >= availability]
            for server in down:
                bed.crash(server)
            try:
                if operation == "read":
                    yield from suite.read()
                else:
                    yield from suite.write(example_data(b"t"))
            except ReproError:
                blocked += 1
            for server in down:
                bed.restart(server)

    bed.run(loop())
    return blocked / trials
