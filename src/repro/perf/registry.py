"""Reading and writing ``BENCH_<area>.json`` result files.

One file per benchmark *area* (tables, figs, obs) at the repo
root, each a versioned envelope of :class:`~repro.perf.result.BenchResult`
records sorted by identity key — so regenerating a baseline with the
same seeds produces a byte-identical ``results`` list and a clean diff.

Writers replace records key-for-key rather than appending, so a
benchmark re-run within one session updates its own rows instead of
duplicating them.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional

from .result import SCHEMA_VERSION, BenchResult, SchemaError, validate_result

#: File name pattern for area files at the repo root.
FILE_PATTERN = "BENCH_{area}.json"


def bench_path(area: str, root: str = ".") -> str:
    """Path of the result file for ``area`` under ``root``."""
    if not area or not area.replace("_", "").isalnum():
        raise ValueError(f"bad area name {area!r}")
    return os.path.join(root, FILE_PATTERN.format(area=area.upper()))


def load_results(path: str) -> List[BenchResult]:
    """Read and validate one ``BENCH_*.json`` file."""
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: expected an object envelope")
    schema = raw.get("schema")
    if schema != SCHEMA_VERSION:
        raise SchemaError(f"{path}: unsupported file schema {schema!r}")
    records = raw.get("results")
    if not isinstance(records, list):
        raise SchemaError(f"{path}: 'results' must be a list")
    results = []
    for index, record in enumerate(records):
        try:
            validate_result(record)
        except SchemaError as exc:
            raise SchemaError(f"{path}: result #{index}: {exc}") from None
        results.append(BenchResult.from_json(record))
    return results


def write_results(path: str, results: Iterable[BenchResult]) -> None:
    """Write one ``BENCH_*.json`` file (records sorted by key)."""
    ordered = sorted(results, key=lambda result: result.key())
    envelope = {"schema": SCHEMA_VERSION,
                "results": [result.to_json() for result in ordered]}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(envelope, handle, indent=1, sort_keys=True)
        handle.write("\n")


class BenchRegistry:
    """Accumulates results per area and persists them at the repo root.

    ``record`` validates each result and replaces any prior record with
    the same identity key; ``flush`` rewrites every dirty area file,
    merging with records already on disk so several benchmark scripts
    (separate pytest items, one process) build up one file.
    """

    def __init__(self, root: str = ".") -> None:
        self.root = root
        self._areas: Dict[str, Dict[tuple, BenchResult]] = {}
        self._dirty: set = set()

    def record(self, area: str, result: BenchResult) -> None:
        validate_result(result.to_json())
        bucket = self._areas.setdefault(area, self._load_area(area))
        bucket[result.key()] = result
        self._dirty.add(area)

    def _load_area(self, area: str) -> Dict[tuple, BenchResult]:
        path = bench_path(area, self.root)
        if not os.path.exists(path):
            return {}
        return {result.key(): result for result in load_results(path)}

    def results(self, area: str) -> List[BenchResult]:
        bucket = self._areas.get(area)
        if bucket is None:
            bucket = self._load_area(area)
        return sorted(bucket.values(), key=lambda result: result.key())

    def flush(self) -> List[str]:
        """Write dirty areas; returns the paths written."""
        written = []
        for area in sorted(self._dirty):
            path = bench_path(area, self.root)
            write_results(path, self._areas[area].values())
            written.append(path)
        self._dirty.clear()
        return written


def discover(root: str = ".") -> List[str]:
    """All ``BENCH_*.json`` files under ``root`` (sorted)."""
    names = [name for name in os.listdir(root)
             if name.startswith("BENCH_") and name.endswith(".json")]
    return [os.path.join(root, name) for name in sorted(names)]
