"""repro.perf — benchmark result registry and regression gate.

Two pieces: the :class:`BenchResult` schema and ``BENCH_*.json``
registry (every benchmark records what it printed), and the comparator
that turns two result files into pass/fail (``repro perf compare``).
Why a number moved is read from the spans (``repro perf profile``, see
:func:`repro.obs.breakdown`).
"""

from .compare import (DEFAULT_TOLERANCE, ComparisonReport, Delta,
                      MetricRule, compare_results, infer_direction)
from .registry import (BenchRegistry, bench_path, discover, load_results,
                       write_results)
from .result import (RUNTIMES, SCHEMA_VERSION, BenchResult, SchemaError,
                     current_git_sha, validate_result)

__all__ = [
    "BenchRegistry", "BenchResult", "ComparisonReport",
    "DEFAULT_TOLERANCE", "Delta", "MetricRule", "RUNTIMES", "SCHEMA_VERSION", "SchemaError",
    "bench_path", "compare_results", "current_git_sha", "discover",
    "infer_direction", "load_results", "validate_result",
    "write_results",
]
