"""Regression comparison between two benchmark result files.

``compare_results(old, new)`` pairs results by identity key
(bench, metric, config, runtime) and classifies each pair:

* ``ok`` — identical to the baseline,
* ``moved`` — a gated value that changed but stayed within tolerance
  (or has no direction to judge it by): not a failure, but always
  listed, so a baseline that went stale under tolerance is seen and
  re-committed rather than hidden,
* ``regression`` — moved past tolerance in the *bad* direction for the
  metric (slower for latency-like units, lower for throughput-like;
  for determinism digests — direction ``exact`` — any move at all),
* ``improvement`` — moved past tolerance in the good direction,
* ``info`` — either side is marked ``gate=False`` (advisory, e.g. live
  wall-clock numbers), or the metric's direction is unknown and its
  value did not change,
* ``new`` / ``removed`` — present on only one side.

Only ``regression`` rows make :meth:`ComparisonReport.failed` true —
the CLI turns that into a non-zero exit for CI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .result import BenchResult

#: Default relative tolerance before a gated metric fails the build.
DEFAULT_TOLERANCE = 0.25

#: Substrings that mark a metric/unit as "must match the baseline
#: exactly" — determinism digests, where *any* movement is a bug.
#: Checked first: a "placement_checksum" must not fall through to a
#: sloppier direction via some other hint.
_EXACT_HINTS = ("checksum", "digest", "determinism", "placement",
                "moved_suites")
#: Substrings that mark a metric/unit as "lower is better".
_LOWER_HINTS = ("latency", "_ms", "wait", "block", "stale", "retr",
                "overhead", "abort", "drop", "duration", "lag",
                "message")
#: Substrings that mark a metric/unit as "higher is better".
_HIGHER_HINTS = ("throughput", "ops", "per_sec", "/s", "rate",
                 "availability", "hit", "success", "reads")


#: Directions of metrics whose names carry no hint: a fault sweep's
#: detections, and its healthy control's false alarms.
_DIRECTIONS = {"cluster_shifted_seeds": "higher",
               "healthy_shifted_seeds": "lower"}


def infer_direction(metric: str, unit: str) -> Optional[str]:
    """``"exact"``, ``"lower"``, ``"higher"`` or ``None`` (advisory)."""
    if metric in _DIRECTIONS:
        return _DIRECTIONS[metric]
    haystack = f"{metric} {unit}".lower()
    if any(hint in haystack for hint in _EXACT_HINTS):
        return "exact"
    if any(hint in haystack for hint in _LOWER_HINTS):
        return "lower"
    if any(hint in haystack for hint in _HIGHER_HINTS):
        return "higher"
    return None


@dataclass(frozen=True)
class MetricRule:
    """Per-metric override of direction and tolerance."""

    direction: Optional[str]          # "lower" | "higher" | "exact" | None
    rel_tolerance: float = DEFAULT_TOLERANCE
    abs_tolerance: float = 0.0        # slack for near-zero baselines


@dataclass
class Delta:
    """One compared (or unpaired) metric."""

    key: Tuple[str, str, str, str]
    status: str       # ok|moved|regression|improvement|info|new|removed
    old: Optional[BenchResult]
    new: Optional[BenchResult]
    direction: Optional[str] = None
    change: Optional[float] = None    # signed relative change vs old

    def label(self) -> str:
        result = self.new or self.old
        assert result is not None
        return result.label()


class ComparisonReport:
    """All deltas of one compare run, plus render/exit helpers."""

    def __init__(self, deltas: List[Delta], tolerance: float) -> None:
        self.deltas = deltas
        self.tolerance = tolerance

    @property
    def regressions(self) -> List[Delta]:
        return [d for d in self.deltas if d.status == "regression"]

    @property
    def failed(self) -> bool:
        return bool(self.regressions)

    def counts(self) -> Dict[str, int]:
        tally: Dict[str, int] = {}
        for delta in self.deltas:
            tally[delta.status] = tally.get(delta.status, 0) + 1
        return tally

    def render(self, verbose: bool = False) -> str:
        lines = []
        for delta in sorted(self.deltas, key=lambda d: d.key):
            if not verbose and delta.status in ("ok", "info"):
                continue
            lines.append(_render_delta(delta))
        tally = self.counts()
        summary = ", ".join(f"{count} {status}" for status, count
                            in sorted(tally.items()))
        lines.append(f"compare: {summary or 'no results'} "
                     f"(tolerance {self.tolerance:.0%})")
        if self.failed:
            lines.append(f"REGRESSION: {len(self.regressions)} metric(s) "
                         f"moved past tolerance")
        return "\n".join(lines)


def _render_delta(delta: Delta) -> str:
    if delta.status == "new":
        assert delta.new is not None
        return (f"  new        {delta.label()} = "
                f"{delta.new.value:g} {delta.new.unit}")
    if delta.status == "removed":
        assert delta.old is not None
        return (f"  removed    {delta.label()} (was "
                f"{delta.old.value:g} {delta.old.unit})")
    assert delta.old is not None and delta.new is not None
    change = "n/a" if delta.change is None else f"{delta.change:+.1%}"
    arrow = {"lower": "↓ better", "higher": "↑ better",
             "exact": "= required",
             None: "direction unknown"}[delta.direction]
    return (f"  {delta.status:<10} {delta.label()}: "
            f"{delta.old.value:g} → {delta.new.value:g} "
            f"{delta.new.unit} ({change}, {arrow})")


def _classify(old: BenchResult, new: BenchResult, rule: MetricRule) -> Delta:
    key = new.key()
    if old.value == 0:
        change = None if new.value == 0 else float("inf")
    else:
        change = (new.value - old.value) / abs(old.value)
    delta = Delta(key=key, status="ok", old=old, new=new,
                  direction=rule.direction, change=change)
    if not (old.gate and new.gate):
        delta.status = "info"
        return delta
    moved = new.value - old.value
    if moved != 0:
        delta.status = "moved"
    elif rule.direction is None:
        delta.status = "info"
    if rule.direction is None:
        return delta
    if rule.direction == "exact":
        # Determinism gates: relative tolerance is meaningless on a
        # digest, so only ``abs_tolerance`` (default 0) grants slack,
        # and any move beyond it is a regression whatever its sign.
        if abs(moved) > rule.abs_tolerance:
            delta.status = "regression"
        return delta
    budget = max(rule.rel_tolerance * abs(old.value), rule.abs_tolerance)
    if abs(moved) <= budget:
        return delta
    got_worse = moved > 0 if rule.direction == "lower" else moved < 0
    delta.status = "regression" if got_worse else "improvement"
    return delta


def compare_results(old: Iterable[BenchResult],
                    new: Iterable[BenchResult],
                    tolerance: float = DEFAULT_TOLERANCE,
                    rules: Optional[Dict[str, MetricRule]] = None,
                    ) -> ComparisonReport:
    """Compare two result sets; ``rules`` maps metric name → override."""
    rules = rules or {}
    old_by_key = {result.key(): result for result in old}
    new_by_key = {result.key(): result for result in new}
    deltas = []
    for key, new_result in new_by_key.items():
        old_result = old_by_key.pop(key, None)
        if old_result is None:
            deltas.append(Delta(key=key, status="new", old=None,
                                new=new_result))
            continue
        rule = rules.get(new_result.metric)
        if rule is None:
            rule = MetricRule(
                direction=infer_direction(new_result.metric,
                                          new_result.unit),
                rel_tolerance=tolerance)
        deltas.append(_classify(old_result, new_result, rule))
    for key, old_result in old_by_key.items():
        deltas.append(Delta(key=key, status="removed", old=old_result,
                            new=None))
    return ComparisonReport(deltas, tolerance)
