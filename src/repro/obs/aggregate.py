"""Fleet-wide metrics aggregation: one merged view of many daemons.

PR 2 gave every daemon its own ``/metrics``; PR 6 stood up fleets of
them.  This module closes the gap: scrape (live) or snapshot (sim)
every member's exposition and merge the samples into one keyed cluster
view — server → suite → representative — that the CLI (``repro top``,
``repro doctor``, multi-target ``repro metrics``) and the soak verdict
all read.

Merge rules follow the Prometheus data model:

* counters (``_total``) and histogram components (``_bucket``,
  ``_sum``, ``_count``) are summed across sources;
* a histogram family merges into one
  :class:`~repro.sim.metrics.Histogram` — the type a registry keeps —
  so a fleet and a single daemon answer "p99" with the same rule.  A
  source whose ``le`` ladder is not this build's is left out of the
  merge and named in :attr:`FleetView.errors`;
* gauges stay per-source (a version lag is a fact about one daemon) —
  skyline queries take the max across sources.

The sim path renders the shared testbed registry through the exact
same exposition + parse pipeline the live scraper uses, so every query
below behaves identically on both runtimes.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import (Any, Dict, Iterable, List, Mapping, Optional, Tuple)

from ..chaos.health import STATE_OF_VALUE, CLOSED
from ..sim.metrics import BUCKETS, Histogram
from .critical_path import CriticalPathReport, attribution_from_samples
from .httpd import fetch
from .prom import BUCKET_LABELS, parse_exposition, render_registry

__all__ = [
    "Sample",
    "LabelKey",
    "FleetView",
    "scrape_fleet",
    "scrape_fleet_sync",
    "snapshot_registry",
    "snapshot_sim_cluster",
    "render_fleet_view",
    "write_obs_manifest",
    "load_obs_manifest",
]

#: One parsed exposition sample: ``(name, labels, value)``.
Sample = Tuple[str, Dict[str, str], float]

#: Hashable form of a label map.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, str]) -> LabelKey:
    return tuple(sorted(labels.items()))


class FleetView:
    """Parsed expositions from every fleet member, queryable merged."""

    def __init__(self) -> None:
        #: source (server name / "sim") -> parsed samples.
        self.sources: Dict[str, List[Sample]] = {}
        #: source -> error string for members that failed to scrape.
        self.errors: Dict[str, str] = {}

    def add_source(self, name: str, samples: Iterable[Sample]) -> None:
        self.sources[name] = list(samples)

    def add_text(self, name: str, text: str) -> None:
        self.add_source(name, parse_exposition(text))

    def add_error(self, name: str, error: str) -> None:
        self.errors[name] = error

    # -- merged queries ------------------------------------------------

    def all_samples(self) -> List[Sample]:
        return [sample for samples in self.sources.values()
                for sample in samples]

    def merged_counters(self) -> Dict[Tuple[str, LabelKey], float]:
        """Summable series (counters + histogram components), summed."""
        merged: Dict[Tuple[str, LabelKey], float] = {}
        for name, labels, value in self.all_samples():
            if not (name.endswith("_total") or name.endswith("_bucket")
                    or name.endswith("_sum") or name.endswith("_count")):
                continue
            key = (name, _label_key(labels))
            merged[key] = merged.get(key, 0.0) + value
        return merged

    def gauge_series(self, name: str) -> Dict[LabelKey, Dict[str, float]]:
        """``labels -> source -> value`` for one gauge family."""
        out: Dict[LabelKey, Dict[str, float]] = {}
        for source, samples in self.sources.items():
            for sample_name, labels, value in samples:
                if sample_name != name:
                    continue
                out.setdefault(_label_key(labels), {})[source] = value
        return out

    def histogram(self, family: str) -> Histogram:
        """A family like ``repro_suite_quorum_wait`` summed over every
        source and label set (``le`` aside).  A source whose buckets
        are not this build's ladder, or do not add up, is recorded in
        :attr:`errors` and left out rather than misfiled."""
        merged = Histogram(family)
        for source, samples in self.sources.items():
            cumulative: Dict[Optional[str], float] = {}
            total = count = 0.0
            for name, labels, value in samples:
                if name == family + "_bucket":
                    le = labels.get("le")
                    cumulative[le] = cumulative.get(le, 0.0) + value
                elif name == family + "_sum":
                    total += value
                elif name == family + "_count":
                    count += value
            if not cumulative and not count:
                continue
            running = [cumulative.get(le, -1.0) for le in BUCKET_LABELS]
            counts = [high - low
                      for low, high in zip([0.0] + running, running)]
            if (len(cumulative) != len(BUCKET_LABELS)
                    or running[-1] != count
                    or not all(0.0 <= n < math.inf for n in counts)):
                self.errors[source] = (f"{family}: buckets do not match "
                                       f"this build's ladder")
                continue
            merged.counts = [a + int(b)
                             for a, b in zip(merged.counts, counts)]
            merged.sum += total
            merged.count += int(count)
        return merged

    # -- keyed cluster views -------------------------------------------

    def version_lag_skyline(self) -> Dict[Tuple[str, str], float]:
        """``(suite, rep) -> worst observed version lag`` across sources.

        Covers both strong (``suite_version_lag``) and weak
        (``suite_weak_staleness``) representative families.
        """
        skyline: Dict[Tuple[str, str], float] = {}
        for family in ("repro_suite_version_lag",
                       "repro_suite_weak_staleness"):
            for labels, by_source in self.gauge_series(family).items():
                label_map = dict(labels)
                key = (label_map.get("suite", "?"),
                       label_map.get("rep", "?"))
                worst = max(by_source.values())
                skyline[key] = max(skyline.get(key, 0.0), worst)
        return skyline

    def breaker_states(self) -> Dict[Tuple[str, str], str]:
        """``(source, target server) -> breaker state`` decoded from the
        ``health.breaker_state`` gauge each member exports."""
        states: Dict[Tuple[str, str], str] = {}
        for labels, by_source in self.gauge_series(
                "repro_health_breaker_state").items():
            server = dict(labels).get("server", "?")
            for source, value in by_source.items():
                states[(source, server)] = STATE_OF_VALUE.get(
                    value, CLOSED)
        return states

    def open_breakers(self) -> List[Tuple[str, str, str]]:
        """Non-closed breakers as ``(source, server, state)`` rows."""
        return sorted((source, server, state)
                      for (source, server), state
                      in self.breaker_states().items()
                      if state != CLOSED)

    def quorum_blocking(self) -> CriticalPathReport:
        """Fleet-wide critical-path attribution from the online
        ``quorum.blocking.*`` families."""
        return attribution_from_samples(self.all_samples())

    def counter_total(self, name: str) -> float:
        """Sum of one counter family across all sources and labels."""
        return sum(value for (sample_name, _labels), value
                   in self.merged_counters().items()
                   if sample_name == name)


async def scrape_fleet(addresses: Mapping[str, Tuple[str, int]],
                       path: str = "/metrics",
                       timeout: float = 5.0) -> FleetView:
    """Pull ``path`` from every ``name -> (host, port)`` member.

    Unreachable members land in :attr:`FleetView.errors` instead of
    failing the whole scrape — a fleet view with a hole in it is
    exactly what the doctor wants to see.
    """
    view = FleetView()

    async def one(name: str, host: str, port: int) -> None:
        try:
            status, body = await fetch(host, port, path, timeout=timeout)
        except (OSError, asyncio.TimeoutError) as exc:
            view.add_error(name, f"{type(exc).__name__}: {exc}")
            return
        if status != 200:
            view.add_error(name, f"HTTP {status}")
            return
        view.add_text(name, body)

    await asyncio.gather(*(one(name, host, port)
                           for name, (host, port)
                           in sorted(addresses.items())))
    return view


def scrape_fleet_sync(addresses: Mapping[str, Tuple[str, int]],
                      path: str = "/metrics",
                      timeout: float = 5.0) -> FleetView:
    """Blocking wrapper around :func:`scrape_fleet` for the CLI."""
    return asyncio.run(scrape_fleet(addresses, path=path, timeout=timeout))


def snapshot_registry(name: str, registry: Any,
                      extra: Optional[Mapping[str, float]] = None,
                      ) -> FleetView:
    """A one-source view rendered through the live exposition pipeline."""
    view = FleetView()
    view.add_text(name, render_registry(registry, extra=extra))
    return view


def snapshot_sim_cluster(cluster: Any) -> FleetView:
    """Snapshot a :class:`~repro.cluster.harness.SimCluster`.

    The sim testbed shares one registry across the fleet, so the view
    has a single ``sim`` source; every keyed query still fans out by
    the suite/rep/server labels inside it.
    """
    return snapshot_registry("sim", cluster.bed.metrics)


def write_obs_manifest(addresses: Mapping[str, Tuple[str, int]],
                       path: str) -> None:
    """Persist ``name -> (host, port)`` obs addresses as JSON.

    Live obs sidecars bind ephemeral ports, so fleet discovery for
    out-of-process CLI tools goes through this manifest.
    """
    payload = {"servers": {name: [host, port]
                           for name, (host, port)
                           in sorted(addresses.items())}}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def load_obs_manifest(path: str) -> Dict[str, Tuple[str, int]]:
    """Read back a :func:`write_obs_manifest` file."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    servers = payload.get("servers", payload)
    return {str(name): (str(entry[0]), int(entry[1]))
            for name, entry in servers.items()}


def _bound_text(bound: float) -> str:
    if bound == math.inf:
        return f">{BUCKETS[-1]:g}ms"
    return f"<={bound:g}ms"


def render_fleet_view(view: FleetView, top: int = 8) -> str:
    """Terminal summary of a merged view: the ``repro top`` body."""
    reads = view.histogram("repro_suite_quorum_wait")
    lines: List[str] = []
    sources = ", ".join(sorted(view.sources)) or "(none)"
    lines.append(f"sources: {sources}")
    for name, error in sorted(view.errors.items()):
        lines.append(f"  !! {name}: {error}")
    if reads.count:
        lines.append(
            f"quorum wait: n={reads.count} mean={reads.mean:.1f}ms "
            f"p50{_bound_text(reads.quantile(0.5))} "
            f"p99{_bound_text(reads.quantile(0.99))}")

    report = view.quorum_blocking()
    if report.total_blocked_ms > 0.0:
        share = report.blocking_share()
        lines.append("top quorum blockers (share of attributed wait):")
        for rep, blocked, closes in report.top_blockers(top):
            lines.append(f"  {rep:<16} {share.get(rep, 0.0):6.1%} "
                         f"({blocked:.1f} ms, closed {closes})")

    skyline = view.version_lag_skyline()
    stale = sorted(((lag, suite, rep)
                    for (suite, rep), lag in skyline.items() if lag > 0.0),
                   reverse=True)
    if stale:
        lines.append("version-lag skyline (stale copies):")
        for lag, suite, rep in stale[:top]:
            lines.append(f"  {suite}/{rep}: {int(lag)} versions behind")

    open_breakers = view.open_breakers()
    if open_breakers:
        lines.append("open circuit breakers:")
        for source, server, state in open_breakers:
            lines.append(f"  {source} -> {server}: {state}")
    return "\n".join(lines)
