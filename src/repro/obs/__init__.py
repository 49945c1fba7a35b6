"""Observability: causal tracing and metrics exposition.

One layer shared by the deterministic simulator and the live asyncio
runtime — the same narrow-waist trick the runtimes themselves use.
Operation spans are created by the protocol layers
(:mod:`repro.core.suite`, :mod:`repro.txn`, :mod:`repro.rpc`) against a
:class:`TraceCollector` whose clock is whichever kernel is running;
trace context crosses process boundaries in
:class:`~repro.rpc.messages.Request` metadata, so a quorum operation's
spans — coordinator, every participant, both 2PC phases — stitch into
one tree even when each daemon records only its own part.

Exposition: every collector keeps a drop-counting ring buffer and can
export JSONL (``repro trace`` renders it); live daemons additionally
serve ``/metrics`` (Prometheus text) and ``/healthz`` over a dedicated
HTTP port (``repro metrics`` scrapes it).

Fleet plane (PR 7): :mod:`~repro.obs.critical_path` attributes quorum
wait to the representatives that gated it, :mod:`~repro.obs.aggregate`
merges every daemon's exposition into one cluster view, and
:mod:`~repro.obs.slo` evaluates declarative objectives with
multi-window burn rates — all consumed by ``repro top`` and
``repro doctor``.

Postmortem plane (PR 9): :mod:`~repro.obs.flight` is the black-box
flight recorder — a crash-safe, checksummed, segment-rotated journal
of protocol-level decisions that survives the process.
:mod:`repro.replay` audits and deterministically re-executes incidents
from it.
"""

from .aggregate import (FleetView, render_fleet_view, scrape_fleet,
                        scrape_fleet_sync, snapshot_registry,
                        snapshot_sim_cluster)
from .collector import (JsonlSink, RingBufferSink, SpanLog,
                        TraceCollector, dump_jsonl, dumps_jsonl,
                        load_jsonl)
from .flight import (FlightHistory, FlightJournalError, FlightRecorder,
                     JournalStats, load_flight_journal,
                     read_journal_bytes)
from .critical_path import (CriticalPathReport, QuorumPath,
                            analyze_quorum_paths, attribution_from_samples,
                            extract_phase_laggards, extract_quorum_paths)
from .httpd import ObsHttpServer, fetch
from .prom import (BUCKETS, CONTENT_TYPE, bucket_counts, metric_name,
                   parse_exposition, render_registry, split_labels)
from .slo import (SLOEvaluator, SLOSpec, SLOStatus, SLOTracker,
                  read_latency_slo, staleness_slo, success_rate_slo)
from .spans import (CLIENT, ERROR, INTERNAL, NOOP_SPAN, OK, SERVER,
                    NoopSpan, Span, SpanEvent, TraceContext)
from .timeline import breakdown, group_traces, render_trace, summarize

__all__ = [
    "BUCKETS",
    "CLIENT",
    "CONTENT_TYPE",
    "CriticalPathReport",
    "ERROR",
    "FleetView",
    "FlightHistory",
    "FlightJournalError",
    "FlightRecorder",
    "INTERNAL",
    "JournalStats",
    "JsonlSink",
    "NOOP_SPAN",
    "NoopSpan",
    "OK",
    "ObsHttpServer",
    "QuorumPath",
    "RingBufferSink",
    "SERVER",
    "SLOEvaluator",
    "SLOSpec",
    "SLOStatus",
    "SLOTracker",
    "Span",
    "SpanEvent",
    "SpanLog",
    "TraceCollector",
    "TraceContext",
    "analyze_quorum_paths",
    "attribution_from_samples",
    "breakdown",
    "bucket_counts",
    "dump_jsonl",
    "dumps_jsonl",
    "extract_phase_laggards",
    "extract_quorum_paths",
    "fetch",
    "group_traces",
    "load_flight_journal",
    "load_jsonl",
    "metric_name",
    "read_journal_bytes",
    "parse_exposition",
    "read_latency_slo",
    "render_fleet_view",
    "render_registry",
    "render_trace",
    "scrape_fleet",
    "scrape_fleet_sync",
    "snapshot_registry",
    "snapshot_sim_cluster",
    "split_labels",
    "staleness_slo",
    "success_rate_slo",
    "summarize",
]
