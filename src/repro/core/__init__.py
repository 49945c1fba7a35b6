"""Weighted voting for replicated data — the paper's contribution.

Vote assignments and quorum rules (:mod:`~repro.core.votes`,
:mod:`~repro.core.quorum`), the file-suite read/write protocol over the
transaction substrate (:mod:`~repro.core.suite`), background refresh of
stale representatives (:mod:`~repro.core.refresh`), live
reconfiguration (:mod:`~repro.core.reconfig`), and the closed-form
performance/availability model that reproduces the paper's example
table (:mod:`~repro.core.analysis`, :mod:`~repro.core.examples`).
"""

from .admin import (InvariantReport, RepresentativeStatus, SuiteStatus,
                    force_converge, suite_status, verify_invariants)
from .analysis import (OperationEstimate, SuiteAnalysis, SuiteEstimate,
                       availability_sweep, message_cost, quorum_tradeoff)
from .client_cache import CachingSuiteClient
from .examples import (EXACT, EXPECTED, LATENCIES, REP_AVAILABILITY, SERVERS,
                       VOTES, example_analysis, example_configuration,
                       paper_table)
from .gather import GatherResult, gather_until
from .quorum import (QuorumRule, availability_of_votes, blocking_probability,
                     cheapest_quorum, feasible_quorum_pairs, is_quorum,
                     minimal_quorums, quorum_latency, quorums_intersect,
                     votes_of)
from .reconfig import change_configuration
from .refresh import BackgroundRefresher
from .suite import (FileSuiteClient, ReadResult, WriteResult, delete_suite,
                    install_suite)
from .tuning import (Candidate, ServerProfile, best_configuration,
                     enumerate_configurations, pareto_front, tune)
from .votes import Representative, SuiteConfiguration, make_configuration

__all__ = [
    "BackgroundRefresher", "CachingSuiteClient", "Candidate", "EXACT",
    "EXPECTED", "FileSuiteClient", "InvariantReport",
    "RepresentativeStatus", "ServerProfile", "SuiteStatus",
    "best_configuration", "enumerate_configurations", "force_converge",
    "message_cost", "pareto_front", "suite_status", "tune",
    "verify_invariants",
    "GatherResult", "LATENCIES", "OperationEstimate", "REP_AVAILABILITY",
    "ReadResult", "Representative", "SERVERS", "SuiteAnalysis",
    "SuiteConfiguration", "SuiteEstimate", "VOTES", "WriteResult",
    "availability_of_votes", "availability_sweep", "blocking_probability",
    "change_configuration", "cheapest_quorum", "example_analysis",
    "example_configuration", "feasible_quorum_pairs", "gather_until",
    "delete_suite", "install_suite", "is_quorum", "make_configuration",
    "minimal_quorums",
    "paper_table", "quorum_latency", "quorum_tradeoff",
    "quorums_intersect", "votes_of", "QuorumRule",
]
