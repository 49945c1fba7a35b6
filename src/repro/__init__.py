"""repro — Weighted Voting for Replicated Data (Gifford, SOSP 1979).

A complete reproduction of the paper's system, bottom to top:

* :mod:`repro.sim` — deterministic discrete-event simulation (the
  testbed substitute): virtual time, datagram network with latency /
  bandwidth / loss / partitions, failure injection.
* :mod:`repro.storage` — stable storage (careful + duplexed pages) and
  a shadow-paging file system with crash-atomic whole-file updates.
* :mod:`repro.txn` — strict two-phase locking, intentions-list logging,
  and two-phase commit.
* :mod:`repro.core` — the paper's contribution: file suites with
  weighted voting, weak representatives, background refresh, live
  reconfiguration, and the closed-form performance/availability model.
* :mod:`repro.baselines` — read-one/write-all, primary copy, and
  majority consensus for comparison.
* :mod:`repro.autonomy` — the vote autopilot: health-driven autonomous
  weight reassignment through the live-reconfiguration path.
* :mod:`repro.workload` — operation mixes and client drivers.
* :mod:`repro.violet` — the calendar application layer of the paper's
  prototype.
* :mod:`repro.testbed` — one-call construction of full deployments.

Quick start::

    from repro import Testbed, make_configuration

    bed = Testbed(servers=["s1", "s2", "s3"])
    config = make_configuration("db", [("s1", 1), ("s2", 1), ("s3", 1)],
                                read_quorum=2, write_quorum=2)
    suite = bed.install(config, b"hello")
    print(bed.run(suite.read()).data)        # b"hello"
    bed.run(suite.write(b"world"))
"""

from .core import (BackgroundRefresher, FileSuiteClient, ReadResult,
                   Representative, SuiteAnalysis, SuiteConfiguration,
                   WriteResult, change_configuration, example_analysis,
                   example_configuration, install_suite,
                   make_configuration, paper_table)
from .errors import (InvalidConfigurationError, QuorumUnavailableError,
                     ReproError, StaleConfigurationError,
                     TransactionAborted)
from .testbed import Testbed, example_data, example_testbed
from .txn import Transaction, TransactionManager
from .verification import HistoryRecorder, OpRecord, check_history

__version__ = "1.0.0"

__all__ = [
    "BackgroundRefresher", "FileSuiteClient", "HistoryRecorder",
    "OpRecord", "check_history", "InvalidConfigurationError",
    "QuorumUnavailableError", "ReadResult", "Representative", "ReproError",
    "StaleConfigurationError", "SuiteAnalysis", "SuiteConfiguration",
    "Testbed", "Transaction", "TransactionAborted", "TransactionManager",
    "WriteResult", "change_configuration", "example_analysis",
    "example_configuration", "example_data", "example_testbed",
    "install_suite", "make_configuration", "paper_table",
]
