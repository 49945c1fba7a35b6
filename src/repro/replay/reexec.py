"""Deterministic re-execution of a journaled incident.

The journal's ``meta`` record carries the complete soak configuration
and seed, and the simulator derives *everything* — op mix, fault
schedule, message timing — from exactly that.  So re-execution is not
"apply the recorded ops": it is re-running the recorded universe on
the sim kernel and letting the physics happen again.  For a journal
recorded on the simulator the two runs are byte-identical, segment for
segment; that equality is the strongest statement the plane can make
(every decision, every observed version stamp, every fault matches).

A journal recorded on the *live* runtime cannot be byte-identical on
the simulator (wall-clock timings and fresh transaction ids drive
different fault interleavings), so for those the comparison drops to
the protocol's semantic spine: the sequence of committed write
versions per suite.  Divergence — in either mode — is reported keyed
by the first mismatching version stamp.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..obs.flight import load_flight_journal, read_journal_bytes

#: Journal runtimes this engine can reconstruct a config for.
_CHAOS_RUNTIMES = ("sim", "live")


@dataclass
class ReexecReport:
    """Outcome of re-executing one journal on the sim kernel."""

    directory: str
    out_dir: str
    runtime: str
    seed: Optional[int]
    #: Byte-identical replay (only claimable for sim-recorded journals).
    identical: bool = False
    #: Whether byte-identity was even attempted (sim journals only).
    byte_compared: bool = False
    #: First divergence, keyed by version stamp, or ``None``.
    divergence: Optional[str] = None
    original_records: int = 0
    replay_records: int = 0
    #: Per-suite committed version chains, for the semantic compare.
    original_commits: Dict[str, List[int]] = field(default_factory=dict)
    replay_commits: Dict[str, List[int]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.divergence is None

    def summary(self) -> str:
        if self.byte_compared:
            verdict = ("byte-identical" if self.identical
                       else f"DIVERGED: {self.divergence}")
        else:
            verdict = ("commit chains match" if self.ok
                       else f"DIVERGED: {self.divergence}")
        return (f"[replay-reexec] {verdict} | original "
                f"{self.original_records} records ({self.runtime}), "
                f"replay {self.replay_records} records (sim), "
                f"seed={self.seed}")


def _meta(records: List[Dict[str, Any]]) -> Dict[str, Any]:
    for record in records:
        if record.get("kind") == "meta":
            return record.get("data", {})
    raise ValueError("journal has no meta record; cannot re-execute")


def _commit_chains(records: List[Dict[str, Any]],
                   ) -> Dict[str, List[Tuple[int, str]]]:
    """Per-suite ``(version, tag)`` of every committed write, in order."""
    chains: Dict[str, List[Tuple[int, str]]] = {}
    for record in records:
        if record.get("kind") != "op":
            continue
        data = record.get("data", {})
        if data.get("kind") != "write" or not data.get("ok"):
            continue
        suite = data.get("suite", "suite")
        chains.setdefault(suite, []).append(
            (data.get("version"), data.get("tag")))
    return chains


def _first_record_divergence(original: List[Dict[str, Any]],
                             replay: List[Dict[str, Any]]) -> str:
    """Describe the first differing record, keyed by version stamp."""
    for position, (a, b) in enumerate(zip(original, replay)):
        if a == b:
            continue
        stamp = (a.get("data", {}).get("version")
                 or a.get("data", {}).get("config_version"))
        return (f"record seq={position} "
                f"(kind {a.get('kind')!r} vs {b.get('kind')!r}, "
                f"version stamp {stamp!r}): journals differ")
    return (f"record counts differ: original {len(original)}, "
            f"replay {len(replay)}")


def _first_chain_divergence(
        original: Dict[str, List[Tuple[int, str]]],
        replay: Dict[str, List[Tuple[int, str]]]) -> Optional[str]:
    for suite in sorted(set(original) | set(replay)):
        want = original.get(suite, [])
        got = replay.get(suite, [])
        for position, (a, b) in enumerate(zip(want, got)):
            if a != b:
                return (f"[{suite}] commit {position}: recorded "
                        f"version {a[0]} tag {a[1]!r}, replay "
                        f"version {b[0]} tag {b[1]!r}")
        if len(want) != len(got):
            extra = want[len(got):] if len(want) > len(got) \
                else got[len(want):]
            return (f"[{suite}] commit chains differ in length "
                    f"({len(want)} recorded vs {len(got)} replayed; "
                    f"first unmatched version stamp {extra[0][0]})")
    return None


def re_execute(directory: str, out_dir: str) -> ReexecReport:
    """Replay the journal's recorded run on the simulator kernel.

    Writes the replay's own journal to ``out_dir`` and compares:
    byte-for-byte when the original was recorded on the simulator,
    committed-version chains when it was recorded live.
    """
    from ..chaos.soak import ClusterSoakConfig, SoakConfig, run_sim_soak

    records, stats = load_flight_journal(directory)
    meta = _meta(records)
    runtime = str(meta.get("runtime", "unknown"))
    config_raw = dict(meta.get("config", {}))
    report = ReexecReport(directory=directory, out_dir=out_dir,
                          runtime=runtime, seed=meta.get("seed"),
                          original_records=stats.records)

    if runtime in _CHAOS_RUNTIMES:
        run_sim_soak(SoakConfig(**config_raw), flight_dir=out_dir)
    elif runtime == "cluster-sim":
        run_sim_soak(ClusterSoakConfig(**config_raw), flight_dir=out_dir)
    else:
        raise ValueError(f"journal runtime {runtime!r} has no "
                         "re-execution engine")

    replay_records, replay_stats = load_flight_journal(out_dir)
    report.replay_records = replay_stats.records

    original_chains = _commit_chains(records)
    replay_chains = _commit_chains(replay_records)
    report.original_commits = {
        suite: [version for version, _tag in chain]
        for suite, chain in original_chains.items()}
    report.replay_commits = {
        suite: [version for version, _tag in chain]
        for suite, chain in replay_chains.items()}

    if runtime in ("sim", "cluster-sim"):
        report.byte_compared = True
        report.identical = (read_journal_bytes(directory)
                            == read_journal_bytes(out_dir))
        if not report.identical:
            report.divergence = _first_record_divergence(records,
                                                         replay_records)
    else:
        report.divergence = _first_chain_divergence(original_chains,
                                                    replay_chains)
    return report
