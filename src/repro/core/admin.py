"""Operational tooling for file suites.

What an operator of Gifford's system would need day to day: inspect the
health of a suite (who is reachable, how far behind each copy is),
verify the protocol's on-disk invariants, and force a full convergence
pass before, say, taking a server down for maintenance.

Everything here is read-mostly and built from the same primitives as
the protocol itself (version inquiries, refresh) — no back doors into
server state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional

from ..errors import ReproError
from .suite import FileSuiteClient


@dataclass
class RepresentativeStatus:
    """One representative's view, as reported by a version inquiry."""

    rep_id: str
    server: str
    votes: int
    reachable: bool
    version: Optional[int] = None
    stamp: Optional[int] = None

    @property
    def weak(self) -> bool:
        return self.votes == 0


@dataclass
class SuiteStatus:
    """A point-in-time health report for a suite."""

    suite_name: str
    config_version: int
    current_version: Optional[int]
    representatives: List[RepresentativeStatus] = field(
        default_factory=list)

    @property
    def reachable_votes(self) -> int:
        return sum(rep.votes for rep in self.representatives
                   if rep.reachable)

    @property
    def stale(self) -> List[RepresentativeStatus]:
        if self.current_version is None:
            return []
        return [rep for rep in self.representatives
                if rep.reachable and rep.version is not None
                and rep.version < self.current_version]

    @property
    def unreachable(self) -> List[RepresentativeStatus]:
        return [rep for rep in self.representatives if not rep.reachable]

    def can_read(self, read_quorum: int) -> bool:
        return self.reachable_votes >= read_quorum

    def can_write(self, write_quorum: int) -> bool:
        return self.reachable_votes >= write_quorum

    def as_rows(self) -> List[Dict[str, Any]]:
        return [{
            "rep": rep.rep_id,
            "server": rep.server,
            "votes": rep.votes,
            "reachable": rep.reachable,
            "version": rep.version,
            "stamp": rep.stamp,
        } for rep in self.representatives]


def suite_status(suite: FileSuiteClient,
                 ) -> Generator[Any, Any, SuiteStatus]:
    """Poll every representative and build a :class:`SuiteStatus`.

    Uses a read transaction so the report is taken under shared locks —
    a consistent snapshot, not a racy scrape.  Representatives that do
    not answer within the inquiry timeout are reported unreachable.
    The ``current_version`` is only trusted (non-None) when the
    reachable representatives hold a read quorum; with fewer votes the
    highest version seen may not be current.
    """
    from ..txn.locks import SHARED
    from .gather import gather_until

    config = suite.config
    txn = suite.manager.begin()
    try:
        calls = {
            rep: txn.call(rep.server, "txn.stat", name=config.file_name,
                          mode=SHARED, timeout=suite.inquiry_timeout)
            for rep in config.representatives
        }
        gathered = yield from gather_until(
            suite.sim, calls, lambda gathered: False)
        yield from txn.commit()
    except ReproError:
        yield from txn.abort()
        raise

    representatives = []
    for rep in config.representatives:
        stat = gathered.successes.get(rep)
        if stat is None:
            representatives.append(RepresentativeStatus(
                rep_id=rep.rep_id, server=rep.server, votes=rep.votes,
                reachable=False))
        else:
            representatives.append(RepresentativeStatus(
                rep_id=rep.rep_id, server=rep.server, votes=rep.votes,
                reachable=True, version=stat["version"],
                stamp=stat.get("stamp")))

    reachable_votes = sum(rep.votes for rep in representatives
                          if rep.reachable)
    versions = [rep.version for rep in representatives
                if rep.version is not None]
    current = max(versions) if versions \
        and reachable_votes >= config.read_quorum else None
    return SuiteStatus(suite_name=config.suite_name,
                       config_version=config.config_version,
                       current_version=current,
                       representatives=representatives)


@dataclass
class InvariantReport:
    """Outcome of :func:`verify_invariants`."""

    ok: bool
    problems: List[str] = field(default_factory=list)


def verify_invariants(suite: FileSuiteClient,
                      ) -> Generator[Any, Any, InvariantReport]:
    """Check the protocol's observable invariants across reachable reps.

    * every version a representative claims is **corroborated**: any
      legitimately committed version lives on a write quorum, so a
      version held by fewer than ``w`` votes that no read quorum of the
      *other* representatives can account for is flagged as corrupt;
    * configuration stamps never exceed the newest one the client knows
      after adoption.

    Staleness (copies behind the current version) is explicitly *not*
    a violation — it is the protocol's normal state between a write
    and its background refresh.
    """
    status = yield from suite_status(suite)
    problems: List[str] = []
    config = suite.config
    if status.current_version is None:
        problems.append(
            f"cannot establish currency: only {status.reachable_votes} "
            f"votes reachable (need r={config.read_quorum})")
        return InvariantReport(ok=False, problems=problems)

    reachable = [rep for rep in status.representatives
                 if rep.reachable and rep.version is not None]
    newest_stamp = config.config_version
    for rep in reachable:
        if rep.stamp is not None and rep.stamp > newest_stamp:
            problems.append(
                f"{rep.rep_id}: stamp {rep.stamp} newer than the "
                f"client's adopted configuration {newest_stamp}")
        # Corroboration: either enough holders of this version exist to
        # have formed a write quorum, or the *other* reachable members
        # form a read quorum whose maximum reaches this version.
        holders_votes = sum(other.votes for other in reachable
                            if other.version is not None
                            and other.version >= rep.version)
        if holders_votes >= config.write_quorum:
            continue
        others = [other for other in reachable if other is not rep]
        others_votes = sum(other.votes for other in others)
        if others_votes < config.read_quorum:
            continue  # not enough independent evidence either way
        others_max = max(other.version for other in others)
        if rep.version > others_max:
            problems.append(
                f"{rep.rep_id}: claims version {rep.version}, but no "
                f"write quorum corroborates it (peers reach only "
                f"{others_max})")
    return InvariantReport(ok=not problems, problems=problems)


def force_converge(suite: FileSuiteClient, settle_checks: int = 20,
                   check_interval: float = 500.0,
                   ) -> Generator[Any, Any, SuiteStatus]:
    """Drive every reachable representative to the current version.

    Schedules refresh for all stale representatives and polls until no
    reachable representative lags (or ``settle_checks`` expire).
    Useful before maintenance: after it returns cleanly, any single
    representative can be removed without losing currency anywhere.
    """
    status = yield from suite_status(suite)
    for _check in range(settle_checks):
        stale = status.stale
        if not stale and status.current_version is not None:
            return status
        if suite.refresher is not None and stale \
                and status.current_version is not None:
            suite.refresher.schedule(
                suite, [rep.rep_id for rep in stale],
                status.current_version)
        yield suite.sim.timeout(check_interval)
        status = yield from suite_status(suite)
    return status
