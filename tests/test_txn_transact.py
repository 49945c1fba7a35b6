"""The one transaction-attempt loop, ``TransactionManager.transact``,
and the callers that run in it."""

import pytest

from repro.chaos.retry import RetryPolicy
from repro.core import change_configuration, install_suite, make_configuration
from repro.core.suite import INSTALL_ATTEMPTS, INSTALL_RETRY
from repro.errors import (DeadlockError, QuorumUnavailableError, RpcTimeout,
                          StaleConfigurationError)
from repro.baselines import ReadOneWriteAllClient
from repro.sim.rng import RandomStreams
from repro.testbed import Testbed
from repro.txn.coordinator import RETRYABLE
from repro.violet import MeetingScheduler, decode_calendar, empty_calendar_data
from repro.violet import scheduling

SERVERS = ["s1", "s2", "s3"]


class RecordingSpan:
    """Stands in for a live span: keeps the events the loop adds."""

    context = None

    def __init__(self):
        self.events = []

    def event(self, name, **attrs):
        self.events.append((name, attrs))


def scripted(outcomes):
    """An operation whose n-th attempt raises ``outcomes[n]`` (an
    exception) or returns it.  Every attempt yields once first (on no
    timeout: the loop's own waits are the only ones scheduled)."""
    script = list(outcomes)

    def operation(txn):
        yield txn.sim.all_of([])
        outcome = script.pop(0)
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome
    return operation


def run_loop(outcomes, policy, attempts=4, seed=0):
    """Drive ``transact`` over scripted outcomes; return what it did.
    The testbed has no servers, so every timeout is the loop's own."""
    bed = Testbed(servers=[], seed=1)
    manager = bed.clients["client"].manager
    delays = []
    timeout = bed.sim.timeout

    def recording_timeout(delay, value=None):
        delays.append(delay)
        return timeout(delay, value)

    bed.sim.timeout = recording_timeout
    span = RecordingSpan()
    retries = []
    outcome = {}

    def drive():
        try:
            outcome["value"] = yield from manager.transact(
                scripted(outcomes), policy, attempts,
                RandomStreams(seed=seed).stream("loop"), span=span,
                on_retry=lambda: retries.append(1))
        except BaseException as exc:  # noqa: BLE001 - recorded for asserts
            outcome["error"] = exc

    bed.run(drive())
    return outcome, delays, span.events, len(retries), manager


def expected_delays(policy, count, seed=0):
    rng = RandomStreams(seed=seed).stream("loop")
    return [delay for delay in (policy.delay(n, rng) for n in range(count))
            if delay > 0]


def stale(version=2):
    return StaleConfigurationError(version)


SUITE = RetryPolicy(base=50.0)
NO_DELAY = RetryPolicy(base=0.0)

#: (name, outcomes, policy, result, begun, adopted, retries, error type)
CASES = [
    ("first try", ["ok"], SUITE, "ok", 1, 0, 0, None),
    ("one retry", [DeadlockError("d"), "ok"], SUITE, "ok", 2, 0, 1, None),
    ("three retries", [RpcTimeout("x", "y", 1.0)] * 3 + ["ok"], SUITE,
     "ok", 4, 0, 3, None),
    ("exhausted", [QuorumUnavailableError("read", 2, 1)] * 4, SUITE,
     None, 4, 0, 4, QuorumUnavailableError),
    ("three adoptions", [stale(), stale(3), stale(4), "ok"], SUITE,
     "ok", 4, 3, 0, None),
    ("fourth adoption raises", [stale(), stale(3), stale(4), stale(5)],
     SUITE, None, 4, 4, 0, StaleConfigurationError),
    ("adoption is not an attempt",
     [DeadlockError("d")] * 3 + [stale(), "ok"], SUITE, "ok", 5, 1, 3,
     None),
    ("adoptions leave every attempt",
     [stale(), stale(3)] + [DeadlockError("d")] * 3 + ["ok"], SUITE, "ok",
     6, 2, 3, None),
    ("not retryable", [ValueError("conflict")], SUITE, None, 1, 0, 0,
     ValueError),
    ("zero delay", [DeadlockError("d")] * 2 + ["ok"], NO_DELAY, "ok", 3, 0,
     2, None),
]


@pytest.mark.parametrize(
    "outcomes,policy,result,begun,adopted,retries,error",
    [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_scripted_outcomes(outcomes, policy, result, begun, adopted,
                           retries, error):
    outcome, delays, events, retried, manager = run_loop(outcomes, policy)
    if error is None:
        assert outcome["value"] == (result, begun, adopted)
    else:
        assert isinstance(outcome["error"], error)
    assert retried == retries
    # Every attempt but a committed one was aborted, exactly once.
    assert manager.aborts == begun - (error is None)
    assert manager.commits == (error is None)
    # A wait follows every retryable failure but the last attempt's,
    # on the policy's schedule; a zero delay schedules no timeout.
    waits = min(retries, 3)
    assert delays == expected_delays(policy, waits)
    assert [attrs["attempt"] for name, attrs in events
            if name == "retry"] == list(range(1, retries + 1))
    adoptions = [exc.config_version for exc in outcomes
                 if isinstance(exc, StaleConfigurationError)]
    assert [attrs["version"] for name, attrs in events
            if name == "config.adopted"] == adoptions[:3]


def caller_policies():
    bed = Testbed(servers=SERVERS, seed=1)
    manager = bed.clients["client"].manager
    suite = bed.suite(make_configuration(
        "db", [(name, 1) for name in SERVERS], 2, 2))
    rowa = ReadOneWriteAllClient(manager, "obj", SERVERS)
    return {"suite": (suite.retry_policy, suite.max_attempts),
            "install": (INSTALL_RETRY, INSTALL_ATTEMPTS),
            "violet": (scheduling.RETRY, scheduling.ATTEMPTS),
            "baseline": (rowa.retry_policy, rowa.max_attempts)}


@pytest.mark.parametrize("caller", ["suite", "install", "violet",
                                    "baseline"])
def test_delays_follow_each_callers_policy(caller):
    policy, attempts = caller_policies()[caller]
    failures = [DeadlockError("d")] * attempts
    outcome, delays, _events, retried, _ = run_loop(failures, policy,
                                                    attempts, seed=7)
    assert isinstance(outcome["error"], DeadlockError)
    assert retried == attempts
    assert delays == expected_delays(policy, attempts - 1, seed=7)
    assert len(delays) == attempts - 1     # none after the last


def test_caller_schedules():
    policies = caller_policies()
    assert [policies["install"][0].delay(n, None) for n in range(3)] == \
        [150.0] * 3
    for name in ("violet", "baseline"):
        assert [policies[name][0].delay(n, None) for n in range(3)] == \
            [50.0, 100.0, 200.0]
    assert all(attempts == 4 for _policy, attempts in policies.values())
    assert policies["suite"][0] == RetryPolicy(base=50.0, jitter=0.5)


def test_killed_process_does_not_yield_on_close():
    bed = Testbed(servers=SERVERS, seed=1)
    manager = bed.clients["client"].manager
    loop = manager.transact(scripted(["never"]), SUITE, 4)
    loop.send(None)                  # parked inside the operation
    loop.close()                     # GeneratorExit: must not yield
    assert manager.aborts == 0 and manager.commits == 0


def test_generator_exit_from_the_operation_propagates():
    bed = Testbed(servers=SERVERS, seed=1)
    manager = bed.clients["client"].manager

    def operation(txn):
        raise GeneratorExit
        yield  # pragma: no cover - makes this a generator

    with pytest.raises(GeneratorExit):
        next(manager.transact(operation, SUITE, 4))
    assert manager.aborts == 0


# ----------------------------------------------------------------------
# Callers
# ----------------------------------------------------------------------

def test_violet_schedules_across_a_reconfigured_calendar():
    """A second handle reconfigures bob's calendar; the scheduler's
    handle meets the new stamp mid-transaction, adopts it and retries
    instead of failing the meeting."""
    bed = Testbed(servers=SERVERS, seed=17)
    node = bed.clients["client"]
    calendars = {}
    for user in ("alice", "bob"):
        config = make_configuration(
            f"cal-{user}", [(name, 1) for name in SERVERS], 2, 2,
            latency_hints={"s1": 5.0, "s2": 10.0, "s3": 15.0})
        calendars[user] = bed.install(config, empty_calendar_data())
    other = bed.suite(calendars["bob"].config)
    reweighted = make_configuration(
        "cal-bob", [("s1", 2), ("s2", 1), ("s3", 1)], 2, 3,
        latency_hints={"s1": 5.0, "s2": 10.0, "s3": 15.0})
    bed.run(change_configuration(other, reweighted))
    assert calendars["bob"].config.config_version == 1

    scheduler = MeetingScheduler(node.manager, calendars)
    meeting = bed.run(scheduler.schedule("alice", ["bob"], "sync",
                                         9.0, 10.0))
    assert meeting.participants == ("alice", "bob")
    assert calendars["bob"].config.config_version == 2
    for user in ("alice", "bob"):
        entries = decode_calendar(bed.run(calendars[user].read()).data)[1]
        assert [entry.title for entry in entries] == ["sync"]


def reconfig_bed():
    bed = Testbed(servers=SERVERS, seed=3)
    config = make_configuration("db", [(name, 1) for name in SERVERS],
                                2, 2)
    return bed, bed.install(config, b"seed")


def test_reconfiguration_does_not_sleep_after_its_last_attempt():
    bed, suite = reconfig_bed()
    suite.max_attempts = 1
    suite.retry_backoff = 10_000.0
    bed.crash("s2")
    bed.crash("s3")
    started = bed.sim.now
    target = make_configuration("db", [("s1", 2), ("s2", 1), ("s3", 1)],
                                2, 3)
    with pytest.raises(QuorumUnavailableError):
        bed.run(change_configuration(suite, target))
    assert bed.sim.now - started < suite.retry_backoff


def test_reconfiguration_aborts_on_a_foreign_error():
    """A non-library error after the old write quorum was locked still
    releases those locks before it propagates."""
    bed, suite = reconfig_bed()

    def broken_fetch(*_args, **_kwargs):
        raise RuntimeError("disk on fire")
        yield  # pragma: no cover - makes this a generator

    suite._fetch = broken_fetch
    target = make_configuration("db", [("s1", 2), ("s2", 1), ("s3", 1)],
                                2, 3)
    with pytest.raises(RuntimeError):
        bed.run(change_configuration(suite, target))
    for node in bed.servers.values():
        assert node.participant.locks.holders_of("suite:db") == {}
    assert suite.config.config_version == 1


def test_install_retries_on_a_fixed_schedule():
    bed = Testbed(servers=SERVERS, seed=5)
    manager = bed.clients["client"].manager
    bed.crash("s3")
    config = make_configuration("db", [(name, 1) for name in SERVERS],
                                2, 2)
    started = bed.sim.now
    with pytest.raises(RETRYABLE):
        bed.run(install_suite(manager, config, b"x"))
    assert manager.aborts == INSTALL_ATTEMPTS
    assert bed.sim.now - started >= 3 * 150.0
