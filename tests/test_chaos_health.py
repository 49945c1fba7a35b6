"""Circuit breakers, health-aware quorum assembly, fail-fast reads."""

import pytest

from repro.chaos import (CLOSED, HALF_OPEN, OPEN, CircuitBreaker,
                        HealthTracker)
from repro.core import make_configuration
from repro.errors import QuorumUnattainableError, QuorumUnavailableError
from repro.obs.prom import parse_exposition, render_registry
from repro.sim.metrics import MetricsRegistry
from repro.testbed import Testbed


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(clock, failure_threshold=3,
                                 cooldown=100.0)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.opens == 1

    def test_success_resets_the_failure_count(self):
        clock = FakeClock()
        breaker = CircuitBreaker(clock, failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_half_open_grants_exactly_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(clock, failure_threshold=1,
                                 cooldown=100.0)
        breaker.record_failure()
        assert not breaker.allow()
        clock.now = 100.0
        assert breaker.allow()               # the probe
        assert breaker.state == HALF_OPEN
        assert not breaker.allow()           # probe in flight: refused
        breaker.record_success()
        assert breaker.state == CLOSED and breaker.allow()

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(clock, failure_threshold=1,
                                 cooldown=100.0)
        breaker.record_failure()
        clock.now = 100.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.opens == 2

    def test_lost_probe_releases_the_slot_after_a_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(clock, failure_threshold=1,
                                 cooldown=100.0)
        breaker.record_failure()
        clock.now = 100.0
        assert breaker.allow()               # probe never reports back
        clock.now = 150.0
        assert not breaker.allow()
        clock.now = 200.0
        assert breaker.allow()               # slot re-opened


class TestHealthTracker:
    def test_unknown_servers_start_healthy(self):
        tracker = HealthTracker(FakeClock())
        assert tracker.allow("s1")
        assert tracker.state("s1") == CLOSED

    def test_metrics_mirroring(self):
        metrics = MetricsRegistry()
        tracker = HealthTracker(FakeClock(), failure_threshold=2,
                                metrics=metrics)
        tracker.record_failure("s1")
        tracker.record_failure("s1")
        assert metrics.gauge(
            "health.breaker_state[server=s1]").value == 1.0
        assert metrics.counter("health.breaker_opens").value == 1
        tracker.record_success("s1")
        assert metrics.gauge(
            "health.breaker_state[server=s1]").value == 0.0

    def test_snapshot_is_json_safe(self):
        clock = FakeClock()
        clock.now = 42.0
        tracker = HealthTracker(clock, failure_threshold=1)
        tracker.record_failure("s2")
        snap = tracker.snapshot()
        assert snap == {"s2": {"state": OPEN,
                               "consecutive_failures": 1, "opens": 1,
                               "closes": 0, "last_transition": 42.0}}

    def test_transition_history_counts_opens_and_closes(self):
        """Two full open -> close cycles leave opens == closes == 2 and
        the last-transition stamp at the final close."""
        clock = FakeClock()
        tracker = HealthTracker(clock, failure_threshold=1,
                                cooldown=100.0)
        for cycle in range(2):
            clock.now = 1000.0 * cycle
            tracker.record_failure("s3")
            breaker = tracker.breaker("s3")
            assert breaker.opens == cycle + 1
            assert breaker.last_transition == clock.now
            clock.now += 500.0
            tracker.record_success("s3")
            assert breaker.closes == cycle + 1
            assert breaker.last_transition == clock.now
        snap = tracker.snapshot()["s3"]
        assert snap["opens"] == 2 and snap["closes"] == 2
        assert snap["last_transition"] == 1500.0

    def test_success_while_closed_is_not_a_transition(self):
        clock = FakeClock()
        tracker = HealthTracker(clock, failure_threshold=3)
        tracker.record_failure("s1")      # below the threshold
        tracker.record_success("s1")
        breaker = tracker.breaker("s1")
        assert breaker.opens == 0 and breaker.closes == 0
        assert breaker.last_transition is None

    def test_transition_gauges_are_mirrored(self):
        metrics = MetricsRegistry()
        clock = FakeClock()
        tracker = HealthTracker(clock, failure_threshold=1,
                                metrics=metrics)
        clock.now = 7.0
        tracker.record_failure("s1")
        assert metrics.gauge(
            "health.breaker_opens[server=s1]").value == 1.0
        assert metrics.gauge(
            "health.breaker_last_transition_ms[server=s1]").value == 7.0
        clock.now = 9.0
        tracker.record_success("s1")
        assert metrics.gauge(
            "health.breaker_closes[server=s1]").value == 1.0
        assert metrics.gauge(
            "health.breaker_last_transition_ms[server=s1]").value == 9.0
        assert metrics.counter("health.breaker_closes").value == 1

    def test_scrape_tracks_every_transition(self):
        """Gauges are written only when what they show changes, and a
        /metrics scrape still shows every breaker exactly as it is —
        from first contact through open, half-open and close."""
        metrics = MetricsRegistry()
        clock = FakeClock()
        tracker = HealthTracker(clock, failure_threshold=2, cooldown=100.0,
                                metrics=metrics)

        def scraped():
            return {(name, labels["server"]): value
                    for name, labels, value
                    in parse_exposition(render_registry(metrics))
                    if name.startswith("repro_health_breaker_")
                    and "server" in labels}

        maxima = {}

        def expected():
            # What writing every gauge on every call (the old
            # behaviour) would show, running maxima included.
            shown = {}
            state = {CLOSED: 0.0, HALF_OPEN: 0.5, OPEN: 1.0}
            for server, snap in tracker.snapshot().items():
                values = {"state": state[snap["state"]],
                          "opens": float(snap["opens"]),
                          "closes": float(snap["closes"])}
                if snap["last_transition"] is not None:
                    values["last_transition_ms"] = snap["last_transition"]
                for field, value in values.items():
                    name = f"repro_health_breaker_{field}"
                    shown[(name, server)] = value
                    top = max(maxima.get((name, server), value), value)
                    maxima[(name, server)] = top
                    shown[(f"{name}_max", server)] = top
            return shown

        steps = [
            lambda: tracker.allow("s1"),            # first contact
            lambda: tracker.record_success("s1"),
            lambda: tracker.allow("s2"),
            lambda: tracker.record_failure("s1"),   # below threshold
            lambda: tracker.record_failure("s1"),   # opens
            lambda: tracker.allow("s1"),            # refused, still open
            lambda: setattr(clock, "now", 150.0),
            lambda: tracker.allow("s1"),            # half-open probe
            lambda: tracker.allow("s1"),            # probe in flight
            lambda: tracker.record_failure("s1"),   # re-opens
            lambda: setattr(clock, "now", 300.0),
            lambda: tracker.allow("s1"),            # half-open again
            lambda: tracker.record_success("s1"),   # closes
            lambda: tracker.allow("s1"),
            lambda: tracker.record_success("s2"),
        ]
        for step in steps:
            step()
            assert scraped() == expected()
        assert scraped()[("repro_health_breaker_opens", "s1")] == 2.0
        assert scraped()[("repro_health_breaker_closes", "s1")] == 1.0

    def test_steady_traffic_writes_no_gauges(self):
        metrics = MetricsRegistry()
        tracker = HealthTracker(FakeClock(), metrics=metrics)
        tracker.allow("s1")
        writes = []
        gauge = metrics.gauge
        metrics.gauge = lambda name: writes.append(name) or gauge(name)
        for _ in range(5):
            assert tracker.allow("s1")
            tracker.record_success("s1")
        assert writes == []
        tracker.record_failure("s1")      # still closed, shows the same
        assert writes == []


def five_rep_bed(call_timeout=400.0, cooldown=10**9):
    """A 5-rep majority suite with a breaker-aware client."""
    servers = [f"s{i}" for i in range(1, 6)]
    bed = Testbed(servers=servers, seed=13, call_timeout=call_timeout)
    health = HealthTracker(clock=lambda: bed.sim.now, cooldown=cooldown,
                           metrics=bed.metrics)
    bed.clients["client"].endpoint.health = health
    config = make_configuration(
        "hdb", [(server, 1) for server in servers], 3, 3,
        latency_hints={server: 10.0 * i
                       for i, server in enumerate(servers, start=1)})
    suite = bed.install(config, b"v1", retry_backoff=25.0)
    return bed, suite, health


def force_open(health, *servers):
    for server in servers:
        for _ in range(health.failure_threshold):
            health.record_failure(server)
        assert health.state(server) == OPEN


class TestHealthAwareQuorum:
    def test_operations_succeed_around_open_breakers(self):
        """Two breakers open, three healthy reps hold r = w = 3: reads
        and writes keep working and never touch the vetoed servers."""
        bed, suite, health = five_rep_bed()
        force_open(health, "s4", "s5")
        write = bed.run(suite.write(b"degraded"))
        assert set(write.quorum) == {"rep-s1", "rep-s2", "rep-s3"}
        read = bed.run(suite.read())
        assert read.data == b"degraded"
        assert set(read.quorum) == {"rep-s1", "rep-s2", "rep-s3"}

    def test_unattainable_quorum_fails_faster_than_a_timeout(self):
        """Three breakers open leave 2 < 3 attainable votes: the read
        must raise the typed error without paying an RPC timeout."""
        bed, suite, health = five_rep_bed(call_timeout=400.0)
        force_open(health, "s3", "s4", "s5")
        sent_before = bed.network.messages_sent
        started = bed.sim.now
        with pytest.raises(QuorumUnattainableError) as info:
            bed.run(suite.read())
        elapsed = bed.sim.now - started
        # Faster than ONE full RPC timeout, despite the suite's own
        # retry ladder running in between.
        assert elapsed < 400.0
        # No inquiry was ever put on the wire.
        assert bed.network.messages_sent == sent_before
        assert info.value.needed == 3
        assert info.value.attainable == 2
        assert bed.metrics.counter("suite.unattainable").value > 0

    def test_unattainable_is_retryable_and_subclasses_unavailable(self):
        assert issubclass(QuorumUnattainableError,
                          QuorumUnavailableError)

    def test_probe_after_cooldown_heals_the_cluster_view(self):
        """With a finite cooldown, the next operation probes the open
        breaker; the healthy server answers, the breaker closes, and
        the representative rejoins quorum assembly."""
        bed, suite, health = five_rep_bed(cooldown=50.0)
        force_open(health, "s1")
        bed.run(suite.read())                # quorum from s2..s5
        bed.settle(grace=100.0)              # past the cooldown
        read = bed.run(suite.read())         # probe goes to s1
        assert health.state("s1") == CLOSED
        assert read.data == b"v1"

    def test_writes_fail_fast_too(self):
        bed, suite, health = five_rep_bed()
        force_open(health, "s1", "s2", "s3")
        with pytest.raises(QuorumUnattainableError) as info:
            bed.run(suite.write(b"nope"))
        assert info.value.kind == "write"
