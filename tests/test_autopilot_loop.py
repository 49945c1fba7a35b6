"""The autopilot's background loop (``WeightAutopilot.start``/``stop``)
reassigning votes while a client keeps reading and writing."""

from repro.autonomy import AutopilotPolicy, WeightAutopilot
from repro.core import make_configuration
from repro.testbed import Testbed

SERVERS = ["s1", "s2", "s3", "s4", "s5"]


def test_background_reassignment_under_foreground_traffic():
    bed = Testbed(SERVERS, seed=4, obs=True, breakers=True)
    config = make_configuration(
        "db", [(server, 1) for server in SERVERS], 3, 3,
        latency_hints={server: float(index + 1)
                       for index, server in enumerate(SERVERS)})
    # Two handles on one client: the autopilot steers one, the
    # application uses the other and learns of each reassignment only
    # from the representatives' configuration stamps.
    steered = bed.install(config, b"v0")
    foreground = bed.suite(config)
    autopilot = WeightAutopilot(steered,
                                policy=AutopilotPolicy(interval_ms=200.0))
    steps = []
    observe = autopilot.observe

    def counted_observe():
        steps.append(bed.sim.now)
        return observe()

    autopilot.observe = counted_observe
    bed.crash("s4")
    autopilot.start()

    def application():
        # Write-then-read pairs until three pairs after the first
        # adoption.  The demotion waits for s4's breaker (≈ 3.4 s of
        # inquiry timeouts), not for the traffic: the budget has room
        # for pairs that take one round less.
        history, after = [], 0
        for n in range(120):
            data = f"v{n + 1}".encode()
            written = yield from foreground.write(data)
            read = yield from foreground.read()
            history.append((data, written, read))
            after += foreground.config.config_version > 1
            if after == 3:
                break
            yield bed.sim.timeout(50.0)
        return history

    history = bed.run(application())
    autopilot.stop()
    stopped_at, taken = bed.sim.now, len(steps)
    bed.settle(5_000.0)

    applied = [record for record in autopilot.records if record.applied]
    assert applied and applied[0].kind == "demote"
    assert applied[0].server == "s4"
    # The application adopted the new configuration through its attempt
    # loop instead of failing, and every read saw the latest write.
    assert foreground.config.config_version == \
        steered.config.config_version >= 2
    assert sum(read.config_refreshes + written.config_refreshes
               for _data, written, read in history) >= 1
    for data, written, read in history:
        assert (read.data, read.version) == (data, written.version)
    # Nothing runs after stop().
    assert len(steps) == taken and max(steps) <= stopped_at
    assert autopilot._process is None
