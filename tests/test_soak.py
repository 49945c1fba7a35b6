"""Soak test: everything at once, checked by the history checker.

Three clients, rolling server crashes, message loss *and* duplication,
background refresh on, for a few hundred operations — then the full
history must be strictly serializable, every replica must converge,
and the participants must hold no residual transaction state.
"""

import pytest

from tests.helpers import triple_config
from repro.chaos import ChaosPolicy
from repro.errors import ReproError
from repro.testbed import Testbed
from repro.verification import HistoryRecorder, check_history

CLIENTS = ["c0", "c1", "c2"]
OPS_PER_CLIENT = 35


def run_soak(seed=2026):
    bed = Testbed(servers=["s1", "s2", "s3"], clients=CLIENTS, seed=seed)
    bed.network.chaos = ChaosPolicy(streams=bed.streams,
                                    drop_probability=0.02,
                                    duplicate_probability=0.05)
    config = triple_config()
    history = []
    recorders = {}
    for name in CLIENTS:
        if not recorders:
            suite = bed.install(config, b"genesis", client=name)
        else:
            suite = bed.suite(config, client=name)
        suite.max_attempts = 8
        suite.retry_backoff = 150.0
        suite.inquiry_timeout = 400.0
        suite.data_timeout = 800.0
        recorders[name] = HistoryRecorder(suite, history)

    blocked = 0

    def client_loop(name, recorder):
        nonlocal blocked
        rng = bed.streams.stream(f"soak:{name}")
        for i in range(OPS_PER_CLIENT):
            try:
                if rng.random() < 0.6:
                    yield from recorder.read()
                else:
                    yield from recorder.write(
                        f"{name}/{i}".encode())
            except ReproError:
                blocked += 1
            yield bed.sim.timeout(rng.uniform(5.0, 80.0))

    def chaos():
        rng = bed.streams.stream("soak:chaos")
        for round_number in range(8):
            victim = f"s{rng.randint(1, 3)}"
            bed.crash(victim)
            yield bed.sim.timeout(rng.uniform(100.0, 400.0))
            bed.restart(victim)
            yield bed.sim.timeout(rng.uniform(100.0, 500.0))

    processes = [bed.sim.spawn(client_loop(name, recorder),
                               name=f"soak-{name}")
                 for name, recorder in recorders.items()]
    chaos_process = bed.sim.spawn(chaos(), name="soak-chaos")
    bed.sim.run_until(bed.sim.all_of(processes))
    bed.sim.run_until(chaos_process)
    bed.settle(120_000.0)
    return bed, history, blocked


class TestSoak:
    def test_everything_at_once(self):
        bed, history, blocked = run_soak()
        completed = sum(op.ok for op in history)
        assert completed >= 60, \
            f"only {completed} ops completed ({blocked} blocked)"

        # 1. The complete multi-client history is strictly serializable.
        violations = check_history(history,
                                   initial_tag="genesis").violations
        assert violations == [], [str(v) for v in violations]

        # 2. All replicas converged to the newest committed version.
        versions = {node.server.fs.stat("suite:db").version
                    for node in bed.servers.values()}
        max_written = max((op.version for op in history if op.ok),
                          default=1)
        assert versions == {max_written}

        # 3. No residual transaction state anywhere.
        for node in bed.servers.values():
            assert node.participant.in_doubt() == []
            assert len(node.participant._active) == 0
            assert not node.participant.locks.holders_of("suite:db")
