"""The shared broadcast medium (the paper's experimental Ethernet)."""

import pytest

from tests.helpers import sized_message, triple_config
from repro.sim import Network, RandomStreams, SharedMedium, Simulator
from repro.testbed import Testbed


def receive_times(sim, host):
    """The arrival time of every message delivered to ``host``."""
    times = []
    host.dispatch = lambda message: times.append(sim.now)
    return times


class TestSharedMedium:
    def test_transfers_serialize(self):
        sim = Simulator()
        network = Network(sim, RandomStreams(0), default_latency=1.0)
        network.medium = SharedMedium(sim, byte_time=0.01)
        a = network.add_host("a")
        b = network.add_host("b")
        times = receive_times(sim, b)
        # Two 1000-byte frames sent at once: the second must wait for
        # the first to clear the wire (10ms each).
        a.send("b", sized_message(1000))
        a.send("b", sized_message(1000))
        sim.run()
        assert times == [pytest.approx(10.0 + 1.0), pytest.approx(20.0 + 1.0)]

    def test_cross_pair_contention(self):
        """Transfers between *different* host pairs share the wire."""
        sim = Simulator()
        network = Network(sim, RandomStreams(0), default_latency=0.0)
        network.medium = SharedMedium(sim, byte_time=0.01)
        hosts = [network.add_host(name) for name in "abcd"]
        times_b = receive_times(sim, hosts[1])
        times_d = receive_times(sim, hosts[3])
        hosts[0].send("b", sized_message(1000))
        hosts[2].send("d", sized_message(1000))
        sim.run()
        deliveries = sorted(times_b + times_d)
        assert deliveries == [pytest.approx(10.0), pytest.approx(20.0)]

    def test_loopback_bypasses_medium(self):
        sim = Simulator()
        network = Network(sim, RandomStreams(0), default_latency=0.0)
        network.medium = SharedMedium(sim, byte_time=1.0)
        a = network.add_host("a")
        times = receive_times(sim, a)
        a.send("a", sized_message(500))
        sim.run()
        assert times == [0.0]
        assert network.medium.transmissions == 0

    def test_utilization_accounting(self):
        sim = Simulator()
        network = Network(sim, RandomStreams(0), default_latency=0.0)
        medium = SharedMedium(sim, byte_time=0.5)
        network.medium = medium
        a = network.add_host("a")
        network.add_host("b")
        a.send("b", sized_message(40))  # 40 bytes → 20ms on the wire
        sim.run()
        assert medium.transmissions == 1
        assert medium.busy_time == pytest.approx(20.0)

    def test_byte_time_validated(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            SharedMedium(sim, byte_time=0.0)

    def test_suite_protocol_works_on_shared_medium(self):
        """The whole stack still behaves correctly when every message
        contends for one wire — just slower."""
        bed = Testbed(servers=["s1", "s2", "s3"], seed=81)
        bed.network.medium = SharedMedium(bed.sim, byte_time=0.001)
        suite = bed.install(triple_config(), b"x" * 4000)
        result = bed.run(suite.write(b"y" * 4000))
        assert result.version == 2
        read = bed.run(suite.read())
        assert read.data == b"y" * 4000
        assert bed.network.medium.transmissions > 10
