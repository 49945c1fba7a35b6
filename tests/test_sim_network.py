"""Network behaviour: latency, bandwidth, crashes, and the chaos policy's
loss and partitions on top."""

import pytest

from tests.helpers import sized_message
from repro.chaos import ChaosPolicy
from repro.rpc.codec import encode_binary_body
from repro.rpc.messages import Reply
from repro.sim import Constant, Network, RandomStreams, Simulator
from repro.sim.network import estimate_size
from repro.testbed import Testbed


def note(value):
    """A real message carrying ``value``: what a host puts on the wire."""
    return Reply.success(0, value)


def arrivals(host):
    """The value of every message delivered to ``host``, with its
    arrival time."""
    received = []
    host.dispatch = lambda message: received.append((host.sim.now,
                                                     message.value))
    return received


class TestDelivery:
    def test_default_latency_applies(self, sim, network):
        a = network.add_host("a")
        b = network.add_host("b")
        received = arrivals(b)
        a.send("b", note("hello"))
        sim.run()
        assert received == [(1.0, "hello")]

    def test_per_link_latency_override(self, sim, network):
        a = network.add_host("a")
        b = network.add_host("b")
        network.set_latency("a", "b", 7.5)
        received = arrivals(b)
        a.send("b", note("hi"))
        sim.run()
        assert received[0][0] == 7.5

    def test_loopback_is_free_by_default(self, sim, network):
        a = network.add_host("a")
        received = arrivals(a)
        a.send("a", note("self"))
        sim.run()
        assert received[0][0] == 0.0

    def test_unknown_destination_rejected(self, sim, network):
        a = network.add_host("a")
        with pytest.raises(KeyError):
            a.send("ghost", note("boo"))

    def test_duplicate_host_rejected(self, network):
        network.add_host("a")
        with pytest.raises(ValueError):
            network.add_host("a")

    def test_message_counters(self, sim, network):
        a = network.add_host("a")
        network.add_host("b")
        a.send("b", note(1))
        sim.run()
        assert network.messages_sent == 1
        assert network.messages_delivered == 1
        assert network.messages_dropped == 0


class TestBandwidth:
    def test_byte_time_scales_with_payload(self, sim, network):
        a = network.add_host("a")
        b = network.add_host("b")
        network.set_byte_time("a", "b", 0.01)
        received = arrivals(b)
        a.send("b", sized_message(1000))
        sim.run()
        ((time, _),) = received
        assert time == pytest.approx(1.0 + 10.0)

    def test_small_message_nearly_free(self, sim, network):
        a = network.add_host("a")
        b = network.add_host("b")
        network.set_byte_time("a", "b", 0.01)
        received = arrivals(b)
        a.send("b", note(None))
        sim.run()
        ((time, _),) = received
        assert time < 1.2

    def test_byte_time_charges_exactly_the_wire_body(self, sim, network):
        a = network.add_host("a")
        b = network.add_host("b")
        network.set_byte_time("a", "b", 0.25)
        received = arrivals(b)
        message = Reply.success(3, {"version": 7, "data": b"z" * 300})
        a.send("b", message)
        sim.run()
        ((time, _),) = received
        assert time == 1.0 + 0.25 * len(encode_binary_body(message))

    def test_estimate_size_bytes(self):
        assert estimate_size(b"x" * 100) == 100

    def test_estimate_size_nested(self):
        size = estimate_size({"data": b"y" * 50, "version": 3})
        assert 50 < size < 100

    def test_estimate_size_handles_objects(self):
        class Thing:
            def __init__(self):
                self.blob = b"z" * 30

        assert estimate_size(Thing()) >= 30


class TestLoss:
    """Message loss comes from the attached chaos policy, the sim
    network's one fault injector."""

    def test_lossy_link_drops_messages(self):
        sim = Simulator()
        network = Network(sim, RandomStreams(1), default_latency=1.0)
        network.chaos = ChaosPolicy(seed=1, drop_probability=0.5)
        a = network.add_host("a")
        network.add_host("b")
        for _ in range(200):
            a.send("b", note("m"))
        sim.run()
        assert 40 < network.messages_dropped < 160

    def test_invalid_loss_probability(self):
        with pytest.raises(ValueError):
            ChaosPolicy(drop_probability=1.0)


class TestCrash:
    def test_messages_to_down_host_dropped(self, sim, network):
        a = network.add_host("a")
        b = network.add_host("b")
        b.crash()
        a.send("b", note("lost"))
        sim.run()
        assert network.messages_dropped == 1

    def test_crash_mid_flight_drops(self, sim, network):
        a = network.add_host("a")
        b = network.add_host("b")
        a.send("b", note("in-flight"))
        b.crash()  # before the 1.0 delivery time
        sim.run()
        assert network.messages_dropped == 1

    def test_restart_receives_again(self, sim, network):
        a = network.add_host("a")
        b = network.add_host("b")
        b.crash()
        b.restart()
        received = arrivals(b)
        a.send("b", note("back"))
        sim.run()
        assert received == [(1.0, "back")]

    def test_crash_listeners_fire_once(self, sim, network):
        a = network.add_host("a")
        crashes, restarts = [], []
        a.on_crash(lambda: crashes.append(sim.now))
        a.on_restart(lambda: restarts.append(sim.now))
        a.crash()
        a.crash()  # idempotent
        a.restart()
        a.restart()
        assert crashes == [0.0]
        assert restarts == [0.0]

    def test_down_host_cannot_send(self, sim, network):
        a = network.add_host("a")
        b = network.add_host("b")
        a.crash()
        a.send("b", note("nope"))
        sim.run()
        assert network.messages_dropped == 1


class TestPartition:
    """Partitions are the attached chaos policy's, not the network's."""

    def make(self, sim, network):
        network.chaos = ChaosPolicy()
        return [network.add_host(name) for name in ("a", "b", "c")]

    def test_partition_blocks_cross_group(self, sim, network):
        a, b, c = self.make(sim, network)
        network.chaos.partition([["a", "b"], ["c"]])
        received = {host.name: arrivals(host) for host in (a, b, c)}
        a.send("b", note("same group"))
        a.send("c", note("cut"))
        c.send("b", note("cut"))
        sim.run()
        assert received == {"a": [], "b": [(1.0, "same group")], "c": []}
        assert network.messages_dropped == 2

    def test_partition_drops_messages(self, sim, network):
        a, b, c = self.make(sim, network)
        network.chaos.partition([["a"], ["b", "c"]])
        a.send("b", note("blocked"))
        sim.run()
        assert network.messages_dropped == 1

    def test_heal_restores(self, sim, network):
        a, b, c = self.make(sim, network)
        network.chaos.partition([["a"], ["b", "c"]])
        network.chaos.heal()
        received = arrivals(b)
        a.send("b", note("healed"))
        sim.run()
        assert received == [(1.0, "healed")]

    def test_unknown_host_in_partition_rejected(self):
        bed = Testbed(servers=["a", "b", "c"], clients=())
        with pytest.raises(KeyError):
            bed.partition([["a", "ghost"]])
        assert bed.network.chaos is None
