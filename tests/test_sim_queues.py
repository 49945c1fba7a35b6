"""Resources."""

import pytest

from repro.sim import Resource


class TestResource:
    def test_serializes_holders(self, sim):
        disk = Resource(sim, capacity=1)
        log = []

        def worker(tag, hold):
            yield disk.acquire()
            log.append((sim.now, tag, "got"))
            yield sim.timeout(hold)
            disk.release()

        sim.spawn(worker("a", 3.0))
        sim.spawn(worker("b", 1.0))
        sim.run()
        assert log == [(0.0, "a", "got"), (3.0, "b", "got")]

    def test_capacity_two(self, sim):
        pool = Resource(sim, capacity=2)
        log = []

        def worker(tag):
            yield pool.acquire()
            log.append((sim.now, tag))
            yield sim.timeout(2.0)
            pool.release()

        for tag in "abc":
            sim.spawn(worker(tag))
        sim.run()
        assert log == [(0.0, "a"), (0.0, "b"), (2.0, "c")]

    def test_release_idle_rejected(self, sim):
        disk = Resource(sim)
        with pytest.raises(RuntimeError):
            disk.release()

    def test_invalid_capacity(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_queue_length_reporting(self, sim):
        disk = Resource(sim)
        sim.run_until(disk.acquire())
        disk.acquire()
        disk.acquire()
        assert disk.in_use == 1
        assert disk.queue_length == 2

    def test_reset_clears_state(self, sim):
        disk = Resource(sim)
        sim.run_until(disk.acquire())
        waiter = disk.acquire()
        disk.reset()
        assert disk.in_use == 0
        assert waiter.failed
