"""Lock manager: compatibility, queueing, upgrades, deadlock, timeouts."""

import pytest

from repro.errors import DeadlockError, LockTimeoutError, TransactionAborted
from repro.txn import EXCLUSIVE, SHARED, LockManager, TransactionId, compatible


def tid(n: int) -> TransactionId:
    return TransactionId(site="t", sequence=n)


@pytest.fixture
def locks(sim):
    return LockManager(sim, name="test")


class TestCompatibility:
    def test_shared_shared(self):
        assert compatible(SHARED, SHARED)

    def test_shared_exclusive(self):
        assert not compatible(SHARED, EXCLUSIVE)
        assert not compatible(EXCLUSIVE, SHARED)
        assert not compatible(EXCLUSIVE, EXCLUSIVE)


class TestGranting:
    def test_immediate_grant_on_free_resource(self, sim, locks):
        event = locks.acquire(tid(1), "r", SHARED)
        assert event.triggered
        assert locks.holds(tid(1), "r", SHARED)

    def test_shared_coexists(self, sim, locks):
        assert locks.acquire(tid(1), "r", SHARED).triggered
        assert locks.acquire(tid(2), "r", SHARED).triggered

    def test_exclusive_blocks_second(self, sim, locks):
        assert locks.acquire(tid(1), "r", EXCLUSIVE).triggered
        assert locks.acquire(tid(2), "r", EXCLUSIVE).pending

    def test_exclusive_blocks_shared(self, sim, locks):
        locks.acquire(tid(1), "r", EXCLUSIVE)
        assert locks.acquire(tid(2), "r", SHARED).pending

    def test_reacquire_same_mode_immediate(self, sim, locks):
        locks.acquire(tid(1), "r", SHARED)
        assert locks.acquire(tid(1), "r", SHARED).triggered

    def test_exclusive_covers_shared(self, sim, locks):
        locks.acquire(tid(1), "r", EXCLUSIVE)
        assert locks.acquire(tid(1), "r", SHARED).triggered
        assert locks.holds(tid(1), "r", SHARED)

    def test_unknown_mode_rejected(self, sim, locks):
        with pytest.raises(ValueError):
            locks.acquire(tid(1), "r", "Z")

    def test_different_resources_independent(self, sim, locks):
        assert locks.acquire(tid(1), "a", EXCLUSIVE).triggered
        assert locks.acquire(tid(2), "b", EXCLUSIVE).triggered


class TestReleaseAndQueue:
    def test_release_wakes_waiter(self, sim, locks):
        locks.acquire(tid(1), "r", EXCLUSIVE)
        waiter = locks.acquire(tid(2), "r", EXCLUSIVE)
        locks.release_all(tid(1))
        sim.run()
        assert waiter.triggered
        assert locks.holds(tid(2), "r", EXCLUSIVE)

    def test_fifo_order_among_exclusives(self, sim, locks):
        locks.acquire(tid(1), "r", EXCLUSIVE)
        second = locks.acquire(tid(2), "r", EXCLUSIVE)
        third = locks.acquire(tid(3), "r", EXCLUSIVE)
        locks.release_all(tid(1))
        assert second.triggered and third.pending
        locks.release_all(tid(2))
        assert third.triggered

    def test_shared_batch_granted_together(self, sim, locks):
        locks.acquire(tid(1), "r", EXCLUSIVE)
        readers = [locks.acquire(tid(n), "r", SHARED) for n in (2, 3, 4)]
        locks.release_all(tid(1))
        assert all(event.triggered for event in readers)

    def test_fresh_shared_does_not_overtake_queued_exclusive(self, sim,
                                                             locks):
        locks.acquire(tid(1), "r", SHARED)
        writer = locks.acquire(tid(2), "r", EXCLUSIVE)
        late_reader = locks.acquire(tid(3), "r", SHARED)
        assert writer.pending and late_reader.pending
        locks.release_all(tid(1))
        assert writer.triggered
        assert late_reader.pending
        locks.release_all(tid(2))
        assert late_reader.triggered

    def test_release_all_multiple_resources(self, sim, locks):
        for resource in ("a", "b", "c"):
            locks.acquire(tid(1), resource, EXCLUSIVE)
        locks.release_all(tid(1))
        for resource in ("a", "b", "c"):
            assert locks.acquire(tid(2), resource, EXCLUSIVE).triggered

    def test_release_of_queued_request_removes_it(self, sim, locks):
        locks.acquire(tid(1), "r", EXCLUSIVE)
        locks.acquire(tid(2), "r", EXCLUSIVE)
        locks.release_all(tid(2))  # give up while queued
        third = locks.acquire(tid(3), "r", EXCLUSIVE)
        locks.release_all(tid(1))
        assert third.triggered


    def test_release_fails_own_queued_request_at_once(self, sim):
        locks = LockManager(sim, name="test", default_timeout=5_000.0)
        locks.acquire(tid(1), "r", EXCLUSIVE)
        parked = locks.acquire(tid(2), "r", SHARED)
        assert parked.pending
        locks.release_all(tid(2))  # its transaction finished elsewhere
        assert parked.failed
        assert isinstance(parked.value, TransactionAborted)
        sim.run()  # the lock timer still fires: it must find nothing
        assert locks.lock_timeouts == 0
        assert locks.holds(tid(1), "r", EXCLUSIVE)


class TestUpgrades:
    def test_upgrade_sole_holder_immediate(self, sim, locks):
        locks.acquire(tid(1), "r", SHARED)
        assert locks.acquire(tid(1), "r", EXCLUSIVE).triggered
        assert locks.holds(tid(1), "r", EXCLUSIVE)

    def test_upgrade_waits_for_other_readers(self, sim, locks):
        locks.acquire(tid(1), "r", SHARED)
        locks.acquire(tid(2), "r", SHARED)
        upgrade = locks.acquire(tid(1), "r", EXCLUSIVE)
        assert upgrade.pending
        locks.release_all(tid(2))
        assert upgrade.triggered

    def test_upgrade_jumps_queue(self, sim, locks):
        locks.acquire(tid(1), "r", SHARED)
        locks.acquire(tid(2), "r", SHARED)
        fresh_writer = locks.acquire(tid(3), "r", EXCLUSIVE)
        upgrade = locks.acquire(tid(1), "r", EXCLUSIVE)
        locks.release_all(tid(2))
        assert upgrade.triggered
        assert fresh_writer.pending

    def test_simultaneous_upgrades_deadlock_detected(self, sim, locks):
        locks.acquire(tid(1), "r", SHARED)
        locks.acquire(tid(2), "r", SHARED)
        first = locks.acquire(tid(1), "r", EXCLUSIVE)
        second = locks.acquire(tid(2), "r", EXCLUSIVE)
        assert first.pending
        assert second.failed
        assert isinstance(second.value, DeadlockError)
        assert locks.deadlocks_detected == 1


class TestDeadlockDetection:
    def test_two_resource_cycle(self, sim, locks):
        locks.acquire(tid(1), "a", EXCLUSIVE)
        locks.acquire(tid(2), "b", EXCLUSIVE)
        locks.acquire(tid(1), "b", EXCLUSIVE)  # 1 waits for 2
        request = locks.acquire(tid(2), "a", EXCLUSIVE)  # closes cycle
        assert request.failed
        assert isinstance(request.value, DeadlockError)

    def test_three_party_cycle(self, sim, locks):
        locks.acquire(tid(1), "a", EXCLUSIVE)
        locks.acquire(tid(2), "b", EXCLUSIVE)
        locks.acquire(tid(3), "c", EXCLUSIVE)
        locks.acquire(tid(1), "b", EXCLUSIVE)
        locks.acquire(tid(2), "c", EXCLUSIVE)
        request = locks.acquire(tid(3), "a", EXCLUSIVE)
        assert request.failed

    def test_chain_without_cycle_waits(self, sim, locks):
        locks.acquire(tid(1), "a", EXCLUSIVE)
        locks.acquire(tid(2), "b", EXCLUSIVE)
        request_one = locks.acquire(tid(2), "a", EXCLUSIVE)
        request_two = locks.acquire(tid(3), "b", EXCLUSIVE)
        assert request_one.pending and request_two.pending

    def test_reader_cycle_through_writer(self, sim, locks):
        locks.acquire(tid(1), "a", SHARED)
        locks.acquire(tid(2), "b", EXCLUSIVE)
        locks.acquire(tid(2), "a", EXCLUSIVE)  # 2 waits for 1's S
        request = locks.acquire(tid(1), "b", SHARED)  # 1 waits for 2
        assert request.failed


class TestTimeouts:
    def test_timeout_fails_waiter(self, sim, locks):
        locks.acquire(tid(1), "r", EXCLUSIVE)
        waiter = locks.acquire(tid(2), "r", EXCLUSIVE, timeout=10.0)
        sim.run()
        assert waiter.failed
        assert isinstance(waiter.value, LockTimeoutError)
        assert locks.lock_timeouts == 1

    def test_grant_before_timeout_wins(self, sim, locks):
        locks.acquire(tid(1), "r", EXCLUSIVE)
        waiter = locks.acquire(tid(2), "r", EXCLUSIVE, timeout=10.0)
        sim.schedule(5.0, locks.release_all, tid(1))
        sim.run()
        assert waiter.triggered

    def test_default_timeout_applies(self, sim):
        locks = LockManager(sim, default_timeout=7.0)
        locks.acquire(tid(1), "r", EXCLUSIVE)
        waiter = locks.acquire(tid(2), "r", EXCLUSIVE)
        sim.run()
        assert waiter.failed
        assert sim.now == 7.0

    def test_timed_out_waiter_does_not_block_queue(self, sim, locks):
        locks.acquire(tid(1), "r", EXCLUSIVE)
        locks.acquire(tid(2), "r", EXCLUSIVE, timeout=5.0)
        third = locks.acquire(tid(3), "r", EXCLUSIVE, timeout=100.0)
        sim.run(until=6.0)
        locks.release_all(tid(1))
        assert third.triggered


class TestClear:
    def test_clear_drops_everything(self, sim, locks):
        locks.acquire(tid(1), "r", EXCLUSIVE)
        waiter = locks.acquire(tid(2), "r", EXCLUSIVE)
        locks.clear()
        assert waiter.failed
        assert not locks.holds(tid(1), "r")
        assert locks.acquire(tid(3), "r", EXCLUSIVE).triggered
