"""A full disk fails the operation that meets it, and nothing more.

``os.pwrite`` is patched to fail with ``ENOSPC`` from its ``k``-th call
on, for every ``k`` an intend or a resolve reaches.  The operation
raises :class:`StorageError` (or, when only the root's shadow copy is
refused, stands on its primary), every page it took is free again, the
page stores in memory equal their files page for page, and a retry
once there is room succeeds.  Through RPC, the call gets a failure
reply, not a timeout, and the file's lock is free for the next writer.
"""

import errno
import os

import pytest

from repro.errors import StorageError
from repro.live.server import FilePageStore, make_stable_store
from repro.storage import FileSystem, Put, drive
from repro.testbed import ServerNode, Testbed
from tests.helpers import assert_pages_balanced

NUM_PAGES, PAGE_SIZE = 64, 256
OLD, NEW = b"old" * 100, b"new" * 100
PWRITE = os.pwrite


class DiskFills:
    """``os.pwrite`` that fails with ENOSPC from its ``k``-th call on."""

    def __init__(self, k=None):
        self.k, self.calls = k, 0

    def __call__(self, descriptor, data, offset):
        self.calls += 1
        if self.k is not None and self.calls >= self.k:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return PWRITE(descriptor, data, offset)


def stores_of(stable):
    return [careful.pages for careful in (stable.primary, stable.shadow)]


def files_read_back(directory):
    """Each page store's pages as a fresh open of its file loads them."""
    pages = []
    for copy in ("primary", "shadow"):
        store = FilePageStore(os.path.join(directory, f"{copy}.pages"),
                              NUM_PAGES, PAGE_SIZE)
        pages.append(list(store._pages))
        store.close()
    return pages


def state(fs):
    return ({name: (*fs.read_file_sync(name), fs.stat(name).properties)
             for name in fs.list_files()},
            {txn: [(row.name, row.version) for row in rows]
             for txn, rows in fs.intentions().items()})


class TestFileSystemOnAFullDisk:
    def build(self, directory, op):
        stable, _fresh = make_stable_store(directory, NUM_PAGES, PAGE_SIZE)
        fs = FileSystem(stable)
        fs.format()
        fs.write_file_sync("f", OLD, 1, create=True,
                           properties={"stamp": 1})
        if op == "resolve":
            drive(fs.intend("t", [Put("f", NEW, None)]))
        return fs

    @staticmethod
    def operation(fs, op):
        if op == "intend":
            return fs.intend("t", [Put("f", NEW, None)])
        return fs.resolve("t", True, 2)

    @pytest.mark.parametrize("op", ["intend", "resolve"])
    def test_fails_frees_and_matches_the_file_at_every_write(
            self, op, tmp_path, monkeypatch):
        fs = self.build(str(tmp_path / "count"), op)
        counting = DiskFills()
        monkeypatch.setattr(os, "pwrite", counting)
        drive(self.operation(fs, op))
        monkeypatch.setattr(os, "pwrite", PWRITE)
        after = state(fs)
        total = counting.calls
        assert total >= 4
        for k in range(1, total + 1):
            directory = str(tmp_path / f"k{k}")
            fs = self.build(directory, op)
            before = state(fs)
            monkeypatch.setattr(os, "pwrite", DiskFills(k))
            try:
                drive(self.operation(fs, op))
            except StorageError as exc:
                assert "No space left" in str(exc)
                failed = True
            else:
                failed = False
            monkeypatch.setattr(os, "pwrite", PWRITE)
            # Only the root's shadow copy, the last write, can be refused
            # with the flip standing on the primary.
            assert failed == (k < total)
            assert fs.shadow_root_failures == (0 if failed else 1)
            assert state(fs) == (before if failed else after)
            assert_pages_balanced(fs)
            memory = [list(store._pages) for store in stores_of(fs.store)]
            assert files_read_back(directory) == memory
            if failed:
                drive(self.operation(fs, op))       # room again: retry
                assert state(fs) == after
                assert_pages_balanced(fs)
            for store in stores_of(fs.store):
                store.close()
            stable, fresh = make_stable_store(directory, NUM_PAGES,
                                              PAGE_SIZE)
            assert not fresh
            recovered = FileSystem(stable)
            recovered.mount()
            assert state(recovered) == after
            assert_pages_balanced(recovered)
            for store in stores_of(stable):
                store.close()


class TestTheCallIsAnswered:
    def bed(self, directory):
        bed = Testbed(servers=[], seed=3, idle_abort_after=None)
        stable, _fresh = make_stable_store(directory, NUM_PAGES, PAGE_SIZE)
        bed.servers["s1"] = ServerNode.build(
            bed.sim, bed.network.add_host("s1"), num_pages=NUM_PAGES,
            page_size=PAGE_SIZE, stable=stable, collector=bed.collector,
            metrics=bed.metrics)
        manager = bed.clients["client"].manager

        def install():
            txn = manager.begin()
            yield txn.call("s1", "txn.stage_write", name="f", data=OLD,
                           version=1, create=True)
            yield from txn.commit()

        bed.run(install())
        return bed, manager

    @staticmethod
    def server_fs(bed):
        return bed.servers["s1"].server.fs

    def timed(self, bed, call):
        """``call``'s outcome and how long it took to arrive."""
        def flow():
            started = bed.sim.now
            try:
                result = yield call()
            except StorageError as exc:
                result = exc
            return result, bed.sim.now - started
        return bed.run(flow())

    def test_a_stage_that_fills_the_disk_is_refused(self, tmp_path,
                                                    monkeypatch):
        for k in (1, 2, 3, 4, 5):
            bed, manager = self.bed(str(tmp_path / f"stage{k}"))
            txn = manager.begin()
            monkeypatch.setattr(os, "pwrite", DiskFills(k))
            result, took = self.timed(bed, lambda: txn.call(
                "s1", "txn.stage_write", name="f", data=NEW, prepare=True))
            monkeypatch.setattr(os, "pwrite", PWRITE)
            assert isinstance(result, StorageError), result
            assert took < bed.call_timeout
            assert_pages_balanced(self.server_fs(bed))
            bed.run(txn.abort())
            # The next writer finds the lock free and the disk writable.
            txn = manager.begin()

            def write():
                yield txn.call("s1", "txn.stage_write", name="f", data=NEW,
                               version=2)
                yield from txn.commit()

            bed.run(write())
            assert self.server_fs(bed).read_file_sync("f") == (NEW, 2)
            assert_pages_balanced(self.server_fs(bed))

    def test_a_commit_that_fills_the_disk_is_refused_then_retried(
            self, tmp_path, monkeypatch):
        for k in (1, 2, 3):
            bed, manager = self.bed(str(tmp_path / f"commit{k}"))
            txn = manager.begin()
            vote, _took = self.timed(bed, lambda: txn.call(
                "s1", "txn.stage_write", name="f", data=NEW, prepare=True))
            assert vote == {"version": 1, "stamp": 0}
            endpoint = bed.clients["client"].endpoint

            def commit():
                return endpoint.call("s1", "txn.commit",
                                     txn=str(txn.txn_id), version=2)

            monkeypatch.setattr(os, "pwrite", DiskFills(k))
            result, took = self.timed(bed, commit)
            monkeypatch.setattr(os, "pwrite", PWRITE)
            assert isinstance(result, StorageError), result
            assert took < bed.call_timeout
            fs = self.server_fs(bed)
            assert fs.read_file_sync("f") == (OLD, 1) and fs.intentions()
            assert_pages_balanced(fs)
            result, _took = self.timed(bed, commit)
            assert not isinstance(result, StorageError)
            assert fs.read_file_sync("f") == (NEW, 2)
            assert not fs.intentions()
            assert_pages_balanced(fs)
