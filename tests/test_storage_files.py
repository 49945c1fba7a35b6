"""Shadow-paging file system: operations and crash atomicity."""

import collections
import dataclasses
import json
import random
import sys
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FileExistsError_, NoSuchFileError, StorageError
from repro.storage import (ROOT_PAGE, FileStat, FileSystem, IntentionRow,
                           Put, StableStore, drive)
from repro.storage.files import MAX_BUCKETS, ROOT_FORMAT, _Bucket
from tests.helpers import assert_pages_balanced, reference_bucket_encoding


def fresh_fs(num_pages=256, page_size=512):
    fs = FileSystem(StableStore.create(num_pages, page_size))
    fs.format()
    return fs


def remount(store):
    fs = FileSystem(store)
    fs.mount()
    return fs


def snapshot(fs):
    """Every file's ``(data, version, properties)``, by name."""
    return {name: (*fs.read_file_sync(name), fs.stat(name).properties)
            for name in fs.list_files()}


def names_in_distinct_buckets(fs, count):
    """``count`` file names that hash to ``count`` different buckets."""
    names, seen = [], set()
    for index in range(10_000):
        name = f"file-{index}"
        bucket = fs._bucket_of(name)
        if bucket not in seen:
            seen.add(bucket)
            names.append(name)
            if len(names) == count:
                return names
    raise AssertionError("not enough buckets")


class TestBasicOperations:
    def test_create_and_stat(self):
        fs = fresh_fs()
        fs.create_file_sync("a", {"kind": "demo"})
        stat = fs.stat("a")
        assert stat.version == 0
        assert stat.length == 0
        assert stat.properties == {"kind": "demo"}

    def test_write_read_round_trip(self):
        fs = fresh_fs()
        fs.write_file_sync("f", b"contents", version=5, create=True)
        assert fs.read_file_sync("f") == (b"contents", 5)

    def test_multi_page_file(self):
        fs = fresh_fs()
        data = bytes(range(256)) * 20  # spans several pages
        fs.write_file_sync("big", data, version=1, create=True)
        assert fs.read_file_sync("big") == (data, 1)

    def test_empty_file(self):
        fs = fresh_fs()
        fs.write_file_sync("empty", b"", version=1, create=True)
        assert fs.read_file_sync("empty") == (b"", 1)

    def test_overwrite_replaces(self):
        fs = fresh_fs()
        fs.write_file_sync("f", b"one", version=1, create=True)
        fs.write_file_sync("f", b"two", version=2)
        assert fs.read_file_sync("f") == (b"two", 2)

    def test_read_op_follows_the_chain_current_when_it_starts(self):
        fs = fresh_fs()
        fs.write_file_sync("f", b"one" * 400, version=1, create=True)
        read = fs.read_file("f")
        limited = fs.read_file_limited("f", 4096)
        # The old chain is released and reused before the reads run.
        fs.write_file_sync("f", b"two" * 400, version=2)
        fs.write_file_sync("g", b"xyz" * 400, version=1, create=True)
        assert drive(read) == (b"two" * 400, 2)
        assert drive(limited) == (b"two" * 400, 2)

    def test_write_missing_without_create_rejected(self):
        fs = fresh_fs()
        with pytest.raises(NoSuchFileError):
            fs.write_file("ghost", b"x", version=1)

    def test_create_duplicate_rejected(self):
        fs = fresh_fs()
        fs.create_file_sync("a")
        with pytest.raises(FileExistsError_):
            fs.create_file("a")

    def test_delete(self):
        fs = fresh_fs()
        fs.write_file_sync("f", b"x", version=1, create=True)
        free_before = fs.free_pages
        fs.delete_file_sync("f")
        assert not fs.exists("f")
        assert fs.free_pages > free_before
        with pytest.raises(NoSuchFileError):
            fs.read_file("f")

    def test_delete_missing_rejected(self):
        with pytest.raises(NoSuchFileError):
            fresh_fs().delete_file("nope")

    def test_list_files_sorted(self):
        fs = fresh_fs()
        for name in ("zeta", "alpha", "mid"):
            fs.create_file_sync(name)
        assert fs.list_files() == ["alpha", "mid", "zeta"]

    def test_properties_replaced_when_given(self):
        fs = fresh_fs()
        fs.write_file_sync("f", b"x", version=1, create=True,
                           properties={"a": 1})
        fs.write_file_sync("f", b"y", version=2)
        assert fs.stat("f").properties == {"a": 1}  # preserved
        fs.write_file_sync("f", b"z", version=3, properties={"b": 2})
        assert fs.stat("f").properties == {"b": 2}  # replaced

    def test_out_of_space(self):
        fs = fresh_fs(num_pages=8)
        with pytest.raises(StorageError, match="out of pages"):
            fs.write_file_sync("huge", b"x" * 10_000, version=1,
                               create=True)

    def test_unmounted_rejected(self):
        fs = FileSystem(StableStore.create(16))
        with pytest.raises(StorageError, match="not mounted"):
            fs.stat("a")


class TestPersistence:
    def test_remount_preserves_files(self):
        store = StableStore.create(128)
        fs = FileSystem(store)
        fs.format()
        fs.write_file_sync("keep", b"data" * 100, version=7, create=True,
                           properties={"p": True})
        fs2 = FileSystem(store)
        fs2.mount()
        assert fs2.read_file_sync("keep") == (b"data" * 100, 7)
        assert fs2.stat("keep").properties == {"p": True}

    def test_remount_reclaims_orphans(self):
        store = StableStore.create(128)
        fs = FileSystem(store)
        fs.format()
        fs.write_file_sync("f", b"x" * 500, version=1, create=True)
        baseline = FileSystem(store)
        baseline.mount()
        free_clean = baseline.free_pages

        # Tear a rewrite partway: orphan pages leak on disk...
        operation = fs.write_file("f", b"y" * 900, version=2)
        next(operation)
        next(operation)
        # ...but a remount sweeps them back.
        fs3 = FileSystem(store)
        fs3.mount()
        assert fs3.free_pages == free_clean
        assert fs3.read_file_sync("f") == (b"x" * 500, 1)


class TestCrashAtomicity:
    def build_with_file(self):
        store = StableStore.create(128)
        fs = FileSystem(store)
        fs.format()
        fs.write_file_sync("f", b"OLD" * 200, version=3, create=True)
        return store, fs

    def steps_of(self, fs, data=b"NEW" * 300):
        return fs.write_file("f", data, version=4)

    def count_steps(self):
        store, fs = self.build_with_file()
        return sum(1 for _ in self.steps_of(fs))

    def test_crash_at_every_step_is_atomic(self):
        """Kill the write after k page-steps for every k: the remounted
        file system must show either the old or the new state."""
        total_steps = self.count_steps()
        assert total_steps > 4
        outcomes = set()
        for kill_after in range(total_steps + 1):
            store, fs = self.build_with_file()
            operation = self.steps_of(fs)
            for _ in range(kill_after):
                next(operation)
            recovered = FileSystem(store)
            recovered.mount()
            data, version = recovered.read_file_sync("f")
            assert (data, version) in ((b"OLD" * 200, 3), (b"NEW" * 300, 4))
            assert_pages_balanced(recovered)
            outcomes.add(version)
        assert outcomes == {3, 4}  # both sides of the flip observed

    def test_crash_during_delete_is_atomic(self):
        """Kill the delete after k page-steps for every k.  (When the
        delete empties the file's bucket there is no new bucket chain,
        so the very first step is already the root flip.)"""
        store, fs = self.build_with_file()
        total_steps = sum(1 for _ in fs.delete_file("f"))
        outcomes = set()
        for kill_after in range(total_steps + 1):
            store, fs = self.build_with_file()
            operation = fs.delete_file("f")
            for _ in range(kill_after):
                next(operation)
            recovered = remount(store)
            if recovered.exists("f"):
                assert recovered.read_file_sync("f") == (b"OLD" * 200, 3)
                outcomes.add("old")
            else:
                assert recovered.list_files() == []
                outcomes.add("deleted")
            assert_pages_balanced(recovered)
        assert outcomes == {"old", "deleted"}

    def test_decay_after_crash_still_recovers(self):
        store, fs = self.build_with_file()
        operation = self.steps_of(fs)
        for _ in range(3):
            next(operation)
        store.primary.pages.decay(1)
        recovered = FileSystem(store)
        recovered.mount()
        data, version = recovered.read_file_sync("f")
        assert version in (3, 4)


class TestMultiFileUpdate:
    """``update()``: many files, one root flip."""

    @pytest.mark.parametrize("page_size", [128, 256, 512])
    def test_update_is_all_or_nothing_at_every_step(self, page_size):
        def build():
            store = StableStore.create(256, page_size)
            fs = FileSystem(store)
            fs.format()
            a, b, c = names_in_distinct_buckets(fs, 3)
            fs.write_file_sync(a, b"OLD-A" * 40, version=1, create=True,
                               properties={"stamp": 1})
            fs.write_file_sync(c, b"OLD-C" * 90, version=5, create=True)
            return store, fs, (a, b, c)

        def operation_on(fs, names):
            a, b, c = names
            return fs.update([Put(a, b"NEW-A" * 70, 2),
                              Put(b, b"NEW-B" * 10, 1, {"stamp": 9})],
                             deletes=[c])

        store, fs, names = build()
        a, b, c = names
        assert len({fs._bucket_of(name) for name in names}) >= 2
        old = snapshot(fs)
        new = {a: (b"NEW-A" * 70, 2, {"stamp": 1}),
               b: (b"NEW-B" * 10, 1, {"stamp": 9})}
        total_steps = sum(1 for _ in operation_on(fs, names))
        assert snapshot(fs) == new
        seen_old = seen_new = False
        for kill_after in range(total_steps + 1):
            store, fs, names = build()
            operation = operation_on(fs, names)
            for _ in range(kill_after):
                next(operation)
            recovered = remount(store)
            state = snapshot(recovered)
            assert state in (old, new), f"mixed state after {kill_after}"
            seen_old |= state == old
            seen_new |= state == new
            assert_pages_balanced(recovered)
        assert seen_old and seen_new

    def test_update_touches_only_its_buckets(self):
        fs = fresh_fs(num_pages=1024)
        names = names_in_distinct_buckets(fs, 40)
        for name in names:
            fs.write_file_sync(name, b"x" * 100, version=1, create=True)
        pages = fs.store.primary.pages
        before = pages.writes
        fs.write_file_sync(names[0], b"y" * 100, version=2)
        # Data page + the one touched bucket + the root: nothing else.
        assert pages.writes - before == 3

    def test_release_needs_no_page_reads(self):
        fs = fresh_fs()
        fs.write_file_sync("f", b"x" * 2_000, version=1, create=True)
        free_before = fs.free_pages
        reads = fs.store.primary.pages.reads
        fs.write_file_sync("f", b"y" * 2_000, version=2)
        fs.delete_file_sync("f")
        assert fs.store.primary.pages.reads == reads
        assert fs.free_pages > free_before

    def test_update_rejects_missing_delete_and_repeated_name(self):
        fs = fresh_fs()
        with pytest.raises(NoSuchFileError):
            fs.update(deletes=["ghost"])
        with pytest.raises(ValueError):
            fs.update([Put("a", b"1", 1), Put("a", b"2", 2)])

    def test_failed_update_reclaims_every_new_page(self):
        fs = fresh_fs(num_pages=16)
        free_before = fs.free_pages
        with pytest.raises(StorageError, match="out of pages"):
            drive(fs.update([Put("small", b"x" * 100, 1),
                             Put("huge", b"x" * 100_000, 1)]))
        assert fs.free_pages == free_before
        assert fs.list_files() == []


class TestIntentions:
    """``intend`` / ``resolve``: a transaction's shadow pages and the
    rows that record them in the files' own buckets."""

    TXN = "client#7"

    def build(self, page_size=512):
        store = StableStore.create(256, page_size)
        fs = FileSystem(store)
        fs.format()
        fs.write_file_sync("a", b"OLD-A" * 40, version=1, create=True,
                           properties={"stamp": 1})
        fs.write_file_sync("c", b"OLD-C" * 90, version=5, create=True)
        return store, fs

    def intend(self, fs):
        """A put over an existing file, a create and a delete."""
        return fs.intend(self.TXN,
                         [Put("a", b"NEW-A" * 70, 2),
                          Put("b", b"NEW-B" * 10, 1, {"stamp": 9})],
                         deletes=["c"])

    OLD = {"a": (b"OLD-A" * 40, 1, {"stamp": 1}),
           "c": (b"OLD-C" * 90, 5, {})}
    NEW = {"a": (b"NEW-A" * 70, 2, {"stamp": 1}),
           "b": (b"NEW-B" * 10, 1, {"stamp": 9})}

    def assert_prepared(self, fs):
        """Files old, rows readable, shadow chains hold the new data."""
        assert snapshot(fs) == self.OLD
        rows = fs.intentions()
        assert list(rows) == [self.TXN]
        a, b, c = rows[self.TXN]
        assert (a.name, a.version, a.length, a.properties, a.delete) == \
            ("a", 2, 350, None, False)
        assert (b.name, b.version, b.length, b.properties, b.delete) == \
            ("b", 1, 50, {"stamp": 9}, False)
        assert (c.name, c.delete, c.head) == ("c", True, -1)
        chunks, pages = fs._walk_chain_sync(a.head)
        assert b"".join(chunks) == b"NEW-A" * 70
        assert pages == fs._intent_pages[self.TXN, "a"]

    @pytest.mark.parametrize("page_size", [128, 512])
    def test_intend_is_old_or_prepared_at_every_step(self, page_size):
        store, fs = self.build(page_size)
        total_steps = sum(1 for _ in self.intend(fs))
        self.assert_prepared(fs)
        seen = set()
        for kill_after in range(total_steps + 1):
            store, fs = self.build(page_size)
            operation = self.intend(fs)
            for _ in range(kill_after):
                next(operation)
            recovered = remount(store)
            assert_pages_balanced(recovered)
            if recovered.intentions():
                self.assert_prepared(recovered)
                seen.add("prepared")
            else:
                assert snapshot(recovered) == self.OLD
                seen.add("old")
        assert seen == {"old", "prepared"}

    @pytest.mark.parametrize("page_size", [128, 512])
    @pytest.mark.parametrize("install", [True, False])
    def test_resolve_is_prepared_or_decided_at_every_step(self, page_size,
                                                          install):
        decided = self.NEW if install else self.OLD

        def prepared():
            store, fs = self.build(page_size)
            drive(self.intend(fs))
            return store, fs

        store, fs = prepared()
        data_writes = fs.store.primary.pages.writes
        rows = drive(fs.resolve(self.TXN, install))
        assert [row.name for row in rows] == ["a", "b", "c"]
        total_steps = 2 * (fs.store.primary.pages.writes - data_writes)
        # Bucket chains and the root only: resolving writes no data.
        assert total_steps <= 2 * (3 * 2 + 1)
        assert snapshot(fs) == decided and fs.intentions() == {}
        assert_pages_balanced(fs)
        seen = set()
        for kill_after in range(total_steps + 1):
            store, fs = prepared()
            operation = fs.resolve(self.TXN, install)
            for _ in range(kill_after):
                next(operation)
            recovered = remount(store)
            assert_pages_balanced(recovered)
            if recovered.intentions():
                self.assert_prepared(recovered)
                seen.add("prepared")
                # Whoever decided asks again.
                drive(recovered.resolve(self.TXN, install))
                assert_pages_balanced(recovered)
            else:
                seen.add("decided")
            assert snapshot(recovered) == decided
            assert recovered.intentions() == {}
            assert_pages_balanced(remount(store))
        assert seen == {"prepared", "decided"}

    def test_unnumbered_row_is_old_in_doubt_or_new_at_every_step(self):
        """Kill a version-less intend, then its numbered resolve, after
        every page step: the remount is old, or in doubt — and the
        retried resolve installs the number — or new."""
        number = 4
        new = {"a": (b"NEW-A" * 70, number, {"stamp": 1}),
               "c": self.OLD["c"]}

        def intend(fs):
            return fs.intend(self.TXN, [Put("a", b"NEW-A" * 70, None)])

        def prepared(fs):
            (row,) = fs.intentions()[self.TXN]
            assert (row.name, row.version) == ("a", None)
            assert snapshot(fs) == self.OLD

        store, fs = self.build()
        intend_steps = sum(1 for _ in intend(fs))
        resolve_steps = sum(1 for _ in fs.resolve(self.TXN, True, number))
        assert snapshot(fs) == new
        seen = set()
        for kill_after in range(intend_steps + resolve_steps + 1):
            store, fs = self.build()
            operation = intend(fs)
            for step in range(kill_after):
                if step == intend_steps:
                    drive(operation)        # the flip's in-memory tail
                    operation = fs.resolve(self.TXN, True, number)
                next(operation)
            recovered = remount(store)
            assert_pages_balanced(recovered)
            if recovered.intentions():
                prepared(recovered)
                seen.add("in doubt")
                drive(recovered.resolve(self.TXN, True, number))
                assert_pages_balanced(recovered)
            elif snapshot(recovered) == self.OLD:
                seen.add("old")
                continue
            else:
                seen.add("new")
            assert snapshot(recovered) == new
            assert recovered.intentions() == {}
            assert_pages_balanced(remount(store))
        assert seen == {"old", "in doubt", "new"}

    @pytest.mark.parametrize("number", [0, 1])
    def test_a_number_at_or_below_the_entry_discards_the_row(self, number):
        store, fs = self.build()
        free = fs.free_pages
        drive(fs.intend(self.TXN, [Put("a", b"NEW-A" * 70, None)]))
        rows = drive(fs.resolve(self.TXN, True, number))
        assert [(row.name, row.version) for row in rows] == [("a", None)]
        assert snapshot(fs) == self.OLD and fs.intentions() == {}
        assert fs.free_pages == free
        assert_pages_balanced(fs)
        assert snapshot(remount(store)) == self.OLD

    def test_an_unnumbered_row_needs_a_number_to_install(self):
        store, fs = self.build()
        drive(fs.intend(self.TXN, [Put("a", b"NEW-A" * 70, None)]))
        with pytest.raises(StorageError, match="names none"):
            fs.resolve(self.TXN, True)
        drive(fs.resolve(self.TXN, False))
        assert snapshot(fs) == self.OLD and fs.intentions() == {}

    def test_rows_live_in_the_bucket_of_the_file_they_name(self):
        store, fs = self.build()
        drive(self.intend(fs))
        for name in ("a", "b", "c"):
            rows = fs._buckets[fs._bucket_of(name)].rows
            assert [row.name for row in rows] == [name]

    def test_update_keeps_another_transactions_row(self):
        fs = fresh_fs()
        names = [name for name in (f"file-{i}" for i in range(2_000))
                 if fs._bucket_of(name) == fs._bucket_of("file-0")][:2]
        x, y = names
        fs.write_file_sync(x, b"x1", version=1, create=True)
        drive(fs.intend("t#1", [Put(y, b"y-new", 1)]))
        fs.write_file_sync(x, b"x2", version=2)
        fs.delete_file_sync(x)
        recovered = remount(fs.store)
        for image in (fs, recovered):
            (row,) = image.intentions()["t#1"]
            assert (row.name, row.version, row.length) == (y, 1, 5)
            assert image.list_files() == []
            assert_pages_balanced(image)
        drive(recovered.resolve("t#1", install=True))
        assert recovered.read_file_sync(y) == (b"y-new", 1)

    def test_abort_of_a_prepared_create_frees_its_chain(self):
        fs = fresh_fs()
        free_before = fs.free_pages
        drive(fs.intend("t#1", [Put("new", b"n" * 2_000, 1)]))
        assert fs.free_pages <= free_before - 5
        assert not fs.exists("new")
        drive(fs.resolve("t#1", install=False))
        assert fs.free_pages == free_before
        assert fs.list_files() == [] and fs.intentions() == {}
        assert remount(fs.store).free_pages == free_before

    def test_install_releases_the_replaced_chain(self):
        fs = fresh_fs()
        fs.write_file_sync("f", b"o" * 2_000, version=1, create=True)
        free_before = fs.free_pages
        drive(fs.intend("t#1", [Put("f", b"n" * 2_000, 2)]))
        drive(fs.resolve("t#1", install=True))
        assert fs.read_file_sync("f") == (b"n" * 2_000, 2)
        assert fs.free_pages == free_before
        assert_pages_balanced(fs)

    def test_resolving_twice_or_a_stranger_costs_nothing(self):
        fs = fresh_fs()
        drive(fs.intend("t#1", [Put("f", b"x", 1)]))
        drive(fs.resolve("t#1", install=True))
        writes = fs.store.primary.pages.writes
        assert drive(fs.resolve("t#1", install=True)) == []
        assert drive(fs.resolve("t#2", install=False)) == []
        assert fs.store.primary.pages.writes == writes
        assert fs.read_file_sync("f") == (b"x", 1)

    def test_one_intention_list_per_transaction_and_distinct_names(self):
        fs = fresh_fs()
        drive(fs.intend("t#1", [Put("f", b"x", 1)]))
        with pytest.raises(ValueError, match="already recorded"):
            fs.intend("t#1", [Put("g", b"y", 1)])
        with pytest.raises(ValueError, match="twice"):
            fs.intend("t#2", [Put("g", b"y", 1)], deletes=["g"])

    def test_delete_of_a_missing_file_resolves_to_nothing(self):
        fs = fresh_fs()
        drive(fs.intend("t#1", deletes=["ghost"]))
        assert [row.name for row in fs.intentions()["t#1"]] == ["ghost"]
        drive(fs.resolve("t#1", install=True))
        assert fs.list_files() == [] and fs.intentions() == {}
        assert_pages_balanced(fs)

    def test_failed_intend_reclaims_every_new_page(self):
        fs = fresh_fs(num_pages=16)
        free_before = fs.free_pages
        with pytest.raises(StorageError, match="out of pages"):
            drive(fs.intend("t#1", [Put("small", b"x" * 100, 1),
                                    Put("huge", b"x" * 100_000, 1)]))
        assert fs.free_pages == free_before
        assert fs.intentions() == {}
        # The bucket chain is what does not fit.
        fs = fresh_fs(num_pages=4, page_size=128)
        free_before = fs.free_pages
        with pytest.raises(StorageError, match="out of pages"):
            drive(fs.intend("t#1", [Put("f", b"x" * 300, 1)]))
        assert fs.free_pages == free_before
        assert_pages_balanced(fs)

    def test_row_shape_on_disk(self):
        row = IntentionRow("c#9", "f", 4, 7, 12, {"stamp": 2})
        assert row.to_json() == ["c#9", "f", 4, 7, 12, {"stamp": 2}, False]
        assert IntentionRow.from_json(
            json.loads(json.dumps(row.to_json()))) == row


class TestOnDiskFormat:
    @pytest.mark.parametrize("page_size, buckets",
                             [(64, 11), (128, 27), (256, 59), (512, 64)])
    def test_bucket_count_follows_page_geometry(self, page_size, buckets):
        fs = fresh_fs(num_pages=1024, page_size=page_size)
        assert len(fs._buckets) == buckets <= MAX_BUCKETS
        for index in range(3 * buckets):
            fs.write_file_sync(f"f{index}", bytes([index]) * 30,
                               version=index, create=True)
        recovered = remount(fs.store)
        assert snapshot(recovered) == snapshot(fs)
        assert len(recovered.list_files()) == 3 * buckets

    def test_bucket_is_crc32_of_the_name(self):
        fs = fresh_fs()
        assert fs._bucket_of("suite:db") == zlib.crc32(b"suite:db") % 64

    def test_legacy_json_root_refused(self):
        store = StableStore.create(32)
        store.write(ROOT_PAGE, json.dumps(
            {"epoch": 3, "directory_head": -1}).encode())
        with pytest.raises(StorageError, match="format"):
            FileSystem(store).mount()

    def test_record_file_format_root_refused(self):
        """Format 2 (prepared transactions in ``__txn__/`` record files)
        is refused by name, not mis-read."""
        fs = fresh_fs(num_pages=32)
        root = bytearray(fs.store.read(ROOT_PAGE))
        assert root[0] == ROOT_FORMAT == 3
        root[0] = 2
        fs.store.write(ROOT_PAGE, bytes(root))
        with pytest.raises(StorageError,
                           match=r"b'\\x02', expected format byte 3"):
            FileSystem(fs.store).mount()

    def test_root_from_other_page_geometry_refused(self):
        small = fresh_fs(num_pages=32, page_size=128)
        root = small.store.read(ROOT_PAGE)
        store = StableStore.create(32, page_size=512)
        store.write(ROOT_PAGE, root)
        with pytest.raises(StorageError, match="27 directory buckets.*64"):
            FileSystem(store).mount()


class TestModel:
    """Random operation sequences against a plain dict."""

    NAMES = [f"n{index}" for index in range(12)]

    operations = st.lists(st.one_of(
        st.tuples(st.just("create"), st.sampled_from(NAMES)),
        st.tuples(st.just("write"), st.sampled_from(NAMES),
                  st.binary(max_size=300)),
        st.tuples(st.just("delete"), st.sampled_from(NAMES)),
        st.tuples(st.just("update"),
                  st.dictionaries(st.sampled_from(NAMES),
                                  st.binary(max_size=300), max_size=3),
                  st.sets(st.sampled_from(NAMES), max_size=2)),
        st.tuples(st.just("intend"),
                  st.dictionaries(st.sampled_from(NAMES),
                                  st.binary(max_size=300), max_size=3),
                  st.sets(st.sampled_from(NAMES), max_size=2)),
        st.tuples(st.just("resolve"), st.booleans()),
        st.tuples(st.just("remount")),
    ), min_size=1, max_size=25)

    @given(operations, st.sampled_from([128, 256, 512]))
    @settings(max_examples=60, deadline=None)
    def test_matches_dict_model(self, operations, page_size):
        store = StableStore.create(256, page_size)
        fs = FileSystem(store)
        fs.format()
        model = {}
        pending = {}    # txn -> (puts, deletes), oldest first
        for version, (kind, *args) in enumerate(operations, start=1):
            if kind == "intend":
                puts, deletes = args
                deletes = sorted(deletes - set(puts))
                if not puts and not deletes:
                    with pytest.raises(ValueError, match="nothing"):
                        fs.intend(f"t#{version}")
                    continue
                drive(fs.intend(f"t#{version}",
                                [Put(name, data, version)
                                 for name, data in sorted(puts.items())],
                                deletes))
                pending[f"t#{version}"] = (
                    {name: (data, version) for name, data in puts.items()},
                    deletes)
            elif kind == "resolve":
                if pending:
                    txn = next(iter(pending))
                    puts, deletes = pending.pop(txn)
                    drive(fs.resolve(txn, args[0]))
                    if args[0]:
                        for name in deletes:
                            model.pop(name, None)
                        model.update(puts)
            elif kind == "create":
                if args[0] in model:
                    with pytest.raises(FileExistsError_):
                        fs.create_file(args[0])
                else:
                    fs.create_file_sync(args[0])
                    model[args[0]] = (b"", 0)
            elif kind == "write":
                fs.write_file_sync(args[0], args[1], version, create=True)
                model[args[0]] = (args[1], version)
            elif kind == "delete":
                if args[0] in model:
                    fs.delete_file_sync(args[0])
                    del model[args[0]]
                else:
                    with pytest.raises(NoSuchFileError):
                        fs.delete_file(args[0])
            elif kind == "update":
                puts, deletes = args
                deletes = sorted(name for name in deletes
                                 if name in model and name not in puts)
                drive(fs.update([Put(name, data, version)
                                 for name, data in sorted(puts.items())],
                                deletes))
                for name in deletes:
                    del model[name]
                model.update({name: (data, version)
                              for name, data in puts.items()})
            else:
                fs = remount(store)
            assert {name: fs.read_file_sync(name)
                    for name in fs.list_files()} == model
            assert sorted(fs.intentions()) == sorted(pending)
            assert_pages_balanced(fs)


class TestPropertyBased:
    @given(st.binary(max_size=4_000), st.integers(min_value=1, max_value=10))
    @settings(max_examples=40, deadline=None)
    def test_any_payload_round_trips(self, data, version):
        fs = fresh_fs()
        fs.write_file_sync("f", data, version=version, create=True)
        assert fs.read_file_sync("f") == (data, version)

    @given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                              st.binary(max_size=600)),
                    min_size=1, max_size=15))
    @settings(max_examples=30, deadline=None)
    def test_sequences_of_writes_keep_latest(self, writes):
        fs = fresh_fs()
        expected = {}
        for index, (name, data) in enumerate(writes):
            fs.write_file_sync(name, data, version=index + 1, create=True)
            expected[name] = (data, index + 1)
        for name, (data, version) in expected.items():
            assert fs.read_file_sync(name) == (data, version)

    @given(st.integers(min_value=0, max_value=40))
    @settings(max_examples=40, deadline=None)
    def test_crash_at_random_step_never_corrupts(self, kill_after):
        store = StableStore.create(128)
        fs = FileSystem(store)
        fs.format()
        fs.write_file_sync("f", b"OLD" * 100, version=1, create=True)
        operation = fs.write_file("f", b"NEW" * 333, version=2)
        for _ in range(kill_after):
            try:
                next(operation)
            except StopIteration:
                break
        recovered = FileSystem(store)
        recovered.mount()
        assert recovered.read_file_sync("f") in (
            (b"OLD" * 100, 1), (b"NEW" * 333, 2))


#: JSON values as a bucket may hold them in a property map.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=8)
#: Names with quotes, backslashes, control and non-ASCII characters.
names = st.text(alphabet=st.sampled_from('ab"\\\n\x00\x1f/é日\U0001f600'),
                max_size=6)
property_maps = st.dictionaries(st.text(max_size=5), json_values,
                                max_size=3)


class TestDirectoryImage:
    """The in-memory image behind every flip — the root's head list,
    each entry's and row's encoded fragment — stays equal to a full
    recompute, and the bytes on disk stay those of format 3."""

    @given(st.lists(st.tuples(names, st.integers(), st.integers(0, 10**6),
                              st.integers(-1, 4095), property_maps,
                              st.integers(), st.booleans()),
                    max_size=4),
           st.lists(st.tuples(names, names, st.none() | st.integers(),
                              st.integers(0, 10**6), st.integers(-1, 4095),
                              st.none() | property_maps, st.booleans()),
                    max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_bucket_encoding_is_json_dumps(self, entries, rows):
        files = {}
        for name, version, length, head, properties, later, carry in entries:
            stat = FileStat(name, version, length, head, properties)
            if carry:       # an entry inheriting its properties
                stat = stat.successor(later, length, head)
            files[name] = stat
        bucket = _Bucket(files, [IntentionRow(*row) for row in rows])
        assert bucket.encode() == reference_bucket_encoding(bucket)

    def test_entries_and_rows_are_replaced_never_mutated(self):
        stat = FileStat("f", 1, 0, properties={"stamp": 1})
        row = IntentionRow("t#1", "f", None, 0)
        for record, field in ((stat, "version"), (row, "head")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field, 7)
        after = stat.successor(2, 5, 9)
        assert (after.version, after.length, after.head) == (2, 5, 9)
        assert after.properties is stat.properties
        assert after == FileStat("f", 2, 5, 9, {"stamp": 1})

    def test_every_operation_keeps_the_image_current(self):
        """Each op kind, a failed flip and a remount: the cached heads
        and fragments equal a full recompute after each."""
        store = StableStore.create(40, 128)
        fs = FileSystem(store)
        fs.format()
        a, b, c = names_in_distinct_buckets(fs, 3)
        steps = [
            lambda: fs.create_file_sync(a, {"stamp": 1}),
            lambda: fs.write_file_sync(a, b"A" * 300, 2),
            lambda: drive(fs.update([Put(b, b"B", 1, {"n": [1, "é"]}),
                                     Put(c, b"C" * 50, 1)])),
            lambda: drive(fs.intend("t#1", [Put(a, b"a" * 90, None)],
                                    deletes=[c])),
            lambda: drive(fs.resolve("t#1", True, 3)),
            lambda: drive(fs.intend("t#2", [Put(b, b"b", 2, {})])),
            lambda: drive(fs.resolve("t#2", False)),
            lambda: fs.delete_file_sync(b),
        ]
        for step in steps:
            step()
            assert_pages_balanced(fs)
        heads = list(fs._heads)
        with pytest.raises(StorageError, match="out of pages"):
            drive(fs.intend("t#3", [Put(a, b"x" * 10_000, None)]))
        assert fs._heads == heads
        assert_pages_balanced(fs)
        recovered = remount(store)
        assert recovered._heads == heads
        assert_pages_balanced(recovered)
        assert snapshot(recovered) == snapshot(fs)

    def test_a_flip_makes_the_same_calls_whatever_the_bucket_count(self):
        """An intend + resolve runs the same Python calls with 27
        buckets as with 64: a flip costs what it touches, not the
        directory's width."""
        def calls(page_size):
            fs = fresh_fs(num_pages=64, page_size=page_size)
            fs.create_file_sync("f")
            counts = collections.Counter()

            def profile(_frame, event, _arg):
                counts[event] += 1

            sys.setprofile(profile)
            try:
                drive(fs.intend("t", [Put("f", b"", None)]))
                drive(fs.resolve("t", True, 1))
            finally:
                sys.setprofile(None)
            assert fs.stat("f").version == 1
            return len(fs._buckets), counts["call"], counts["c_call"]

        narrow, wide = calls(128), calls(512)
        assert (narrow[0], wide[0]) == (27, 64)
        assert narrow[1:] == wide[1:]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_page_images_match_the_reference_encoder(self, seed,
                                                     monkeypatch):
        """A seeded run of updates, intends, resolves and deletes
        writes exactly the pages, primary and shadow, that encoding
        every bucket from scratch writes."""
        def run():
            rng = random.Random(seed)
            fs = fresh_fs(num_pages=512, page_size=256)
            pool = [f"suite-{i}" for i in range(6)] + ["é\"", "日"]
            pending = []
            for step in range(60):
                kind = rng.choice(["update", "intend", "resolve", "delete"])
                name = rng.choice(pool)
                props = rng.choice([None, {"stamp": step, "c": [name]}])
                data = bytes([step]) * rng.randrange(0, 600)
                if kind == "update":
                    drive(fs.update([Put(name, data, step, props)]))
                elif kind == "intend" and not any(
                        name in names for _txn, names in pending):
                    txn = f"t#{step}"
                    drive(fs.intend(txn, [Put(name, data, rng.choice(
                        [None, step]), props)]))
                    pending.append((txn, {name}))
                elif kind == "resolve" and pending:
                    txn, _names = pending.pop(0)
                    drive(fs.resolve(txn, rng.random() < 0.7, step))
                elif kind == "delete" and fs.exists(name):
                    fs.delete_file_sync(name)
            return [list(store.pages._pages)
                    for store in (fs.store.primary, fs.store.shadow)]

        cached = run()
        monkeypatch.setattr(_Bucket, "encode", reference_bucket_encoding)
        assert cached == run()
