"""Shadow-paging file system: operations and crash atomicity."""

import json
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import FileExistsError_, NoSuchFileError, StorageError
from repro.storage import ROOT_PAGE, FileSystem, Put, StableStore, drive
from repro.storage.files import MAX_BUCKETS


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


def reachable_pages(fs):
    """Pages the directory accounts for: root, bucket and data chains."""
    return (1 + sum(len(pages) for pages in fs._bucket_pages)
            + sum(len(pages) for pages in fs._file_pages.values()))


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
            assert (recovered.free_pages + reachable_pages(recovered)
                    == store.num_pages)
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
            assert (recovered.free_pages + reachable_pages(recovered)
                    == store.num_pages)
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
        st.tuples(st.just("remount")),
    ), min_size=1, max_size=25)

    @given(operations, st.sampled_from([128, 256, 512]))
    @settings(max_examples=60, deadline=None)
    def test_matches_dict_model(self, operations, page_size):
        store = StableStore.create(256, page_size)
        fs = FileSystem(store)
        fs.format()
        model = {}
        for version, (kind, *args) in enumerate(operations, start=1):
            if kind == "create":
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
            assert fs.free_pages + reachable_pages(fs) == store.num_pages


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
