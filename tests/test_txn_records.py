"""Transaction ids and the durable form of an intentions list."""

import pytest

from repro.storage import FileSystem, Put, StableStore, drive
from repro.txn import TransactionId, TransactionIdGenerator


class TestTransactionId:
    def test_ordering_by_sequence_then_site(self):
        assert TransactionId("a", 1) < TransactionId("a", 2)
        assert TransactionId("a", 1) < TransactionId("b", 1)
        assert TransactionId("b", 1) < TransactionId("a", 2)

    def test_equality_and_hash(self):
        assert TransactionId("x", 3) == TransactionId("x", 3)
        assert hash(TransactionId("x", 3)) == hash(TransactionId("x", 3))

    def test_string_round_trip(self):
        txn = TransactionId("client-1", 42)
        assert TransactionId.parse(str(txn)) == txn

    def test_parse_site_with_hash(self):
        txn = TransactionId("we#ird", 7)
        assert TransactionId.parse(str(txn)) == txn

    def test_parse_malformed(self):
        with pytest.raises(ValueError):
            TransactionId.parse("nohash")

    def test_generator_monotonic_and_unique(self):
        generator = TransactionIdGenerator("site")
        ids = [generator.next_id() for _ in range(10)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 10


class TestRecords:
    """Intention rows survive a remount exactly as ``intend`` wrote
    them, keyed by the transaction id's string form."""

    def remounted(self, txn, puts=(), deletes=()):
        store = StableStore.create(64)
        fs = FileSystem(store)
        fs.format()
        drive(fs.intend(str(txn), puts, deletes))
        recovered = FileSystem(store)
        recovered.mount()
        return recovered

    def test_round_trip(self):
        txn = TransactionId("c", 9)
        fs = self.remounted(
            txn, [Put("f", b"\x00\xffbinary", 4, {"stamp": 2})],
            deletes=["g"])
        (recorded, rows), = fs.intentions().items()
        assert TransactionId.parse(recorded) == txn
        f, g = rows
        assert (f.txn, f.name, f.version, f.length, f.properties,
                f.delete) == (str(txn), "f", 4, 8, {"stamp": 2}, False)
        chunks, _pages = fs._walk_chain_sync(f.head)
        assert b"".join(chunks) == b"\x00\xffbinary"
        assert (g.name, g.delete, g.head, g.properties) == \
            ("g", True, -1, None)

    def test_properties_none_preserved(self):
        fs = self.remounted(TransactionId("c", 2), [Put("f", b"d", 1)])
        (row,), = fs.intentions().values()
        assert row.properties is None

    def test_transactions_are_kept_apart(self):
        store = StableStore.create(64)
        fs = FileSystem(store)
        fs.format()
        first, second = TransactionId("we#ird", 7), TransactionId("c", 8)
        drive(fs.intend(str(first), [Put("f", b"1", 1)]))
        drive(fs.intend(str(second), [Put("g", b"2", 1)], deletes=["h"]))
        recovered = FileSystem(store)
        recovered.mount()
        rows = recovered.intentions()
        assert {TransactionId.parse(txn) for txn in rows} == {first, second}
        assert [row.name for row in rows[str(first)]] == ["f"]
        assert [row.name for row in rows[str(second)]] == ["g", "h"]
