"""Transaction ids and durable record serialization."""

import pytest

from repro.txn import (Intention, TransactionId, TransactionIdGenerator,
                       TransactionRecord, is_record_file, record_file_name)


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
    def test_round_trip(self):
        record = TransactionRecord(
            txn_id=TransactionId("c", 9),
            intentions=[
                Intention(name="f", data=b"\x00\xffbinary", version=4,
                          properties={"stamp": 2}),
                Intention(name="g", data=b"", version=0, delete=True),
            ])
        decoded = TransactionRecord.decode(record.encode())
        assert decoded.txn_id == record.txn_id
        assert decoded.intentions == record.intentions

    def test_record_file_naming(self):
        txn = TransactionId("host", 5)
        name = record_file_name(txn)
        assert is_record_file(name)
        assert not is_record_file("suite:db")
        assert str(txn) in name

    def test_properties_none_preserved(self):
        record = TransactionRecord(
            TransactionId("c", 2),
            intentions=[Intention(name="f", data=b"d", version=1)])
        decoded = TransactionRecord.decode(record.encode())
        assert decoded.intentions[0].properties is None
