import pytest

from bench.check import (INSTALLER, Checker, PayloadError, decode_payload,
                         encode_payload)

FILLER = bytes(range(256)) * 2 * 2


def payload(suite="b00", writer="c0", seq=1, size=256):
    return encode_payload(suite, writer, seq, size, FILLER)


def test_payload_round_trip_and_size():
    for size in (64, 256, 512):
        data = encode_payload("b03", "c2", 41, size, bytes(2 * size))
        assert len(data) == size
        assert decode_payload(data) == ("b03", "c2", 41)
    assert payload(seq=1) != payload(seq=2)


def test_payload_detects_corruption():
    data = bytearray(payload())
    data[-1] ^= 0x01
    with pytest.raises(PayloadError):
        decode_payload(bytes(data))
    with pytest.raises(PayloadError):
        decode_payload(b"not a payload")
    with pytest.raises(ValueError):
        encode_payload("b00", "c0", 1, 8, FILLER)


def test_checker_accepts_a_correct_history():
    checker = Checker(["b00", "b01"])
    initial = payload(writer=INSTALLER, seq=0)
    assert checker.read_done(0, checker.issue(0, False), 1, initial)
    floor = checker.issue(0, True)
    assert checker.write_done(0, floor, 2, "c0", 1)
    assert checker.read_done(0, checker.issue(0, False), 2, payload(seq=1))
    assert checker.final(0, 2, payload(seq=1))
    assert checker.final(1, 1, payload("b01", INSTALLER, 0))
    assert checker.violations == []


def test_checker_flags_each_rule():
    checker = Checker(["b00", "b01"])
    checker.write_done(0, checker.issue(0, True), 2, "c0", 1)
    # A read issued after v2 was acknowledged must not see v1.
    floor = checker.issue(0, False)
    assert not checker.read_done(0, floor, 1, payload(writer=INSTALLER, seq=0))
    # Data of another suite.
    assert not checker.read_done(1, 1, 1, payload("b00", INSTALLER, 0))
    # One version, two payload identities.
    assert not checker.read_done(0, 2, 2, payload(seq=9))
    # A write that does not move the version past what was observed (and
    # so also claims a version that already carries another payload).
    assert not checker.write_done(0, checker.issue(0, True), 2, "c0", 2)
    # Final version must equal 1 + committed, acknowledged <= committed.
    assert not checker.final(1, 3, payload("b01", "c0", 7))
    assert len(checker.violations) == 6


def test_final_allows_unacknowledged_commits():
    checker = Checker(["b00"])
    checker.issue(0, True)                      # attempted, never acked
    assert checker.final(0, 2, payload(seq=1))  # ...but it committed
    assert checker.violations == []
