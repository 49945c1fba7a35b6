"""Wire codec: binary/JSON equivalence, fixed layouts, batching.

The binary codec must be an *encoding* change only: any Request/Reply
that round-trips through a JSON frame must round-trip through a binary
frame to the identical message, and a frame parser must accept either
codec on the same connection without being told which is coming.  The
equivalence is property-tested over randomized payloads (nested
containers, bytes blobs, unicode, null-vs-missing args).

Every message the protocol itself sends must take the fixed binary
layout (no JSON, no payload walk), anything else a JSON body; and a
damaged body of either kind is a :class:`FrameError`, never another
exception.
"""

import asyncio
import dataclasses
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.rpc import codec
from repro.rpc.codec import (FrameError, KIND_BATCH, KIND_FIXED_REPLY,
                             KIND_FIXED_REQUEST, MAGIC, MAX_FRAME_BYTES,
                             decode_wire_body, encode_batch_body,
                             encode_binary_body, encode_frame,
                             encode_json_body)
from repro.live.transport import FrameParser, read_frame
from repro.rpc.messages import METHOD_IDS, METHOD_NAMES, Reply, Request
from repro.testbed import Testbed
from tests.helpers import triple_config, wire_message

# JSON-expressible payload values, bytes included (the codecs normalise
# tuples to lists, so tuples are generated only where tests expect it).
json_scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-2**53, max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40), st.binary(max_size=200))
payloads = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=12), children, max_size=4)),
    max_leaves=12)
args_dicts = st.dictionaries(st.text(min_size=1, max_size=12), payloads,
                             max_size=4)
methods = st.one_of(st.sampled_from(sorted(METHOD_IDS)),
                    st.text(min_size=1, max_size=20))
traces = st.one_of(st.none(), st.dictionaries(
    st.sampled_from(["trace_id", "span_id"]),
    st.text(min_size=1, max_size=16), max_size=2))

requests = st.builds(
    Request,
    call_id=st.integers(min_value=0, max_value=2**63 - 1),
    source=st.text(min_size=1, max_size=16),
    method=methods, args=args_dicts, trace=traces)
replies = st.one_of(
    st.builds(Reply, call_id=st.integers(min_value=0, max_value=2**63 - 1),
              ok=st.just(True), value=payloads),
    st.builds(Reply, call_id=st.integers(min_value=0, max_value=2**63 - 1),
              ok=st.just(False), value=st.none(),
              error_type=st.text(min_size=1, max_size=16),
              error_detail=st.text(max_size=40)))
messages = st.one_of(requests, replies)


def decode_one(body: bytes):
    decoded = decode_wire_body(body)
    assert len(decoded) == 1
    return decoded[0]


class TestEquivalence:
    """JSON and binary frames decode to the identical message."""

    @given(messages)
    @settings(max_examples=200, deadline=None)
    def test_codecs_agree(self, message):
        via_json = decode_one(encode_json_body(message))
        via_binary = decode_one(encode_binary_body(message))
        assert via_json == via_binary == message

    def test_binary_is_self_describing(self):
        # First byte tells the codecs apart: 0xB7 can never start a
        # JSON document, '{' can never start a binary frame.
        request = Request(call_id=1, source="c", method="txn.stat",
                          args={})
        assert encode_binary_body(request)[0] == MAGIC
        assert encode_json_body(request)[0:1] == b"{"

    def test_args_null_and_missing_agree(self):
        # The regression the unified decoder pins down: an explicit
        # "args": null and a missing args key both decode to {} on
        # every path.
        for raw in (b'{"kind":"request","call_id":1,"source":"c",'
                    b'"method":"m","args":null}',
                    b'{"kind":"request","call_id":1,"source":"c",'
                    b'"method":"m"}'):
            message = decode_one(raw)
            assert message.args == {}


class TestBinaryLayout:
    def test_page_payload_not_inflated(self):
        # The point of the codec: a page travels as itself plus a
        # 4-byte length, not base64.
        page = bytes(range(256)) * 16
        reply = Reply.success(3, {"data": page, "version": 9})
        body = encode_binary_body(reply)
        json_body = encode_json_body(reply)
        assert page in body
        assert len(body) < len(json_body) - len(page) // 4
        assert decode_one(body) == reply

    def test_registry_method_not_inline(self):
        body = encode_binary_body(
            Request(call_id=1, source="c", method="txn.prepare", args={}))
        assert b"txn.prepare" not in body

    def test_unregistered_method_inline(self):
        message = Request(call_id=1, source="c", method="custom.ping",
                          args={"x": 1})
        body = encode_binary_body(message)
        assert b"custom.ping" in body
        assert decode_one(body) == message

    def test_method_registry_is_a_bijection(self):
        assert len(METHOD_NAMES) == len(METHOD_IDS)
        assert 0 not in METHOD_NAMES  # 0 means "name inline"

    def test_truncated_binary_rejected(self):
        body = encode_binary_body(
            Reply.success(5, {"data": b"\x01" * 64}))
        for cut in (1, 8, len(body) // 2, len(body) - 1):
            with pytest.raises(FrameError):
                decode_wire_body(body[:cut])

    def test_garbage_after_magic_rejected(self):
        with pytest.raises(FrameError):
            decode_wire_body(bytes([MAGIC, 99]) + b"\x00" * 20)


class TestBatch:
    @given(st.lists(messages, min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_batch_round_trip(self, originals):
        bodies = [encode_binary_body(message) for message in originals]
        decoded = decode_wire_body(encode_batch_body(bodies))
        assert decoded == originals

    def test_batch_of_mixed_codecs(self):
        # Sub-bodies are full frame bodies, so a batch may carry JSON
        # sub-bodies too (nothing emits this today; decoding it keeps
        # the sub-body format self-describing).
        request = Request(call_id=1, source="c", method="m", args={})
        reply = Reply.success(2, "ok")
        body = encode_batch_body([encode_json_body(request),
                                  encode_binary_body(reply)])
        decoded = decode_wire_body(body)
        assert decoded == [request, reply]

    def test_truncated_batch_rejected(self):
        body = encode_batch_body(
            [encode_binary_body(Reply.success(i, "v")) for i in range(3)])
        with pytest.raises(FrameError):
            decode_wire_body(body[:-3])


class TestFrameLimit:
    def test_oversize_encode_raises_frame_error(self):
        huge = Reply.success(1, {"data": b"\x00" * (MAX_FRAME_BYTES + 1)})
        with pytest.raises(FrameError):
            encode_frame(huge)

    def test_unencodable_message_raises_frame_error(self):
        # Neither layout says an object(): refused, not a TypeError.
        for message in (Request(call_id=1, source="c", method="m",
                                args={"x": object()}),
                        Reply.success(1, {1, 2})):
            with pytest.raises(FrameError):
                encode_binary_body(message)

    def test_frame_wraps_body(self):
        message = Request(call_id=7, source="c", method="txn.stat",
                          args={"page": b"\xff" * 32})
        frame = encode_frame(message)
        length = int.from_bytes(frame[:4], "big")
        assert length == len(frame) - 4
        assert decode_one(frame[4:]) == message


# ---------------------------------------------------------------------------
# Fixed layouts: what the protocol sends
# ---------------------------------------------------------------------------

def _capture_protocol_messages():
    """Every Request/Reply a traced sim deployment puts on the wire for
    install_suite, a read, a write, a truncated read
    that falls back to ``txn.read``, a ``transact(read_in -> write_in)``
    with its explicit prepare and the refresh of the copy it left
    behind, and direct calls whose replies cover the
    remaining shapes (detail stat, ``None``, an error)."""
    from repro.errors import ReproError
    bed = Testbed(servers=["s1", "s2", "s3"], seed=7, obs=True)
    seen = []
    send = bed.network.send

    def tap(source, destination, body):
        seen.append(wire_message(body))
        send(source, destination, body)

    bed.network.send = tap
    suite = bed.install(triple_config(), b"v1")
    bed.run(suite.read())
    bed.run(suite.write(b"v2"))
    bed.settle(5_000.0)
    bed.run(bed.suite(triple_config(), read_max_bytes=1).read())

    def bump(txn):
        current = yield from suite.read_in(txn)
        return (yield from suite.write_in(txn, current.data + b"!"))

    bed.run(suite.transact(bump))
    bed.settle(5_000.0)
    endpoint = bed.clients["client"].endpoint
    name = suite.config.file_name

    def direct():
        for method, args in (
                ("txn.stat", {"txn": "client#900", "name": name,
                              "detail": True, "release": True}),
                ("txn.abort", {"txn": "client#901"}),
                ("txn.stage_delete", {"txn": "client#902", "name": name}),
                ("txn.abort", {"txn": "client#902"}),
                ("txn.stat", {"txn": "client#903", "name": "missing",
                              "release": True})):
            try:
                yield endpoint.call("s1", method, **args)
            except ReproError:
                pass

    bed.run(direct())
    bed.settle(5_000.0)
    return seen


@pytest.fixture(scope="module")
def protocol_messages():
    return _capture_protocol_messages()


def as_received(message):
    """``message`` as any codec delivers it: tuples arrive as lists."""
    if isinstance(message, Reply) and isinstance(message.value, tuple):
        return dataclasses.replace(message, value=list(message.value))
    return message


def layout_signature(body):
    """(kind, method id or shape, presence bitmap) of a fixed body —
    the trace bit left out: it only adds two strings to the run."""
    return body[1], body[2], int.from_bytes(body[3:7], "big") & ~(1 << 31)


@pytest.fixture(scope="module")
def fixed_samples(protocol_messages):
    """One protocol message per distinct fixed layout."""
    samples = {}
    for message in protocol_messages:
        body = encode_binary_body(message)
        samples.setdefault(layout_signature(body), body)
    return list(samples.values())


class TestFixedLayout:
    def test_every_protocol_message_is_fixed_and_exact(
            self, protocol_messages):
        methods = set()
        for message in protocol_messages:
            body = encode_binary_body(message)
            kind = (KIND_FIXED_REQUEST if isinstance(message, Request)
                    else KIND_FIXED_REPLY)
            assert body[0] == MAGIC and body[1] == kind, message
            assert b"{" not in body[:1]
            decoded = decode_one(body)
            assert decoded == as_received(message)
            assert decoded == decode_one(encode_json_body(message))
            if isinstance(message, Request):
                methods.add(message.method)
        assert methods == {"txn.stat", "txn.read", "txn.stage_write",
                           "txn.prepare", "txn.commit", "txn.abort",
                           "txn.stage_delete"}

    def test_every_reply_shape_is_exercised(self, protocol_messages):
        shapes = {encode_binary_body(message)[2]
                  for message in protocol_messages
                  if isinstance(message, Reply)}
        assert shapes == {1, 2, 4, 5, 6}
        # No handler has returned a bare int since txn.read_version was
        # retired; shape 3 still carries one in a fixed layout.
        body = encode_binary_body(Reply.success(1, 7))
        assert body[1:3] == bytes([KIND_FIXED_REPLY, 3])
        assert decode_one(body) == Reply.success(1, 7)

    def test_the_operations_send_what_they_should(self, protocol_messages):
        requests = [m for m in protocol_messages if isinstance(m, Request)]
        stages = [m.args for m in requests if m.method == "txn.stage_write"]
        assert any(a.get("properties") and a.get("prepare")
                   and a.get("create") for a in stages)      # install
        assert any(a.get("one_phase") and a.get("only_if_newer")
                   for a in stages)                          # refresh
        assert any(m.method == "txn.prepare" and "answered" in m.args
                   for m in requests)                        # transact
        assert any(m.method == "txn.read" for m in requests)  # fallback
        assert any(m.trace is not None for m in requests)     # traced

    def test_size_pins(self, protocol_messages):
        inquiries = [m for m in protocol_messages
                     if isinstance(m, Request) and m.method == "txn.stat"
                     and m.args.get("release")
                     and not m.args.get("read_data")
                     and m.trace is not None]
        stats = [m for m in protocol_messages
                 if isinstance(m, Reply) and isinstance(m.value, dict)
                 and set(m.value) == {"version", "stamp"}]
        assert inquiries and stats
        assert max(len(encode_binary_body(m)) for m in inquiries) <= 80
        assert max(len(encode_binary_body(m)) for m in stats) <= 40

    def test_numbered_write_is_fixed_and_pinned(self, protocol_messages):
        """A ``write()``'s version-less voting stage, its vote — a
        stat-shaped reply — and the numbered ``txn.commit`` travel in
        fixed layouts, at pinned sizes."""
        requests = [m for m in protocol_messages if isinstance(m, Request)]
        stages = [m for m in requests if m.method == "txn.stage_write"
                  and m.args.get("prepare") and "version" not in m.args]
        calls = {m.call_id for m in stages}
        votes = [m for m in protocol_messages
                 if isinstance(m, Reply) and m.call_id in calls]
        commits = [m for m in requests if m.method == "txn.commit"
                   and "version" in m.args]
        assert len(stages) == len(votes) == len(commits) == 3
        for message in (*stages, *votes, *commits):
            body = encode_binary_body(message)
            assert body[1] == (KIND_FIXED_REQUEST
                               if isinstance(message, Request)
                               else KIND_FIXED_REPLY), message
            assert decode_one(body) == as_received(message)
        assert all(set(m.value) == {"version", "stamp"} for m in votes)
        stage = Request(call_id=5, source="client",
                        method="txn.stage_write",
                        args={"txn": "client#5", "name": "suite:db",
                              "data": b"x" * 256, "prepare": True})
        vote = Reply.success(5, {"version": 7, "stamp": 1})
        commit = Request(call_id=6, source="client", method="txn.commit",
                         args={"txn": "client#5", "version": 8})
        # The numbered stage was 310 bytes, "prepared" 25, a bare
        # commit 32: the number moves from the stage to the commit.
        assert [len(encode_binary_body(m)) for m in (stage, vote, commit)] \
            == [302, 33, 40]

    def test_data_travels_raw(self):
        reply = Reply.success(3, {"version": 4, "stamp": 1,
                                  "data": b"\x00\xff" * 128})
        body = encode_binary_body(reply)
        assert body[1] == KIND_FIXED_REPLY
        assert b"\x00\xff" * 128 in body
        assert len(body) <= 256 + 40


BASE_INQUIRY = Request(call_id=5, source="client", method="txn.stat",
                       args={"txn": "client#5", "name": "db", "mode": "S",
                             "release": True})


class TestFallback:
    @pytest.mark.parametrize("change", [
        {"args": {**BASE_INQUIRY.args, "bogus": 1}},
        {"args": {**BASE_INQUIRY.args, "txn": 5}},
        {"args": {**BASE_INQUIRY.args, "name": "d\x00b"}},
        {"args": {**BASE_INQUIRY.args, "answered": True}},
        {"args": {**BASE_INQUIRY.args, "max_bytes": 2**64}},
        {"args": {**BASE_INQUIRY.args, "release": None}},
        {"args": {**BASE_INQUIRY.args, "data": "not bytes"}},
        {"method": "custom.ping"},
        {"source": "cli\x00ent"},
        {"trace": {"trace_id": "t", "span_id": "s", "extra": "x"}},
        {"trace": {"trace_id": "t"}},
        {"args": {**BASE_INQUIRY.args, "name": "\ud800"}},
    ], ids=["unknown-key", "int-txn", "nul-in-name", "bool-as-int",
            "int-past-64-bits", "null-flag", "str-as-blob", "unregistered",
            "nul-in-source", "trace-extra-key", "trace-missing-key",
            "surrogate"])
    def test_request_falls_back_exactly(self, change):
        message = dataclasses.replace(BASE_INQUIRY, **change)
        body = encode_binary_body(message)
        assert body == encode_json_body(message)
        assert decode_one(body) == message

    def test_optional_ints_and_nulls_stay_fixed(self):
        message = dataclasses.replace(BASE_INQUIRY, args={
            **BASE_INQUIRY.args, "read_data": True, "max_bytes": None,
            "skip_version": -(2**63), "version": 2**63 - 1})
        body = encode_binary_body(message)
        assert body[1] == KIND_FIXED_REQUEST
        assert decode_one(body) == message

    @pytest.mark.parametrize("reply", [
        Reply.success(1, 1.5),
        Reply.success(1, b"raw"),
        Reply.success(1, [1, 2, 3]),
        Reply.success(1, {"version": 1, "other": 2}),
        Reply.success(1, {"version": True}),
        Reply.success(1, ["not bytes", 3]),
        Reply.success(1, "with\x00nul"),
        Reply.success(1, 2**70),
        Reply(call_id=1, ok=True, value="x", error_type="E"),
        Reply(call_id=1, ok=False, value="x", error_type="E"),
    ])
    def test_reply_falls_back_exactly(self, reply):
        body = encode_binary_body(reply)
        assert body == encode_json_body(reply)
        assert decode_one(body) == reply


def _fixed(kind, meta, bitmap, call_id, run, scalars=b"", tail=b""):
    return (struct.pack("!BBBIQH", MAGIC, kind, meta, bitmap, call_id,
                        len(run)) + scalars + run + tail)


class TestFixedValidation:
    def test_damaged_fields_are_frame_errors(self):
        good = encode_binary_body(BASE_INQUIRY)
        decode_one(good)
        bitmap = int.from_bytes(good[3:7], "big")
        for bad in (
                good[:2] + bytes([0]) + good[3:],        # method id 0
                good[:2] + bytes([99]) + good[3:],       # unknown method
                good + b"\x00",                          # trailing byte
                good[:3] + (bitmap | 1 << 30).to_bytes(4, "big")
                + good[7:],                              # bit off schema
                good.replace(b"client#5", b"clie\x00t#5"),  # extra string
                _fixed(KIND_FIXED_REPLY, 77, 0, 1, b""),  # unknown shape
                _fixed(KIND_FIXED_REPLY, 1, 0, 1, b"x"),  # run, no strings
                _fixed(KIND_FIXED_REPLY, 3, 0b11, 1, b"",
                       struct.pack("!q", 1)),            # set and null
                _fixed(KIND_FIXED_REPLY, 5, 0b01, 1, b"",
                       struct.pack("!I", 2), b"ab"),     # pair sans version
                _fixed(KIND_FIXED_REPLY, 4, 0b100, 1, b"",
                       struct.pack("!I", 9), b"ab")):    # blob overruns
            with pytest.raises(FrameError):
                decode_wire_body(bad)

    def test_every_truncation_is_a_frame_error(self, fixed_samples):
        for body in fixed_samples:
            for cut in range(len(body)):
                with pytest.raises(FrameError):
                    decode_wire_body(body[:cut])

    def test_every_single_byte_corruption_decodes_or_is_a_frame_error(
            self, fixed_samples):
        for body in fixed_samples:
            damaged = bytearray(body)
            for position in range(len(body)):
                original = damaged[position]
                for value in range(256):
                    if value == original:
                        continue
                    damaged[position] = value
                    try:
                        decode_wire_body(bytes(damaged))
                    except FrameError:
                        pass
                damaged[position] = original


# ---------------------------------------------------------------------------
# Hostile frames: too deep to decode is malformed, not a crash
# ---------------------------------------------------------------------------

DEEP = 100_000


def deep_json_body():
    return (b'{"kind":"request","call_id":1,"source":"c","method":"m",'
            b'"args":{"x":' + b"[" * DEEP + b"]" * DEEP + b"}}")


def deep_properties_body(depth=DEEP):
    # A fixed stage_write whose one JSON field, ``properties``, is the
    # deep value: the JSON inside a binary body.
    tail = b"[" * depth + b"]" * depth
    return _fixed(KIND_FIXED_REQUEST, METHOD_IDS["txn.stage_write"], 1 << 15,
                  1, b"c", struct.pack("!I", len(tail)), tail)


def nested_batch_body(depth=3_000):
    body = encode_binary_body(Reply.success(1, "ok"))
    for _ in range(depth):
        body = encode_batch_body([body])
    return body


HOSTILE_BODIES = [deep_json_body, deep_properties_body, nested_batch_body]


class TestHostileFrames:
    @pytest.mark.parametrize("make", HOSTILE_BODIES)
    def test_decode_raises_frame_error(self, make):
        with pytest.raises(FrameError):
            decode_wire_body(make())

    @pytest.mark.parametrize("make", HOSTILE_BODIES)
    def test_parser_raises_frame_error(self, make):
        body = make()
        with pytest.raises(FrameError):
            FrameParser().feed(len(body).to_bytes(4, "big") + body)

    @pytest.mark.parametrize("make", HOSTILE_BODIES)
    def test_read_frame_raises_frame_error(self, make):
        body = make()

        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(len(body).to_bytes(4, "big") + body)
            reader.feed_eof()
            with pytest.raises(FrameError):
                await read_frame(reader)

        asyncio.run(scenario())

    def test_shallow_properties_twin_decodes(self):
        # The hostile body is a well-formed fixed request but for its
        # depth: the refusal comes from the JSON decoder, not earlier.
        message = decode_one(deep_properties_body(3))
        assert message.method == "txn.stage_write"
        assert message.args == {"properties": [[[]]]}

    def test_batch_inside_a_batch_refused_at_depth_two(self):
        inner = encode_batch_body([encode_binary_body(Reply.success(1, 2))
                                   for _ in range(2)])
        decoded = decode_wire_body(inner)
        assert len(decoded) == 2
        with pytest.raises(FrameError, match="inside a batch"):
            decode_wire_body(encode_batch_body([inner]))
        assert inner[1] == KIND_BATCH


class TestPlanCache:
    def test_hostile_bitmaps_cannot_evict_the_protocols_plans(
            self, monkeypatch):
        # A peer cycling 300 distinct valid bitmaps fills (and empties)
        # only the decode-side cache; the encoder's plans are untouched
        # and a normal request is cached again after one decode.
        schema = codec._ARGS
        good = encode_binary_body(BASE_INQUIRY)
        sent = dict(schema.sent)
        for index in range(300):
            flags, nulls = index % 128, index // 128
            bitmap = flags << 3 | nulls << 16      # booleans, null ints
            decode_one(_fixed(KIND_FIXED_REQUEST, METHOD_IDS["txn.stat"],
                              bitmap, index, b"c",
                              bytes(bin(flags).count("1"))))
        assert schema.sent == sent
        assert len(schema.received) <= codec._PLAN_CACHE_LIMIT
        assert decode_one(good) == BASE_INQUIRY

        def forbid(bitmap):
            raise AssertionError(f"plan {bitmap:#x} compiled again")

        monkeypatch.setattr(schema, "compile", forbid)
        assert encode_binary_body(BASE_INQUIRY) == good
        assert decode_one(good) == BASE_INQUIRY
