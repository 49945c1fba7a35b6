"""The protocol's wire: fixed binary layouts, a JSON fallback, batches.

Every message either runtime sends travels as a *body* of bytes: the
simulated network carries bodies between hosts and charges their
length in byte time, and the live transport puts each one on a socket
behind a 4-byte big-endian length.

**Binary, fixed layout** — what the protocol's own messages travel as.
One schema table (:data:`_ARG_FIELDS` for the requests of the
:data:`~repro.rpc.messages.METHOD_IDS` methods, :data:`_REPLY_SHAPES`
for the values their handlers return) drives both directions.  A body
is a packed header — magic, kind, method id or reply shape, a presence
bitmap, call id, string-run length — followed, in the same ``struct``
compiled per presence bitmap, by every boolean and int of the message
and the lengths of its tails; then every string (source and trace ids
included) as one NUL-joined UTF-8 run; then the tails: the ``data``
blob raw and the ``properties`` map as JSON.  No ``json`` call on the
common path, no walk over the payload.

**JSON** — the fallback for anything the fixed layout cannot say
exactly: an unregistered method, an unknown key, a value of the wrong
type, NUL inside a string, an int outside 64 bits, a reply value of no
known shape.  A UTF-8 JSON object mirroring
:class:`~repro.rpc.messages.Request` / :class:`~repro.rpc.messages.Reply`;
``bytes`` payloads are tagged base64 objects.  A message neither can
say — or whose body would exceed :data:`MAX_FRAME_BYTES` — is refused
with :class:`FrameError`, which both runtimes treat as a lost datagram.
The first byte of a binary body (``0xB7``) can never start a JSON
object, so a reader needs no state to decode either.

**Batch** bodies carry several request/reply bodies in one frame — the
live transport packs everything queued for one destination in one
event-loop pass (a quorum inquiry's whole per-host fan-out, a server's
replies to it) into a single frame, so N messages cost one frame
header, one socket write and one wake-up on the far side.  A batch
never holds a batch: the encoder cannot produce one and the decoder
refuses it.

:func:`decode_wire_body` is the single decode path: the sim host, the
pull-style :func:`~repro.live.transport.read_frame` and the push-style
:class:`~repro.live.transport.FrameParser` all use it, so no two
readers can disagree about message shape.  Every malformed body —
truncated, corrupt, nested past the interpreter's recursion limit — is
a :class:`FrameError`, which the live transport answers by dropping
the connection.
"""

from __future__ import annotations

import base64
import json
import struct
from typing import Any, Dict, List, Optional, Tuple, Union

from .messages import METHOD_IDS, METHOD_NAMES, Reply, Request

Message = Union[Request, Reply]

#: Frames above this size are refused — a corrupt length prefix must
#: not make a reader allocate gigabytes.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: First byte of every binary body.  0xB7 is not valid UTF-8 start
#: byte and can never begin a JSON document, so the decoder can always
#: tell the codecs apart from the first byte alone.
MAGIC = 0xB7

#: Body kinds (the byte after the magic).  1 and 2 are retired (a
#: sectioned layout of earlier builds) and refused as malformed.
KIND_BATCH = 3
KIND_FIXED_REQUEST = 4
KIND_FIXED_REPLY = 5

#: Batch header: magic, kind, number of sub-bodies.
_BATCH_HEADER = struct.Struct("!BBI")

#: Fixed-layout header: magic, kind, method id (requests) or reply
#: shape (replies), presence bitmap, call id, length of the string run.
_FIXED_HEADER = struct.Struct("!BBBIQH")

_BYTES_TAG = "__bytes_b64__"


class FrameError(Exception):
    """A malformed frame arrived (bad length, bad JSON, bad shape)."""


# ---------------------------------------------------------------------------
# JSON bodies — the fallback
# ---------------------------------------------------------------------------

def message_from_raw(raw: Dict[str, Any]) -> Message:
    """The one JSON-dict decoder both wire paths share.

    ``args`` handling is deliberately ``raw.get("args") or {}``: a
    ``null`` on the wire and a missing key both mean "no arguments",
    and having a single decoder is what keeps the streaming and the
    pull-style paths from diverging on cases like this again.
    """
    kind = raw.get("kind")
    if kind == "request":
        return Request(call_id=raw["call_id"], source=raw["source"],
                       method=raw["method"],
                       args=raw.get("args") or {},
                       trace=raw.get("trace"))
    if kind == "reply":
        return Reply(call_id=raw["call_id"], ok=raw["ok"],
                     value=raw.get("value"),
                     error_type=raw.get("error_type"),
                     error_detail=raw.get("error_detail"))
    raise FrameError(f"unknown frame kind {kind!r}")


def _json_default(value: Any) -> Any:
    """``json.dumps`` fallback: tag bytes, leave the rest to fail."""
    if isinstance(value, (bytes, bytearray)):
        return {_BYTES_TAG: base64.b64encode(bytes(value)).decode("ascii")}
    raise TypeError(f"cannot serialise {type(value).__name__} on the wire")


def _json_object_hook(value: Dict[str, Any]) -> Any:
    """``json.loads`` hook: restore tagged bytes in one C-driven pass."""
    if len(value) == 1 and _BYTES_TAG in value:
        return base64.b64decode(value[_BYTES_TAG])
    return value


#: Shared codec instances — ``json.dumps``/``loads`` with keyword
#: options construct a fresh encoder/decoder per call, which is pure
#: overhead on the frame hot path.
_ENCODER = json.JSONEncoder(separators=(",", ":"), default=_json_default)
_DECODER = json.JSONDecoder(object_hook=_json_object_hook)


def encode_json_body(message: Message) -> bytes:
    """One JSON body.

    The payload is not pre-walked: ``json.dumps`` descends into it
    natively and only bytes values detour through
    :func:`_json_default` (tuples become lists — every protocol call
    site unpacks sequences positionally).
    """
    if isinstance(message, Request):
        wire: Dict[str, Any] = {
            "kind": "request", "call_id": message.call_id,
            "source": message.source, "method": message.method,
            "args": message.args}
        if message.trace is not None:
            wire["trace"] = message.trace
    elif isinstance(message, Reply):
        wire = {"kind": "reply", "call_id": message.call_id,
                "ok": message.ok, "value": message.value,
                "error_type": message.error_type,
                "error_detail": message.error_detail}
    else:
        raise TypeError(f"cannot send {type(message).__name__} on the wire")
    return _ENCODER.encode(wire).encode("utf-8")


# ---------------------------------------------------------------------------
# Fixed binary layouts — one schema table, both directions
# ---------------------------------------------------------------------------

# Field kinds.  Strings join the message's string run, booleans and
# ints its struct, blobs and JSON values its tails.
_STR, _BOOL, _INT, _BLOB, _JSON = range(5)

#: Python types each kind carries exactly (``bool`` is not an ``int``
#: here: a flag in an int field is a different message).  ``None``: any
#: JSON-serialisable value.
_KIND_TYPES = {_STR: (str,), _BOOL: (bool,), _INT: (int,),
               _BLOB: (bytes, bytearray), _JSON: None}

#: The one arg schema the participant handlers share.  Int fields are
#: optional: ``None`` has its own presence bit and takes no struct slot.
_ARG_FIELDS = (
    ("txn", _STR), ("name", _STR), ("mode", _STR),
    ("read_data", _BOOL), ("release", _BOOL), ("detail", _BOOL),
    ("create", _BOOL), ("only_if_newer", _BOOL), ("one_phase", _BOOL),
    ("prepare", _BOOL),
    ("max_bytes", _INT), ("skip_version", _INT), ("version", _INT),
    ("answered", _INT),
    ("data", _BLOB), ("properties", _JSON),
)

#: Request bitmap bit: the string run carries a trace id and a span id
#: after the source.
_TRACE_BIT = 1 << 31

# Reply shapes: the values the participant handlers return.
_SHAPE_NONE = 1
_SHAPE_STR = 2
_SHAPE_INT = 3       # none since txn.read_version was retired
_SHAPE_STAT = 4      # txn.stat's dict
_SHAPE_PAIR = 5      # txn.read's (data, version)
_SHAPE_ERROR = 6     # a failure reply

_REPLY_SHAPES = {
    _SHAPE_NONE: (),
    _SHAPE_STR: (("value", _STR),),
    _SHAPE_INT: (("value", _INT),),
    _SHAPE_STAT: (("version", _INT), ("stamp", _INT), ("data", _BLOB),
                  ("truncated", _BOOL), ("properties", _JSON)),
    _SHAPE_PAIR: (("data", _BLOB), ("version", _INT)),
    _SHAPE_ERROR: (("error_type", _STR), ("error_detail", _STR)),
}

#: Compiled plans kept per schema and direction.  A full cache is
#: emptied before the next plan goes in, so a peer cycling bitmaps pays
#: for its own compiles and every bitmap in real use is cached again
#: after one message.
_PLAN_CACHE_LIMIT = 256


class _Plan:
    """Where each field of one presence bitmap lives in a body."""

    __slots__ = ("bitmap", "str_keys", "scalar_keys", "tails", "null_keys",
                 "scalars", "prefix", "run_at")

    def __init__(self, bitmap: int, str_keys: List[str],
                 scalar_keys: List[str], tails: List[Tuple[str, bool]],
                 null_keys: List[str], fmt: str) -> None:
        self.bitmap = bitmap
        self.str_keys = tuple(str_keys)
        self.scalar_keys = tuple(scalar_keys)
        #: ``(key, is_json)`` per tail, in body order.
        self.tails = tuple(tails)
        self.null_keys = tuple(null_keys)
        fmt += "I" * len(tails)
        #: The scalars, then one u32 length per tail.
        self.scalars = struct.Struct("!" + fmt)
        #: Header and scalars together: what the encoder packs at once.
        self.prefix = struct.Struct(_FIXED_HEADER.format + fmt)
        #: Where the string run starts.
        self.run_at = self.prefix.size


class _Schema:
    """A record layout: field -> presence bit, kind -> body section."""

    def __init__(self, fields: Tuple[Tuple[str, int], ...],
                 extra_bits: int = 0) -> None:
        self.order = fields
        self.fields: Dict[str, Tuple[int, int, Any]] = {}
        null_index = len(fields)
        mask = extra_bits
        for index, (key, kind) in enumerate(fields):
            null_bit = 0
            if kind == _INT:
                null_bit = 1 << null_index
                null_index += 1
            self.fields[key] = (1 << index, null_bit, _KIND_TYPES[kind])
            mask |= (1 << index) | null_bit
        self.mask = mask
        #: Plans by bitmap, one cache per direction: what this process
        #: sent, and what its peers sent.  Only the second is filled
        #: from bitmaps a peer chose, so no peer can evict the first.
        self.sent: Dict[int, _Plan] = {}
        self.received: Dict[int, _Plan] = {}

    def layout(self, record: Dict[str, Any]) -> Optional[_Plan]:
        """The plan ``record`` encodes with, or None when it does not
        fit the schema (an unknown key, a value of the wrong type)."""
        fields = self.fields
        bitmap = 0
        try:
            for key, value in record.items():
                bit, null_bit, types = fields[key]
                if types is None or type(value) in types:
                    bitmap |= bit
                elif value is None and null_bit:
                    bitmap |= null_bit
                else:
                    return None
        except KeyError:
            return None
        return self.sent.get(bitmap) or self.cache(self.sent, bitmap)

    def cache(self, plans: Dict[int, _Plan], bitmap: int) -> _Plan:
        """Compile the plan for ``bitmap`` into ``plans`` (callers look
        there first), emptying ``plans`` first when it is full."""
        plan = self.compile(bitmap)
        if len(plans) >= _PLAN_CACHE_LIMIT:
            plans.clear()
        plans[bitmap] = plan
        return plan

    def compile(self, bitmap: int) -> _Plan:
        """The plan for ``bitmap``; FrameError if no message of this
        schema has it."""
        if bitmap & ~self.mask:
            raise FrameError(f"presence bits {bitmap:#x} outside the schema")
        str_keys: List[str] = []
        scalar_keys: List[str] = []
        tails: List[Tuple[str, bool]] = []
        null_keys: List[str] = []
        fmt = ""
        for key, kind in self.order:
            bit, null_bit, _types = self.fields[key]
            if bitmap & null_bit:
                if bitmap & bit:
                    raise FrameError(f"field {key!r} both set and null")
                null_keys.append(key)
            elif not bitmap & bit:
                continue
            elif kind == _STR:
                str_keys.append(key)
            elif kind == _BOOL:
                scalar_keys.append(key)
                fmt += "?"
            elif kind == _INT:
                scalar_keys.append(key)
                fmt += "q"
            else:
                tails.append((key, kind == _JSON))
        return _Plan(bitmap, str_keys, scalar_keys, tails, null_keys, fmt)


_ARGS = _Schema(_ARG_FIELDS, extra_bits=_TRACE_BIT)
_REPLIES = {shape: _Schema(fields) for shape, fields in _REPLY_SHAPES.items()}


def _fixed_body(kind: int, meta: int, bitmap: int, call_id: int,
                strings: List[Any], plan: _Plan,
                record: Dict[str, Any]) -> Optional[bytes]:
    """Pack one fixed-layout body; None when a value does not fit.

    Body order: header and scalars (one ``struct``), the string run,
    the tails.  A run longer than the header's u16 length fails the
    pack, and a non-string in ``strings`` the join, which makes the
    message fall back like any other misfit.
    """
    field = record.__getitem__
    if plan.str_keys:
        strings.extend(map(field, plan.str_keys))
    if strings:
        text = "\0".join(strings)
        if text.count("\0") >= len(strings):
            return None                   # a NUL inside some string
        run = text.encode("utf-8")
    else:
        run = b""
    if not plan.tails:
        return plan.prefix.pack(MAGIC, kind, meta, bitmap, call_id,
                                len(run), *map(field, plan.scalar_keys)) + run
    values = list(map(field, plan.scalar_keys))
    tails = []
    for key, is_json in plan.tails:
        tail = record[key]
        if is_json:
            tail = _ENCODER.encode(tail).encode("utf-8")
        values.append(len(tail))
        tails.append(tail)
    return b"".join([plan.prefix.pack(MAGIC, kind, meta, bitmap, call_id,
                                      len(run), *values), run, *tails])


def _fixed_request(message: Request) -> Optional[bytes]:
    """The fixed-layout body of a request, or None to fall back."""
    method_id = METHOD_IDS.get(message.method)
    args = message.args
    if method_id is None or type(args) is not dict:
        return None
    plan = _ARGS.layout(args)
    if plan is None:
        return None
    trace = message.trace
    if trace is None:
        return _fixed_body(KIND_FIXED_REQUEST, method_id, plan.bitmap,
                           message.call_id, [message.source], plan, args)
    if type(trace) is not dict or len(trace) != 2:
        return None
    return _fixed_body(KIND_FIXED_REQUEST, method_id,
                       plan.bitmap | _TRACE_BIT, message.call_id,
                       [message.source, trace.get("trace_id"),
                        trace.get("span_id")], plan, args)


def _fixed_reply(message: Reply) -> Optional[bytes]:
    """The fixed-layout body of a reply, or None to fall back."""
    value = message.value
    if message.ok is True and message.error_type is None \
            and message.error_detail is None:
        cls = type(value)
        if cls is dict:
            shape, record = _SHAPE_STAT, value
        elif value is None:
            shape, record = _SHAPE_NONE, {}
        elif cls is str:
            shape, record = _SHAPE_STR, {"value": value}
        elif cls is int:
            shape, record = _SHAPE_INT, {"value": value}
        elif (cls is tuple or cls is list) and len(value) == 2:
            shape, record = _SHAPE_PAIR, {"data": value[0],
                                          "version": value[1]}
        else:
            return None
    elif message.ok is False and value is None:
        shape, record = _SHAPE_ERROR, {}
        if message.error_type is not None:
            record["error_type"] = message.error_type
        if message.error_detail is not None:
            record["error_detail"] = message.error_detail
    else:
        return None
    plan = _REPLIES[shape].layout(record)
    if plan is None:
        return None
    return _fixed_body(KIND_FIXED_REPLY, shape, plan.bitmap, message.call_id,
                       [], plan, record)


def _decode_fixed(body: memoryview, kind: int) -> Message:
    """Decode a fixed-layout body, validating every count and length."""
    _magic, _kind, meta, bitmap, call_id, run_len = \
        _FIXED_HEADER.unpack_from(body, 0)
    if kind == KIND_FIXED_REQUEST:
        method = METHOD_NAMES.get(meta)
        if method is None:
            raise FrameError(f"unknown method id {meta}")
        schema = _ARGS
        prefix = 3 if bitmap & _TRACE_BIT else 1
    else:
        schema = _REPLIES.get(meta)
        if schema is None:
            raise FrameError(f"unknown reply shape {meta}")
        prefix = 0
    plan = (schema.received.get(bitmap)
            or schema.cache(schema.received, bitmap))
    run_at = plan.run_at
    position = run_at + run_len
    size = len(body)
    if position > size:
        raise FrameError("fixed frame truncated before its tails")
    values = plan.scalars.unpack_from(body, _FIXED_HEADER.size)
    expected = prefix + len(plan.str_keys)
    if expected:
        strings = str(body[run_at:position], "utf-8").split("\0")
        if len(strings) != expected:
            raise FrameError(f"string run holds {len(strings)} strings, "
                             f"the layout {expected}")
        record = dict(zip(plan.str_keys, strings[prefix:]))
    elif run_len:
        raise FrameError("string run in a layout without strings")
    else:
        record = {}
    record.update(zip(plan.scalar_keys, values))
    for key in plan.null_keys:
        record[key] = None
    if plan.tails:
        index = len(plan.scalar_keys)
        for key, is_json in plan.tails:
            end = position + values[index]
            index += 1
            if end > size:
                raise FrameError("fixed frame truncated mid-tail")
            chunk = body[position:end]
            record[key] = (_DECODER.decode(str(chunk, "utf-8")) if is_json
                           else bytes(chunk))
            position = end
    if position != size:
        raise FrameError(f"fixed frame has {size - position} trailing bytes")
    # Positional construction: the dataclasses' keyword path costs more
    # than the rest of a small message's decode.
    if kind == KIND_FIXED_REQUEST:
        trace = ({"trace_id": strings[1], "span_id": strings[2]}
                 if prefix == 3 else None)
        return Request(call_id, strings[0], method, record, trace)
    if meta == _SHAPE_STAT:
        return Reply(call_id, True, record)
    if meta == _SHAPE_ERROR:
        return Reply(call_id, False, None, record.get("error_type"),
                     record.get("error_detail"))
    if meta == _SHAPE_PAIR:
        if "data" not in record or "version" not in record:
            raise FrameError("read reply without its data and version")
        return Reply(call_id, True, [record["data"], record["version"]])
    return Reply(call_id, True, record.get("value"))


# ---------------------------------------------------------------------------
# Binary bodies — the public entry points
# ---------------------------------------------------------------------------

#: What a value the codec cannot say raises while being encoded.
_MISFITS = (TypeError, ValueError, OverflowError, RecursionError,
            struct.error)


def encode_binary_body(message: Message) -> bytes:
    """One body: the fixed layout when the message fits it, a JSON body
    otherwise.

    Raises :class:`FrameError` when neither can say the message (an
    arg of no JSON type, a circular value) or its body would exceed
    :data:`MAX_FRAME_BYTES`; both runtimes drop such a message and
    count it, as a datagram network would have lost it.
    """
    cls = type(message)
    try:
        body = (_fixed_request(message) if cls is Request
                else _fixed_reply(message) if cls is Reply else None)
    except _MISFITS:
        # Unserialisable properties, surrogates, ints past 64 bits: the
        # JSON body says (or refuses) them instead.
        body = None
    if body is None:
        try:
            body = encode_json_body(message)
        except _MISFITS as exc:
            raise FrameError(f"cannot encode {cls.__name__}: {exc}") \
                from None
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(f"body of {len(body)} bytes exceeds limit")
    return body


def encode_batch_body(bodies: List[bytes]) -> bytes:
    """Pack several frame bodies into one batch body."""
    parts = [_BATCH_HEADER.pack(MAGIC, KIND_BATCH, len(bodies))]
    for body in bodies:
        parts.append(len(body).to_bytes(4, "big"))
        parts.append(body)
    return b"".join(parts)


def _decode_batch(body: memoryview) -> List[Message]:
    """The messages of a batch body, each sub-body decoded in place."""
    _magic, _kind, count = _BATCH_HEADER.unpack_from(body, 0)
    offset = _BATCH_HEADER.size
    messages: List[Message] = []
    for _ in range(count):
        if offset + 4 > len(body):
            raise FrameError("batch frame truncated")
        sub_len = int.from_bytes(body[offset:offset + 4], "big")
        offset += 4
        if offset + sub_len > len(body):
            raise FrameError("batch frame truncated")
        messages.append(_decode_message(body[offset:offset + sub_len]))
        offset += sub_len
    return messages


def _decode_message(body: memoryview) -> Message:
    """The message of one non-batch body.  A batch here is a batch
    inside a batch, which no encoder produces: refused."""
    if body[0] == MAGIC:
        kind = body[1]
        if kind == KIND_FIXED_REQUEST or kind == KIND_FIXED_REPLY:
            return _decode_fixed(body, kind)
        if kind == KIND_BATCH:
            raise FrameError("batch frame inside a batch frame")
        raise FrameError(f"unknown binary frame kind {kind}")
    return message_from_raw(_DECODER.decode(bytes(body).decode("utf-8")))


# ---------------------------------------------------------------------------
# The one decode path
# ---------------------------------------------------------------------------

def decode_wire_body(body: Union[bytes, bytearray, memoryview],
                     ) -> List[Message]:
    """Decode one body into its messages.

    The sim host and both live readers call this, so there is exactly
    one place message shape is decided.  Whatever is wrong with the
    body — a JSON value nested deeper than the interpreter recurses
    included — surfaces as :class:`FrameError`.
    """
    view = memoryview(body)
    if len(view) == 0:
        raise FrameError("empty frame")
    try:
        if view[0] == MAGIC and view[1] == KIND_BATCH:
            return _decode_batch(view)
        return [_decode_message(view)]
    except FrameError:
        raise
    except RecursionError as exc:
        raise FrameError("malformed frame: nested too deeply") from exc
    except (ValueError, KeyError, TypeError, AttributeError, IndexError,
            OverflowError, struct.error) as exc:
        raise FrameError(f"malformed frame: {exc}") from exc


def encode_frame(message: Message) -> bytes:
    """One complete wire frame: 4-byte big-endian length + body.

    Raises :class:`FrameError` as :func:`encode_binary_body` does.
    """
    body = encode_binary_body(message)
    return len(body).to_bytes(4, "big") + body
