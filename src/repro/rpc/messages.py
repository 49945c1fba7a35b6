"""RPC wire messages.

Requests and replies are plain dataclasses.  Both runtimes encode them
into wire bodies (:mod:`repro.rpc.codec`) when sent and decode them on
arrival, so a "remote" call never shares mutable state with its caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

#: Well-known protocol methods, assigned stable one-byte ids so the
#: binary wire codec can carry the method in its packed header instead
#: of as an inline string.  Ids are append-only: once shipped, an id's
#: meaning never changes (a renumbered registry would make mixed-fleet
#: frames decode to the wrong handler).  Methods outside this table —
#: tests, experiments — still work: they travel as JSON bodies, the
#: name inline.
METHOD_IDS: Dict[str, int] = {
    "txn.read": 1,
    # 2 was txn.read_version (superseded by txn.stat): retired, never reused.
    "txn.stat": 3,
    "txn.stage_write": 4,
    "txn.stage_delete": 5,
    "txn.prepare": 6,
    "txn.commit": 7,
    "txn.abort": 8,
}

#: Inverse of :data:`METHOD_IDS` (id -> method name).
METHOD_NAMES: Dict[int, str] = {
    method_id: name for name, method_id in METHOD_IDS.items()}


@dataclass(frozen=True)
class Request:
    """A remote procedure call request.

    ``trace`` is optional observability metadata (a serialised
    :class:`~repro.obs.spans.TraceContext`): when present, the server
    parents its handler span to the caller's span, stitching the two
    processes into one causal trace.  It rides outside ``args`` so
    handlers never see it.
    """

    call_id: int
    source: str
    method: str
    args: Dict[str, Any] = field(default_factory=dict)
    trace: Optional[Dict[str, str]] = None


@dataclass(frozen=True)
class Reply:
    """The response to a :class:`Request`.

    ``ok`` distinguishes a successful result from a remote exception.
    For failures, ``error_type`` carries the exception class name so the
    client can re-raise a typed error, and ``error_detail`` the message.

    ``value`` is method-defined and may be *bulk*: a ``txn.stat``
    request carrying ``read_data=True`` answers with a dict that also
    holds the file's ``data`` bytes (the single-round-trip read fast
    path), so a reply is no longer guaranteed to be inquiry-sized.
    Both runtimes already account for that — the fixed wire layout
    carries the bytes raw, and the simulated network charges the wire
    body's length in per-byte transmission time — but anything
    reasoning about message sizes (accounting tests, frame limits)
    must treat stat replies as potentially data-bearing.
    """

    call_id: int
    ok: bool
    value: Any = None
    error_type: Optional[str] = None
    error_detail: Optional[str] = None

    @classmethod
    def success(cls, call_id: int, value: Any) -> "Reply":
        return cls(call_id=call_id, ok=True, value=value)

    @classmethod
    def failure(cls, call_id: int, exception: BaseException) -> "Reply":
        return cls(call_id=call_id, ok=False,
                   error_type=type(exception).__name__,
                   error_detail=str(exception))
