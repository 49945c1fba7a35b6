"""Shared helpers for tests (importable, unlike conftest)."""

import json

from repro.core.votes import Representative, SuiteConfiguration


def triple_config(name: str = "db", votes=(1, 1, 1), r: int = 2,
                  w: int = 2, latencies=(10.0, 20.0, 30.0),
                  ) -> SuiteConfiguration:
    """A suite over s1..s3 with the given vote/latency shape."""
    reps = tuple(
        Representative(rep_id=f"rep-{i + 1}", server=f"s{i + 1}",
                       votes=v, latency_hint=lat)
        for i, (v, lat) in enumerate(zip(votes, latencies)))
    return SuiteConfiguration(suite_name=name, representatives=reps,
                              read_quorum=r, write_quorum=w)


def write_in_quorum(suite, data: bytes):
    """A write that stages at the cheapest write quorum only — one
    ``write_in`` run through the suite's attempt loop — so every
    representative outside that quorum is left behind and handed to
    the refresher.  (A suite ``write()`` stages at every voting
    representative.)"""
    return suite.transact(lambda txn: suite.write_in(txn, data))


def reference_bucket_encoding(bucket) -> bytes:
    """A directory bucket's bytes, encoded from scratch as the on-disk
    format defines them."""
    if not bucket.files and not bucket.rows:
        return b""
    return json.dumps(
        [[bucket.files[name].to_json() for name in sorted(bucket.files)],
         [row.to_json() for row in bucket.rows]],
        separators=(",", ":")).encode()


def assert_image_current(fs) -> None:
    """The file system's in-memory directory image equals a full
    recompute: the root's head list and every bucket's encoding."""
    assert fs._heads == [bucket.pages[0] if bucket.pages else -1
                         for bucket in fs._buckets], "a stale root head"
    for bucket in fs._buckets:
        assert bucket.encode() == reference_bucket_encoding(bucket), \
            "a stale bucket fragment"


def assert_pages_balanced(fs) -> None:
    """Every page is free or reachable from the root (root, bucket
    chains, file chains, shadow chains of intention rows), none both;
    and the directory image is current (:func:`assert_image_current`)."""
    assert_image_current(fs)
    reachable = [0]
    for bucket in fs._buckets:
        reachable += bucket.pages
    for pages in (*fs._file_pages.values(), *fs._intent_pages.values()):
        reachable += pages
    assert len(set(reachable)) == len(reachable), "a page is reachable twice"
    assert not set(reachable) & set(fs._free), "a page is free and reachable"
    assert len(reachable) + len(fs._free) == fs.store.num_pages


def wire_message(body):
    """The message in a wire body a tapped ``network.send`` carried."""
    from repro.rpc.codec import decode_wire_body
    (message,) = decode_wire_body(body)
    return message


def sized_message(size):
    """A reply whose wire body is exactly ``size`` bytes (size >= 21)."""
    from repro.rpc.codec import encode_binary_body
    from repro.rpc.messages import Reply
    overhead = len(encode_binary_body(Reply.success(0, {"data": b""})))
    return Reply.success(0, {"data": b"x" * (size - overhead)})


def watch_requests(bed):
    """Every RPC request put on ``bed``'s wire from now on, appended
    live to the returned list as ``(destination, request)``."""
    from repro.rpc.messages import Request
    seen = []
    send = bed.network.send

    def watching_send(source, destination, body):
        message = wire_message(body)
        if isinstance(message, Request):
            seen.append((destination, message))
        send(source, destination, body)

    bed.network.send = watching_send
    return seen
