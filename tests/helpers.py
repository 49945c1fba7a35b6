"""Shared helpers for tests (importable, unlike conftest)."""

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


def assert_pages_balanced(fs) -> None:
    """Every page is free or reachable from the root (root, bucket
    chains, file chains, shadow chains of intention rows), none both."""
    reachable = [0]
    for bucket in fs._buckets:
        reachable += bucket.pages
    for pages in (*fs._file_pages.values(), *fs._intent_pages.values()):
        reachable += pages
    assert len(set(reachable)) == len(reachable), "a page is reachable twice"
    assert not set(reachable) & set(fs._free), "a page is free and reachable"
    assert len(reachable) + len(fs._free) == fs.store.num_pages


def watch_requests(bed):
    """Every RPC request put on ``bed``'s wire from now on, appended
    live to the returned list as ``(destination, request)``."""
    from repro.rpc.messages import Request
    seen = []
    send = bed.network.send

    def watching_send(source, destination, payload):
        if isinstance(payload, Request):
            seen.append((destination, payload))
        send(source, destination, payload)

    bed.network.send = watching_send
    return seen
