#!/usr/bin/env python3
"""Weak representatives: caching without giving up consistency.

Reproduces the scenario of the paper's Example 1: one voting
representative on a (slow) file server plus a zero-vote *weak*
representative on the client's fast local server.  Reads check currency
with a cheap version-number inquiry and then serve the data from the
local cache; writes invalidate it, and the background refresher brings
it current again.

Run:  python examples/weak_representative_cache.py
"""

from repro.core import Representative, SuiteConfiguration
from repro.testbed import Testbed

DATA = b"x" * 8_192


def timed(bed, operation):
    start = bed.sim.now
    result = yield from operation
    return bed.sim.now - start, result


def main() -> None:
    bed = Testbed(servers=["file-server", "local-server"])
    # The file server is across the building network: moving the file
    # takes ~75 ms.  The local server is next to the client: ~5 ms.
    bed.set_client_link("client", "file-server", 1.0,
                        byte_time=73.0 / len(DATA))
    bed.set_client_link("client", "local-server", 0.5,
                        byte_time=4.0 / len(DATA))

    config = SuiteConfiguration(
        suite_name="cached-file",
        representatives=(
            Representative("master", "file-server", votes=1,
                           latency_hint=75.0),
            Representative("cache", "local-server", votes=0,
                           latency_hint=5.0),
        ),
        read_quorum=1, write_quorum=1)

    # A silent local cache costs a short grace (twice the larger of the
    # master's answer time and the cache's latency hint), never the full
    # (wide-area) inquiry timeout.
    suite = bed.install(config, DATA)

    latency, read = bed.run(timed(bed, suite.read()))
    print(f"warm read : {latency:6.1f} ms  served by {read.served_by!r} "
          "(local cache, verified current by a version inquiry)")

    # A write goes to the voting representative only; the weak cache is
    # now stale and must not serve the read...
    bed.run(timed(bed, suite.write(b"y" * len(DATA))))
    suite.refresher.enabled = False
    latency, read = bed.run(timed(bed, suite.read()))
    print(f"stale read: {latency:6.1f} ms  served by {read.served_by!r} "
          "(cache stale -> master serves, correctness kept)")

    # ...until the background refresher brings it current again.
    suite.refresher.enabled = True
    suite.refresher.schedule(suite, ["cache"], read.version)
    bed.settle()
    latency, read = bed.run(timed(bed, suite.read()))
    print(f"re-warmed : {latency:6.1f} ms  served by {read.served_by!r} "
          "(refresher copied the new version to the cache)")

    # The weak representative never blocks anything: kill it entirely.
    bed.crash("local-server")
    latency, read = bed.run(timed(bed, suite.read()))
    print(f"cache down: {latency:6.1f} ms  served by {read.served_by!r} "
          "(weak reps hold no votes, so no quorum was lost)")

    hits = bed.metrics.counter("suite.weak_reads").value
    print(f"\nweak-representative cache hits this run: {hits}")


if __name__ == "__main__":
    main()
