#!/usr/bin/env python3
"""Bootstrapping clients: a replicated directory of suites.

How does a client learn a suite's configuration in the first place?
The same way Violet names files: from a *directory* that is itself a
replicated file suite.  This example builds a directory, registers two
application suites with different tunings, boots a fresh client from
nothing but the directory's configuration, and shows that a directory
entry left stale by a reconfiguration still works (the client adopts
the newer configuration from the suite's own representatives).

It also demonstrates client-resident weak representatives
(`CachingSuiteClient`): after one read, repeat reads cost only a
version-number inquiry.

Run:  python examples/directory_bootstrap.py
"""

from repro import Testbed, change_configuration, make_configuration
from repro.core import CachingSuiteClient
from repro.directory import SuiteDirectory, empty_directory_data


def main() -> None:
    bed = Testbed(servers=["s1", "s2", "s3"], clients=["admin", "app"])
    hints = {"s1": 10.0, "s2": 20.0, "s3": 30.0}

    # The directory itself is a suite — replication all the way down.
    directory_config = make_configuration(
        "__directory__", [("s1", 1), ("s2", 1), ("s3", 1)], 2, 2,
        latency_hints=hints)
    admin_directory = SuiteDirectory(
        bed.install(directory_config, empty_directory_data(),
                    client="admin"))

    # Register two application suites with different tunings.
    orders = make_configuration(
        "orders", [("s1", 1), ("s2", 1), ("s3", 1)], 2, 2,
        latency_hints=hints)
    sessions = make_configuration(
        "sessions", [("s1", 2), ("s2", 1), ("s3", 1)], 2, 3,
        latency_hints=hints)

    def setup():
        yield from admin_directory.bind(orders)
        yield from admin_directory.bind(sessions)
        names = yield from admin_directory.list_suites()
        print(f"directory holds: {names}")

    bed.install(orders, b"order-log-v1", client="admin")
    bed.install(sessions, b"session-table-v1", client="admin")
    bed.run(setup())

    # A brand-new client knows only the directory configuration.
    app_directory = SuiteDirectory(
        bed.suite(directory_config, client="app"))

    def app_flow():
        orders_suite = yield from app_directory.open_suite("orders")
        result = yield from orders_suite.read()
        print(f"app bootstrapped 'orders' -> {result.data!r} "
              f"(r={orders_suite.config.read_quorum}, "
              f"w={orders_suite.config.write_quorum})")

        # Admin retunes 'orders' but forgets to update the directory...
        retuned = orders.evolve(read_quorum=1, write_quorum=3)
        admin_handle = bed.suite(orders, client="admin")
        yield from change_configuration(admin_handle, retuned)
        print("admin reconfigured 'orders' to r=1/w=3 "
              "(directory entry now stale)")

        # ...a later bootstrap still works: the stale entry reaches the
        # representatives, whose stamp reveals the newer configuration.
        fresh = yield from app_directory.open_suite("orders")
        result = yield from fresh.read()
        print(f"fresh client via stale entry -> {result.data!r}, "
              f"adopted config v{fresh.config.config_version} "
              f"(r={fresh.config.read_quorum})")

    bed.run(app_flow())

    # Client-side weak representative: repeat reads skip the transfer.
    cached = CachingSuiteClient(bed.clients["app"].manager, sessions)

    def cached_reads():
        for _ in range(4):
            result = yield from cached.read()
        return result.served_by

    served_by = bed.run(cached_reads())
    hits = bed.metrics.counter("cache.hits").value
    print(f"\n4 cached-client reads of 'sessions': last served by "
          f"{served_by!r}, {hits} cache hits "
          "(each hit cost one version inquiry, no data transfer)")


if __name__ == "__main__":
    main()
