"""Client-resident weak representatives.

The paper notes that a weak representative can live anywhere the data
is useful — including in a workstation's own memory as a *temporary*
copy.  :class:`CachingSuiteClient` implements exactly that: it keeps
the last data it observed and, on a read, offers its version to the
inquiry (the fast path's ``skip_version``).  When the cached version is
still current, the data transfer is skipped entirely — and when it is
stale, the current bytes ride back on the same inquiry reply, so a
cache *miss* costs one round trip, not an inquiry plus a data fetch.

Consistency is identical to a normal read: the inquiry takes shared
locks on a read quorum, so the moment it completes the cached value is
provably the current committed state — the same argument that lets any
weak representative serve a read.  A cache, like any weak
representative, holds no votes and can never affect availability.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Tuple

from .suite import FileSuiteClient, ReadResult, WriteResult


class CachingSuiteClient(FileSuiteClient):
    """A suite client with an in-process weak representative."""

    #: The ``(version, data)`` this client last read or wrote, if any.
    _cached: Optional[Tuple[int, bytes]] = None

    # ------------------------------------------------------------------

    @property
    def cached_version(self) -> Optional[int]:
        return self._cached[0] if self._cached else None

    def invalidate(self) -> None:
        """Drop the cached copy (e.g. on reconnection)."""
        self._cached = None

    # ------------------------------------------------------------------

    def _read_cache(self) -> Optional[Tuple[int, bytes]]:
        # Consulted by FileSuiteClient._read_once: the read serves
        # from here (served_by "client-cache") whenever the inquiry
        # proves this version current, and passes the version as
        # ``skip_version`` so a current copy is never re-shipped.
        return self._cached

    def read(self) -> Generator[Any, Any, ReadResult]:
        """Read, serving the data locally when the cache is current.

        A cache hit is no separate path: the base read's inquiry decides
        currency and fills in the quorum, observed versions and attempt
        count either way, so a hit carries the same evidence as any read.
        """
        had_cache = self._cached is not None
        result = yield from super().read()
        if result.served_by == "client-cache":
            self.metrics.counter("cache.hits").increment()
        else:
            if had_cache:
                self.metrics.counter("cache.misses").increment()
            self._cached = (result.version, bytes(result.data))
        return result

    def write(self, data: bytes) -> Generator[Any, Any, WriteResult]:
        """Write through: the cache holds the value we just committed."""
        result = yield from super().write(data)
        self._cached = (result.version, bytes(data))
        return result
