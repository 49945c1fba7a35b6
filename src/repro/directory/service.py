"""A replicated directory of file suites.

Clients need a suite's configuration (members, votes, quorums) before
they can gather their first quorum — a bootstrap problem the paper
solves the same way Violet names files: the naming data is *itself* a
replicated file.  A :class:`SuiteDirectory` stores a map of suite name
→ configuration inside an ordinary file suite, so the directory gets
replication, availability tuning and serializable updates from the same
machinery it describes.

Staleness is benign by construction: a directory entry only needs to be
good enough to reach *some* quorum of the named suite — if the suite
was reconfigured since the entry was written, the client discovers the
newer configuration through the stamp check on its first operation and
adopts it (see :mod:`repro.core.reconfig`).  ``bind`` after a
reconfiguration keeps the directory fresh for brand-new clients.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Generator, List, Optional

from ..core.suite import FileSuiteClient
from ..core.votes import SuiteConfiguration
from ..errors import ReproError
from ..txn.coordinator import TransactionManager


class DirectoryError(ReproError):
    """Directory-level failures (unknown names, duplicate binds)."""


def encode_directory(entries: Dict[str, Dict[str, Any]]) -> bytes:
    return json.dumps(entries, sort_keys=True,
                      separators=(",", ":")).encode()


def decode_directory(blob: bytes,
                     suite_name: Optional[str] = None,
                     ) -> Dict[str, Dict[str, Any]]:
    """Decode a directory page; corrupt pages fail at directory level.

    A truncated or garbled page surfaces as a :class:`DirectoryError`
    naming the directory suite and the byte offset of the damage, not
    as a raw ``json.JSONDecodeError`` — callers of the directory see
    directory failures, whatever layer produced them.
    """
    if not blob:
        return {}
    where = (f"directory suite {suite_name!r}" if suite_name
             else "directory page")
    try:
        text = blob.decode()
    except UnicodeDecodeError as exc:
        raise DirectoryError(
            f"corrupt {where}: invalid UTF-8 at offset "
            f"{exc.start}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DirectoryError(
            f"corrupt {where}: {exc.msg} at offset {exc.pos} "
            f"(page is {len(blob)} bytes)") from exc


def empty_directory_data() -> bytes:
    """Initial contents for a fresh directory suite."""
    return encode_directory({})


class SuiteDirectory:
    """Name → configuration bindings stored in a file suite."""

    def __init__(self, suite: FileSuiteClient) -> None:
        self.suite = suite

    @property
    def name(self) -> str:
        """The directory's own suite name (for error context)."""
        return self.suite.config.suite_name

    @property
    def manager(self) -> TransactionManager:
        return self.suite.manager

    # ------------------------------------------------------------------
    # Updates (read-modify-write transactions)
    # ------------------------------------------------------------------

    def bind(self, config: SuiteConfiguration,
             replace: bool = True) -> Generator[Any, Any, None]:
        """Register (or update) the configuration for its suite name."""
        def mutate(txn):
            current = yield from self.suite.read_in(txn, for_update=True)
            entries = decode_directory(current.data, self.name)
            if not replace and config.suite_name in entries:
                raise DirectoryError(
                    f"suite {config.suite_name!r} is already bound")
            existing = entries.get(config.suite_name)
            if existing is not None and \
                    existing["config_version"] > config.config_version:
                raise DirectoryError(
                    f"directory already holds a newer configuration "
                    f"(v{existing['config_version']}) for "
                    f"{config.suite_name!r}")
            entries[config.suite_name] = config.to_json()
            yield from self.suite.write_in(txn,
                                           encode_directory(entries))
            return None

        yield from self.suite.transact(mutate)

    def unbind(self, suite_name: str) -> Generator[Any, Any, None]:
        """Remove a binding; unknown names raise."""
        def mutate(txn):
            current = yield from self.suite.read_in(txn, for_update=True)
            entries = decode_directory(current.data, self.name)
            if suite_name not in entries:
                raise DirectoryError(f"no suite bound as {suite_name!r}")
            del entries[suite_name]
            yield from self.suite.write_in(txn,
                                           encode_directory(entries))
            return None

        yield from self.suite.transact(mutate)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def lookup(self, suite_name: str, parent=None,
               ) -> Generator[Any, Any, SuiteConfiguration]:
        """The bound configuration for ``suite_name``.

        ``parent`` (a span or trace context) stitches the underlying
        directory-suite read into the caller's trace instead of opening
        a fresh one.
        """
        result = yield from self.suite.read(parent=parent)
        entries = decode_directory(result.data, self.name)
        raw = entries.get(suite_name)
        if raw is None:
            raise DirectoryError(f"no suite bound as {suite_name!r}")
        return SuiteConfiguration.from_json(raw)

    def list_suites(self) -> Generator[Any, Any, List[str]]:
        result = yield from self.suite.read()
        return sorted(decode_directory(result.data, self.name))

    def open_suite(self, suite_name: str, parent=None,
                   **suite_kwargs: Any,
                   ) -> Generator[Any, Any, FileSuiteClient]:
        """Look a suite up and return a ready client handle for it.

        The handle shares this directory's transaction manager, and
        with it the client's metrics, tracer, breakers, flight recorder
        and random streams; it defaults to the directory's refresher.
        Other :class:`FileSuiteClient` options go in ``suite_kwargs``.
        """
        config = yield from self.lookup(suite_name, parent=parent)
        suite_kwargs.setdefault("refresher", self.suite.refresher)
        return FileSuiteClient(self.manager, config, **suite_kwargs)
