"""Output verification: self-describing payloads and a register checker.

Every payload the benchmark writes names the suite it belongs to, who
wrote it and that writer's sequence number, and carries a CRC over all
of it, so a read can be checked without knowing which write it should
see.  :class:`Checker` then holds each suite to the behaviour of an
atomic versioned register, using only what the client observed.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Tuple

#: Writer name on the payload each suite is installed with (version 1).
INSTALLER = "init"

_SEPARATOR = b"|"


class PayloadError(ValueError):
    """A payload that does not decode or fails its CRC."""


def encode_payload(suite: str, writer: str, seq: int, size: int,
                   filler: bytes) -> bytes:
    """``suite|writer|seq|crc32|filler`` padded to exactly ``size`` bytes.

    The filler is a ``seq``-dependent slice of ``filler`` (at least
    ``2 * size`` random bytes), so successive payloads differ in every
    page of a chain; the CRC covers the header fields and the filler.
    """
    head = f"{suite}|{writer}|{seq}|".encode("ascii")
    room = size - len(head) - 9          # 8 hex digits + separator
    if room < 0:
        raise ValueError(f"payload size {size} too small for its header")
    offset = (seq * 131) % (len(filler) - room + 1)
    body = filler[offset:offset + room]
    crc = zlib.crc32(body, zlib.crc32(head))
    return head + b"%08x|" % crc + body


def decode_payload(data: bytes) -> Tuple[str, str, int]:
    """Return ``(suite, writer, seq)``; raise :class:`PayloadError`."""
    parts = data.split(_SEPARATOR, 4)
    if len(parts) != 5:
        raise PayloadError("payload has fewer than five fields")
    suite, writer, seq, crc, body = parts
    head = suite + _SEPARATOR + writer + _SEPARATOR + seq + _SEPARATOR
    try:
        expected = int(crc, 16)
        number = int(seq)
    except ValueError as exc:
        raise PayloadError(f"payload header does not parse: {exc}") from exc
    if zlib.crc32(body, zlib.crc32(head)) != expected:
        raise PayloadError("payload fails its crc32")
    return suite.decode("ascii"), writer.decode("ascii"), number


class Checker:
    """Holds every suite to an atomic versioned register.

    Rules, all from client-side observations:

    * a read decodes, passes its CRC and names the suite it was read from;
    * an operation issued after another completed sees at least that
      operation's version (a write strictly more) — which includes "a
      client's versions never go backwards" and "a read sees every
      write acknowledged before it was issued";
    * one version of a suite always carries one payload identity;
    * after quiescing, ``final version == 1 + committed writes`` with
      ``acknowledged <= committed <= attempted``.
    """

    def __init__(self, suite_names: List[str]) -> None:
        self.suite_names = suite_names
        count = len(suite_names)
        #: Highest version any completed operation has observed.
        self.seen = [1] * count
        self.attempted_writes = [0] * count
        self.acked_writes = [0] * count
        self._identity: List[Dict[int, Tuple[str, int]]] = [
            {1: (INSTALLER, 0)} for _ in range(count)]
        self.violations: List[str] = []

    def _violation(self, text: str) -> bool:
        if len(self.violations) < 100:
            self.violations.append(text)
        return False

    def _bind(self, suite: int, version: int,
              identity: Tuple[str, int]) -> bool:
        known = self._identity[suite].setdefault(version, identity)
        if known != identity:
            return self._violation(
                f"{self.suite_names[suite]} v{version} carries "
                f"{identity} but was {known}")
        return True

    def issue(self, suite: int, is_write: bool) -> int:
        """Note an operation is about to be issued; returns its floor."""
        if is_write:
            self.attempted_writes[suite] += 1
        return self.seen[suite]

    def read_done(self, suite: int, floor: int, version: int,
                  data: bytes) -> bool:
        name = self.suite_names[suite]
        try:
            owner, writer, seq = decode_payload(data)
        except PayloadError as exc:
            return self._violation(f"{name} v{version}: {exc}")
        ok = True
        if owner != name:
            ok = self._violation(f"read of {name} returned {owner}'s data")
        if version < floor:
            ok = self._violation(
                f"{name}: read v{version} after v{floor} was observed")
        ok = self._bind(suite, version, (writer, seq)) and ok
        if version > self.seen[suite]:
            self.seen[suite] = version
        return ok

    def write_done(self, suite: int, floor: int, version: int,
                   writer: str, seq: int) -> bool:
        self.acked_writes[suite] += 1
        ok = True
        if version <= floor:
            ok = self._violation(
                f"{self.suite_names[suite]}: write got v{version} after "
                f"v{floor} was observed")
        ok = self._bind(suite, version, (writer, seq)) and ok
        if version > self.seen[suite]:
            self.seen[suite] = version
        return ok

    def final(self, suite: int, version: int, data: bytes) -> bool:
        """Check the quiesced state of one suite."""
        ok = self.read_done(suite, self.seen[suite], version, data)
        committed = version - 1
        if not (self.acked_writes[suite] <= committed
                <= self.attempted_writes[suite]):
            ok = self._violation(
                f"{self.suite_names[suite]}: final v{version} with "
                f"{self.acked_writes[suite]} acknowledged and "
                f"{self.attempted_writes[suite]} attempted writes")
        return ok
