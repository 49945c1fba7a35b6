"""Careful and stable storage over raw pages.

Two classic constructions (Lampson & Sturgis), which Gifford's stable
file system assumes:

* **Careful storage** (:class:`CarefulStore`) adds a CRC to every page,
  so decayed or torn pages are *detected* on read
  (:class:`~repro.errors.PageCorruptError`) instead of returning
  garbage.

* **Stable storage** (:class:`StableStore`) duplexes every logical page
  onto two careful pages written in a fixed order.  A single decay, or
  a crash between the two writes, is *masked*: reads fall back to the
  surviving copy, and :meth:`StableStore.recover` (run at server
  restart) re-establishes the invariant that both copies are good and
  identical — always preferring the primary, which is written first, so
  a half-completed write behaves as if it either fully happened or
  never happened at the pair level.
"""

from __future__ import annotations

import struct
import zlib

from ..errors import PageCorruptError
from .pages import PageStore

# Careful page layout: 4-byte CRC32 + 4-byte payload length + payload.
_HEADER = struct.Struct("<II")
_pack_header = _HEADER.pack


class CarefulStore:
    """Checksummed pages: corruption is detected, not masked."""

    def __init__(self, pages: PageStore) -> None:
        self.pages = pages
        self.num_pages = pages.num_pages
        #: Usable bytes per page after the checksum header.
        self.payload_size = pages.page_size - _HEADER.size

    def write(self, address: int, payload: bytes) -> None:
        size = len(payload)
        if size > self.payload_size:
            raise ValueError(
                f"payload of {size} bytes exceeds careful-page "
                f"capacity {self.payload_size}")
        self.pages.write(address,
                         _pack_header(zlib.crc32(payload), size) + payload)

    def read(self, address: int) -> bytes:
        raw = self.pages.read(address)
        if len(raw) < _HEADER.size:
            raise PageCorruptError(f"page {address}: short page")
        crc, length = _HEADER.unpack_from(raw)
        payload = raw[_HEADER.size:_HEADER.size + length]
        if len(payload) != length or zlib.crc32(payload) != crc:
            raise PageCorruptError(f"page {address}: checksum mismatch")
        return payload

    def is_good(self, address: int) -> bool:
        try:
            self.read(address)
        except PageCorruptError:
            return False
        return True


class StableStore:
    """Duplexed careful pages: single faults are masked.

    One logical page maps to the same address in a *primary* and a
    *shadow* careful store.  Writes go primary-then-shadow; reads prefer
    the primary and fall back to the shadow.  :meth:`recover` repairs
    any pair left inconsistent by a crash or decay.
    """

    def __init__(self, primary: CarefulStore, shadow: CarefulStore) -> None:
        if primary.num_pages != shadow.num_pages:
            raise ValueError("primary and shadow must have equal page counts")
        self.primary = primary
        self.shadow = shadow
        self.num_pages = primary.num_pages
        self.payload_size = primary.payload_size

    @classmethod
    def create(cls, num_pages: int, page_size: int = 512,
               name: str = "disk") -> "StableStore":
        """Build a stable store over two fresh raw page stores."""
        return cls(
            CarefulStore(PageStore(num_pages, page_size, f"{name}.primary")),
            CarefulStore(PageStore(num_pages, page_size, f"{name}.shadow")),
        )

    # -- the stable write is two separate steps so a crash can land
    # -- between them; write() performs both for callers that do not
    # -- need a crash window.

    def write_primary(self, address: int, payload: bytes) -> None:
        self.primary.write(address, payload)

    def write_shadow(self, address: int, payload: bytes) -> None:
        self.shadow.write(address, payload)

    def write(self, address: int, payload: bytes) -> None:
        """Full stable write: primary then shadow."""
        self.write_primary(address, payload)
        self.write_shadow(address, payload)

    def read(self, address: int) -> bytes:
        """Read a logical page, masking a single-copy fault."""
        try:
            return self.primary.read(address)
        except PageCorruptError:
            return self.shadow.read(address)

    def recover(self) -> int:
        """Repair all page pairs; returns the number repaired.

        For each pair: if exactly one copy is corrupt, overwrite it from
        the good copy; if both are good but differ (crash between the
        two writes), the primary — written first, hence newer — wins.
        Both copies corrupt is an unmaskable double fault and raises.
        """
        repaired = 0
        for address in range(self.num_pages):
            if (not self.primary.pages.read(address)
                    and not self.shadow.pages.read(address)):
                continue  # never written: blank pair is consistent
            primary_good = self.primary.is_good(address)
            shadow_good = self.shadow.is_good(address)
            if primary_good and shadow_good:
                if self.primary.read(address) != self.shadow.read(address):
                    self.shadow.write(address, self.primary.read(address))
                    repaired += 1
            elif primary_good:
                self.shadow.write(address, self.primary.read(address))
                repaired += 1
            elif shadow_good:
                self.primary.write(address, self.shadow.read(address))
                repaired += 1
            else:
                raise PageCorruptError(
                    f"page {address}: both copies corrupt (double fault)")
        return repaired
