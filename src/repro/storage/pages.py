"""Raw page store: the disk model underneath stable storage.

A :class:`PageStore` is a fixed array of byte pages.  It is *unreliable*
in exactly the ways the stable-storage construction (Lampson & Sturgis,
as used by Gifford's stable file system) is designed to mask:

* a page may *decay* — its bytes change spontaneously;
* a write may be *torn* — a crash during a write leaves garbage.

Corruption is injected explicitly (``decay``/``tear``), never randomly,
so tests are deterministic.  Checksums live one layer up, in the careful
store: this layer faithfully returns whatever bytes are on the platter.
"""

from __future__ import annotations

from typing import List

from ..errors import NoSuchPageError

#: Default raw page size in bytes (payload + careful-layer header).
PAGE_SIZE = 512


class PageStore:
    """A fixed-size array of raw byte pages."""

    def __init__(self, num_pages: int, page_size: int = PAGE_SIZE,
                 name: str = "disk") -> None:
        if num_pages < 1:
            raise ValueError("need at least one page")
        if page_size < 64:
            raise ValueError("page size must be at least 64 bytes")
        self.name = name
        self.num_pages = num_pages
        self.page_size = page_size
        self._pages: List[bytes] = [b""] * num_pages
        self.reads = 0
        self.writes = 0

    def _check_address(self, address: int) -> None:
        if not 0 <= address < self.num_pages:
            raise NoSuchPageError(
                f"{self.name}: page {address} out of range "
                f"[0, {self.num_pages})")

    def read(self, address: int) -> bytes:
        """Return the raw bytes of a page (empty if never written)."""
        self._check_address(address)
        self.reads += 1
        return self._pages[address]

    def write(self, address: int, data: bytes) -> None:
        """Overwrite a page.  ``data`` must fit in one page."""
        self._check_write(address, data)
        self.writes += 1
        self._pages[address] = bytes(data)

    def _check_write(self, address: int, data: bytes) -> None:
        self._check_address(address)
        if len(data) > self.page_size:
            raise ValueError(
                f"{self.name}: {len(data)} bytes exceed page size "
                f"{self.page_size}")

    # -- fault injection -----------------------------------------------------

    def decay(self, address: int, flip_byte: int = 0) -> None:
        """Corrupt one byte of a page in place (spontaneous decay)."""
        self._check_address(address)
        page = bytearray(self._pages[address])
        if not page:
            page = bytearray(b"\xff")
        index = flip_byte % len(page)
        page[index] ^= 0xFF
        self._pages[address] = bytes(page)

    def tear(self, address: int) -> None:
        """Simulate a torn write: the page holds garbage."""
        self._check_address(address)
        self._pages[address] = b"\x00TORN\x00"
