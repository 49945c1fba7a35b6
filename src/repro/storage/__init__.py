"""Stable storage substrate: raw pages → careful/stable pages →
shadow-paging file system → timed storage servers.
"""

from .files import (END_OF_CHAIN, ROOT_PAGE, FileStat, FileSystem, FsOp,
                    IntentionRow, IoStep, Put, drive)
from .pages import PAGE_SIZE, PageStore
from .server import StorageServer
from .stable import CarefulStore, StableStore

__all__ = [
    "CarefulStore", "END_OF_CHAIN", "FileStat", "FileSystem", "FsOp",
    "IntentionRow", "IoStep", "PAGE_SIZE", "PageStore", "Put", "ROOT_PAGE", "StableStore",
    "StorageServer", "drive",
]
