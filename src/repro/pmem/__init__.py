"""Simulated persistent-memory substrate (pools, cache lines, allocator)."""

from .cacheline import CACHE_LINE_SIZE, WORD_SIZE, LineState, line_of
from .errors import (
    AllocationError,
    CrashError,
    DoubleFreeError,
    MisalignedAccessError,
    OutOfBoundsError,
    PmemError,
    PoolError,
)
from .memory import CrashImage, PersistentMemory, StoreRecord
from .pool import NULL_OFF, PmemPool
from .allocator import PersistentAllocator
from .layout import StructLayout

__all__ = [
    "CACHE_LINE_SIZE",
    "WORD_SIZE",
    "LineState",
    "line_of",
    "PmemError",
    "OutOfBoundsError",
    "MisalignedAccessError",
    "AllocationError",
    "DoubleFreeError",
    "PoolError",
    "CrashError",
    "CrashImage",
    "PersistentMemory",
    "StoreRecord",
    "PmemPool",
    "NULL_OFF",
    "PersistentAllocator",
    "StructLayout",
]
