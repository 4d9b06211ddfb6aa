"""Named PM pools: the unit of memory-mapping, crashing, and recovery.

A :class:`PmemPool` wraps a :class:`~repro.pmem.memory.PersistentMemory`
with raw (uninstrumented) word accessors. Instrumented access goes through
:class:`repro.instrument.hooks.PmView`, which targets use; the raw accessors
here exist for recovery code, tests, and the allocator's bookkeeping.
"""

import struct

from .cacheline import CACHE_LINE_SIZE
from .errors import MisalignedAccessError, PoolError
from .memory import PersistentMemory

_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")

#: Sentinel offset meaning "null pointer" inside a pool.
NULL_OFF = 0


class PmemPool:
    """A named simulated PM pool.

    Args:
        name: Pool file name (purely informational in the simulation).
        size: Pool size in bytes.
        pending_persists_on_crash: Forwarded to :class:`PersistentMemory`.
        image / pages: Initial contents and their non-zero pages,
            forwarded to :class:`PersistentMemory`; use
            :meth:`from_image`, which checks the length.
    """

    def __init__(self, name, size, pending_persists_on_crash=False,
                 eadr=False, image=None, pages=None):
        if size <= 0:
            raise PoolError("pool %r must have positive size" % name)
        self.name = name
        self.memory = PersistentMemory(
            size, pending_persists_on_crash=pending_persists_on_crash,
            eadr=eadr, image=image, pages=pages,
        )

    @property
    def size(self):
        return self.memory.size

    @classmethod
    def from_image(cls, name, image, pages=None):
        """Rebuild a pool from a crash image (a
        :class:`~repro.pmem.memory.CrashImage` or plain bytes); everything
        starts persisted. Each view is one copy of the image, or, given
        the image's non-zero ``pages``, zeroed with those pages written,
        so the pool can :meth:`reset` to another image later.

        Raises:
            PoolError: If the image length is not a positive multiple of
                the cache-line size.
        """
        size = len(image)
        if size <= 0 or size % CACHE_LINE_SIZE:
            raise PoolError("crash image for pool %r must be a positive "
                            "multiple of %d bytes, got %d"
                            % (name, CACHE_LINE_SIZE, size))
        return cls(name, size, image=image, pages=pages)

    # ------------------------------------------------------------------
    # raw word accessors (no instrumentation, no persistency effects for
    # reads; writes behave like regular cached stores)

    def _check_align(self, addr, size):
        if addr % size != 0:
            raise MisalignedAccessError(addr, size)

    def read_u64(self, addr):
        if addr % 8 != 0:
            raise MisalignedAccessError(addr, 8)
        return _U64.unpack(self.memory.load(addr, 8))[0]

    def write_u64(self, addr, value, thread_id=None, instr_id=None,
                  ntstore=False):
        self._check_align(addr, 8)
        return self.memory.store(addr, _U64.pack(value & (2 ** 64 - 1)),
                                 thread_id, instr_id, ntstore)

    def read_u32(self, addr):
        self._check_align(addr, 4)
        return _U32.unpack(self.memory.load(addr, 4))[0]

    def write_u32(self, addr, value, thread_id=None, instr_id=None,
                  ntstore=False):
        self._check_align(addr, 4)
        return self.memory.store(addr, _U32.pack(value & (2 ** 32 - 1)),
                                 thread_id, instr_id, ntstore)

    def read_bytes(self, addr, size):
        return self.memory.load(addr, size)

    def write_bytes(self, addr, data, thread_id=None, instr_id=None,
                    ntstore=False):
        return self.memory.store(addr, data, thread_id, instr_id, ntstore)

    def read_persisted_u64(self, addr):
        self._check_align(addr, 8)
        return _U64.unpack(self.memory.load_persisted(addr, 8))[0]

    # ------------------------------------------------------------------
    # lifecycle

    def crash_image(self, evict_fraction=0.0, rng=None):
        """The :class:`~repro.pmem.memory.CrashImage` PM would hold after
        a crash now."""
        return self.memory.crash_image(evict_fraction, rng)

    def reset(self, image, pages):
        """Become a pool freshly built from ``image`` by :meth:`from_image`
        with its ``pages``; False, changing nothing, when the memory
        cannot (see :meth:`~repro.pmem.memory.PersistentMemory.reset`)."""
        return self.memory.reset(image, pages)

    def checkpoint(self):
        """Deep snapshot for in-memory checkpointing (§5 fork-server analog)."""
        return self.memory.snapshot()

    def restore(self, snap):
        self.memory.restore(snap)
