"""The instrumented PM access API used by target programs.

Every method of :class:`PmView` corresponds to an instruction the original
LLVM pass hooks: loads, stores, non-temporal stores, CAS, ``CLWB``,
``SFENCE``. Each access

1. gives the sync-point controller a chance to stall the thread
   (``cond_wait`` before loads, ``cond_signal`` after stores, §4.2.2),
2. passes through a scheduler yield point (the preemption point),
3. performs the access against the simulated PM,
4. publishes a :class:`~repro.instrument.events.PmAccessEvent` so checkers
   and coverage collectors observe it,
5. propagates taint labels into/out of the loaded or stored value.

Instruction ids on events are *interned ints* from the context's
:class:`~repro.instrument.callsite.CallSiteTable`; ``StoreRecord``
attribution in the memory substrate receives the resolved string (one
list index here) so scans and reports keep their ``module:function:line``
form without per-event resolution downstream.

Stacks are lazy: an event carries the frame its stack walk would start
from (``PmAccessEvent.frame``), and the checker walks it only for an
access that mints a record. A store reads the bytes it overwrites
(``same_value``) only when it is tainted, the only case a checker
consults.
"""

import functools
import struct
import sys

from ..pmem.cacheline import CACHE_LINE_SIZE, align_down
from .events import PmAccessEvent
from .taint import taint_of, with_taint

_U64 = struct.Struct("<Q")
_U64_MASK = (1 << 64) - 1
#: ``_U64.unpack(raw)[0]`` as one C call, with no Python frame.
_decode_u64 = functools.partial(int.from_bytes, byteorder="little")


class PmView:
    """Instrumented view of one PM pool for one campaign.

    Args:
        pool: The :class:`~repro.pmem.pool.PmemPool` under test.
        scheduler: The cooperative scheduler (may be None for recovery-only
            views; yields become no-ops).
        ctx: The :class:`~repro.instrument.context.InstrumentationContext`.
    """

    def __init__(self, pool, scheduler, ctx):
        self.pool = pool
        self.scheduler = scheduler
        self.ctx = ctx
        # Bind the hot-path collaborators once per campaign.
        self._memory = pool.memory
        self._sites = ctx.callsites
        # Bind observability counters once; the disabled path then costs
        # a single attribute-is-None check per instrumented access.
        metrics = ctx.metrics
        if metrics is not None:
            self._m_loads = metrics.counter("pm.loads")
            self._m_stores = metrics.counter("pm.stores")
            self._m_cas = metrics.counter("pm.cas")
            self._m_flushes = metrics.counter("pm.flushes")
            self._m_fences = metrics.counter("pm.fences")
        else:
            self._m_loads = self._m_stores = self._m_cas = None
            self._m_flushes = self._m_fences = None

    # Each access below resolves its simulated thread and yields inline.
    # The call-site walk starts at the public method's caller
    # (``intern_caller(skip=3)`` from ``_load``/``_store``) and passes
    # over instrumentation frames, so ids name the target's code. A load
    # that sees non-persisted writers, and every store, hands its event
    # that same caller frame (``intern_caller`` already made its frame
    # object; the public method it skips is internal anyway) for the
    # checker to walk into a stack if the event mints a record.

    # ------------------------------------------------------------------
    # loads

    def _load(self, addr, size, decode):
        if self._m_loads is not None:
            self._m_loads.inc()
        addr_int = int(addr)
        sites = self._sites
        ctx = self.ctx
        instr = sites.intern_caller(skip=3)
        scheduler = self.scheduler
        if scheduler is not None:
            thread = scheduler.current()
            if ctx.controller is not None and thread is not None:
                ctx.controller.before_load(addr_int, instr, thread)
            scheduler.yield_point("op")
        else:
            thread = None
        memory = self._memory
        writers = memory.nonpersisted_writers(addr_int, size)
        value = decode(memory.load(addr_int, size))
        event = PmAccessEvent(
            "load", addr_int, size, value, thread, instr, (), writers,
            frame=sys._getframe(2) if writers and ctx.capture_stacks
            else None,
        )
        minted = ctx.dispatch_load(event)
        labels = ctx.shadow_load(addr_int, size)
        if minted:
            labels = labels | minted
        if labels and ctx.taint_enabled:
            value = with_taint(value, labels)
        return value

    def load_u64(self, addr):
        """Load a 64-bit word; returns a (possibly tainted) int."""
        return self._load(addr, 8, _decode_u64)

    def load_bytes(self, addr, size):
        """Load ``size`` bytes; returns (possibly tainted) bytes."""
        return self._load(addr, size, bytes)

    # ------------------------------------------------------------------
    # stores

    def _store(self, addr, size, value, encoded, ntstore):
        if self._m_stores is not None:
            self._m_stores.inc()
        addr_int = int(addr)
        sites = self._sites
        ctx = self.ctx
        instr = sites.intern_caller(skip=3)
        scheduler = self.scheduler
        if scheduler is not None:
            thread = scheduler.current()
            scheduler.yield_point("op")
        else:
            thread = None
        content_taint = taint_of(value)
        addr_taint = taint_of(addr)
        taint = content_taint | addr_taint
        tid = thread.tid if thread is not None else -1
        memory = self._memory
        same_value = memory.load(addr_int, size) == encoded if taint \
            else False
        memory.store(addr_int, encoded, tid, sites.name(instr),
                     ntstore=ntstore)
        ctx.shadow_store(addr_int, size, content_taint)
        event = PmAccessEvent(
            "ntstore" if ntstore else "store", addr_int, size, value,
            thread, instr, (), (), taint, addr_taint, same_value,
            sys._getframe(2) if ctx.capture_stacks else None,
        )
        ctx.dispatch_store(event)
        if ctx.controller is not None and thread is not None:
            ctx.controller.after_store(addr_int, instr, thread)

    def store_u64(self, addr, value):
        """Cached 64-bit store (leaves the line dirty until flushed)."""
        self._store(addr, 8, value, _U64.pack(int(value) & _U64_MASK),
                    ntstore=False)

    def ntstore_u64(self, addr, value):
        """Non-temporal 64-bit store (write-through, immediately durable)."""
        self._store(addr, 8, value, _U64.pack(int(value) & _U64_MASK),
                    ntstore=True)

    def store_bytes(self, addr, data):
        self._store(addr, len(data), data, bytes(data), ntstore=False)

    def ntstore_bytes(self, addr, data):
        self._store(addr, len(data), data, bytes(data), ntstore=True)

    # ------------------------------------------------------------------
    # read-modify-write

    def cas_u64(self, addr, expected, new):
        """Atomic compare-and-swap on a PM word.

        Returns ``(success, old_value)``. The load and conditional store
        happen without an intervening preemption point, like a LOCK-
        prefixed CMPXCHG.
        """
        if self._m_cas is not None:
            self._m_cas.inc()
        addr_int = int(addr)
        sites = self._sites
        ctx = self.ctx
        instr = sites.intern_caller()
        scheduler = self.scheduler
        if scheduler is not None:
            thread = scheduler.current()
            scheduler.yield_point("op")
        else:
            thread = None
        capture = ctx.capture_stacks
        memory = self._memory
        writers = memory.nonpersisted_writers(addr_int, 8)
        old = _U64.unpack(memory.load(addr_int, 8))[0]
        load_event = PmAccessEvent(
            "load", addr_int, 8, old, thread, instr, (), writers,
            frame=sys._getframe(1) if writers and capture else None,
        )
        minted = ctx.dispatch_load(load_event)
        labels = ctx.shadow_load(addr_int, 8) | minted
        old_value = with_taint(old, labels) if labels else old
        if old != int(expected):
            return False, old_value
        content_taint = taint_of(new)
        addr_taint = taint_of(addr)
        taint = content_taint | addr_taint
        tid = thread.tid if thread is not None else -1
        memory.store(addr_int, _U64.pack(int(new) & _U64_MASK),
                     tid, sites.name(instr), ntstore=False)
        ctx.shadow_store(addr_int, 8, content_taint)
        store_event = PmAccessEvent(
            "cas", addr_int, 8, new, thread, instr, (), (), taint,
            addr_taint,
            frame=sys._getframe(1) if capture else None,
        )
        ctx.dispatch_store(store_event)
        if ctx.controller is not None and thread is not None:
            ctx.controller.after_store(addr_int, instr, thread)
        return True, old_value

    # ------------------------------------------------------------------
    # persistency instructions

    def clwb(self, addr):
        if self._m_flushes is not None:
            self._m_flushes.inc()
        addr_int = int(addr)
        instr = self._sites.intern_caller()
        scheduler = self.scheduler
        if scheduler is not None:
            thread = scheduler.current()
            scheduler.yield_point("op")
        else:
            thread = None
        tid = thread.tid if thread is not None else -1
        self._memory.clwb(addr_int, tid)
        self.ctx.dispatch_flush(PmAccessEvent(
            "clwb", addr_int, 0, None, thread, instr))

    def sfence(self):
        if self._m_fences is not None:
            self._m_fences.inc()
        instr = self._sites.intern_caller()
        scheduler = self.scheduler
        if scheduler is not None:
            thread = scheduler.current()
            scheduler.yield_point("op")
        else:
            thread = None
        tid = thread.tid if thread is not None else -1
        self._memory.sfence(tid)
        self.ctx.dispatch_fence(PmAccessEvent(
            "sfence", None, 0, None, thread, instr))

    def flush_range(self, addr, size):
        """CLWB every line covering ``[addr, addr+size)`` (no fence)."""
        addr_int = int(addr)
        start = align_down(addr_int, CACHE_LINE_SIZE)
        for line_addr in range(start, addr_int + max(size, 1), CACHE_LINE_SIZE):
            self.clwb(line_addr)

    def persist(self, addr, size):
        """The common ``CLWB...; SFENCE`` persistence idiom."""
        self.flush_range(addr, size)
        self.sfence()
