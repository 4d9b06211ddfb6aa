"""The instrumented PM access API used by target programs.

Every method of :class:`PmView` corresponds to an instruction the original
LLVM pass hooks: loads, stores, non-temporal stores, CAS, ``CLWB``,
``SFENCE``. Each access

1. gives the sync-point controller a chance to stall the thread
   (``cond_wait`` before loads, ``cond_signal`` after stores, §4.2.2),
2. passes through a scheduler yield point (the preemption point), one
   scheduler call that also returns the running simulated thread (a
   load under a sync-point controller first asks for the thread, since
   its ``cond_wait`` runs before the yield),
3. performs the access against the simulated PM,
4. appends one ``(tid, site, addr, size, how)`` entry to the campaign's
   trace, from which coverage and the shared-access profile are folded
   after the run (:mod:`repro.instrument.events`), and publishes a
   :class:`~repro.instrument.events.PmAccessEvent` only when an observer
   takes it: a generic ``on_load``/``on_store``/``on_flush``/``on_fence``
   observer takes every access of its kind, while the checker takes only
   loads that saw non-persisted writers (``on_dirty_load``), tainted
   stores (``on_tainted_store``) and stores to annotated addresses
   (``on_annotated_store``; the registry is asked once per store and its
   answer handed on),
5. propagates taint labels into/out of the loaded or stored value.

Instruction ids on events and trace entries are *interned ints* from
the context's :class:`~repro.instrument.callsite.CallSiteTable`;
``StoreRecord`` attribution in the memory substrate receives the
resolved string (one list index here) so scans and reports keep their
``module:function:line`` form without per-event resolution downstream.

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
from .events import (LOAD_CLEAN, LOAD_DIRTY, STORE_CLEAN, STORE_DIRTY,
                     PmAccessEvent)
from .taint import EMPTY, with_taint

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
        # Bind the hot-path collaborators once per campaign. The hook
        # lists and the call-site name table grow in place, so observers
        # added after this view still see its accesses.
        self._memory = pool.memory
        self._sites = ctx.callsites
        self._site_names = ctx.callsites._names
        self._trace = ctx.trace
        hooks = ctx._hooks
        self._on_load = hooks["on_load"]
        self._on_dirty_load = hooks["on_dirty_load"]
        self._on_store = hooks["on_store"]
        self._on_tainted_store = hooks["on_tainted_store"]
        self._on_annotated_store = hooks["on_annotated_store"]
        self._on_flush = hooks["on_flush"]
        self._on_fence = hooks["on_fence"]
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

    # Each access below yields inline and takes its simulated thread
    # from the yield's return value.
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
        ctx = self.ctx
        instr = self._sites.intern_caller(skip=3)
        scheduler = self.scheduler
        if scheduler is None:
            thread = None
        elif ctx.controller is None:
            thread = scheduler.yield_point("op")
        else:
            # The sync point's cond_wait runs before the yield.
            thread = scheduler.current()
            if thread is not None:
                ctx.controller.before_load(addr_int, instr, thread)
            scheduler.yield_point("op")
        memory = self._memory
        writers = memory.nonpersisted_writers(addr_int, size)
        value = decode(memory.load(addr_int, size))
        if self._trace is not None:
            self._trace.append((
                thread.tid if thread is not None else -1, instr, addr_int,
                size, LOAD_DIRTY if writers else LOAD_CLEAN))
        if self._on_load or (writers and self._on_dirty_load):
            minted = ctx.dispatch_load(PmAccessEvent(
                "load", addr_int, size, value, thread, instr, (), writers,
                frame=sys._getframe(2) if writers else None,
            ))
        else:
            minted = EMPTY
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
        ctx = self.ctx
        instr = self._sites.intern_caller(skip=3)
        scheduler = self.scheduler
        thread = scheduler.yield_point("op") if scheduler is not None \
            else None
        # ``taint_of`` inline: the label sets the values carry.
        content_taint = getattr(value, "labels", EMPTY)
        addr_taint = getattr(addr, "labels", EMPTY)
        taint = content_taint | addr_taint if addr_taint else content_taint
        tid = thread.tid if thread is not None else -1
        memory = self._memory
        same_value = memory.load(addr_int, size) == encoded if taint \
            else False
        memory.store(addr_int, encoded, tid, self._site_names[instr],
                     ntstore=ntstore)
        ctx.shadow_store(addr_int, size, content_taint)
        if self._trace is not None:
            self._trace.append((tid, instr, addr_int, size,
                                STORE_CLEAN if ntstore else STORE_DIRTY))
        annotation = ctx.annotations.lookup(addr_int, size) \
            if self._on_annotated_store and ctx.annotations is not None \
            else None
        if self._on_store or (taint and self._on_tainted_store) \
                or annotation is not None:
            ctx.dispatch_store(PmAccessEvent(
                "ntstore" if ntstore else "store", addr_int, size, value,
                thread, instr, (), (), taint, addr_taint, same_value,
                sys._getframe(2),
            ), annotation)
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
        ctx = self.ctx
        instr = self._sites.intern_caller()
        scheduler = self.scheduler
        thread = scheduler.yield_point("op") if scheduler is not None \
            else None
        tid = thread.tid if thread is not None else -1
        trace = self._trace
        memory = self._memory
        writers = memory.nonpersisted_writers(addr_int, 8)
        old = _U64.unpack(memory.load(addr_int, 8))[0]
        if trace is not None:
            trace.append((tid, instr, addr_int, 8,
                          LOAD_DIRTY if writers else LOAD_CLEAN))
        if self._on_load or (writers and self._on_dirty_load):
            minted = ctx.dispatch_load(PmAccessEvent(
                "load", addr_int, 8, old, thread, instr, (), writers,
                frame=sys._getframe(1) if writers else None,
            ))
        else:
            minted = EMPTY
        labels = ctx.shadow_load(addr_int, 8) | minted
        old_value = with_taint(old, labels) if labels else old
        if old != int(expected):
            return False, old_value
        content_taint = getattr(new, "labels", EMPTY)
        addr_taint = getattr(addr, "labels", EMPTY)
        taint = content_taint | addr_taint if addr_taint else content_taint
        memory.store(addr_int, _U64.pack(int(new) & _U64_MASK),
                     tid, self._site_names[instr], ntstore=False)
        ctx.shadow_store(addr_int, 8, content_taint)
        if trace is not None:
            trace.append((tid, instr, addr_int, 8, STORE_DIRTY))
        annotation = ctx.annotations.lookup(addr_int, 8) \
            if self._on_annotated_store and ctx.annotations is not None \
            else None
        if self._on_store or (taint and self._on_tainted_store) \
                or annotation is not None:
            ctx.dispatch_store(PmAccessEvent(
                "cas", addr_int, 8, new, thread, instr, (), (), taint,
                addr_taint,
                frame=sys._getframe(1),
            ), annotation)
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
        thread = scheduler.yield_point("op") if scheduler is not None \
            else None
        tid = thread.tid if thread is not None else -1
        self._memory.clwb(addr_int, tid)
        if self._trace is not None:
            self._trace.append((tid, instr, addr_int, 0, None))
        if self._on_flush:
            self.ctx.dispatch_flush(PmAccessEvent(
                "clwb", addr_int, 0, None, thread, instr))

    def sfence(self):
        if self._m_fences is not None:
            self._m_fences.inc()
        instr = self._sites.intern_caller()
        scheduler = self.scheduler
        thread = scheduler.yield_point("op") if scheduler is not None \
            else None
        tid = thread.tid if thread is not None else -1
        self._memory.sfence(tid)
        if self._trace is not None:
            self._trace.append((tid, instr, None, 0, None))
        if self._on_fence:
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
