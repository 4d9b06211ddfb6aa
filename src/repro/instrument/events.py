"""What the hook layer publishes: access events and the access trace.

Every instrumented access of a campaign appends one entry to the
campaign's *trace* (``InstrumentationContext.trace``), a tuple
``(tid, site, addr, size, how)``. ``how`` is one of :data:`LOAD_CLEAN`,
:data:`LOAD_DIRTY`, :data:`STORE_CLEAN` and :data:`STORE_DIRTY`, a pair
of the profile slot (``"loads"`` or ``"stores"``) and the persistency
state of the access identity (§4.2.1); it is None for a flush or a
fence (whose ``addr`` is None). Coverage and the shared-access profile
are folded from the trace once the campaign is over
(:meth:`repro.core.coverage.FeedbackCollector.on_trace`).

A :class:`PmAccessEvent` is built only for an access some registered
observer callback takes: generic ``on_load``/``on_store``/``on_flush``/
``on_fence`` observers see every access, while ``on_dirty_load``,
``on_tainted_store`` and ``on_annotated_store`` see only the accesses
they can act on.
"""

#: Persistency-state component of an access identity.
STATE_CLEAN = "C"
STATE_DIRTY = "D"

#: ``how`` of a trace entry: a load that saw no non-persisted writer,
#: one that saw some, a non-temporal store, and a cached store or CAS.
LOAD_CLEAN = ("loads", STATE_CLEAN)
LOAD_DIRTY = ("loads", STATE_DIRTY)
STORE_CLEAN = ("stores", STATE_CLEAN)
STORE_DIRTY = ("stores", STATE_DIRTY)


class PmAccessEvent:
    """One instrumented PM access.

    Attributes:
        kind: "load", "store", "ntstore", "cas", "clwb", or "sfence".
        addr: Pool offset (None for sfence).
        size: Access size in bytes (0 for clwb/sfence).
        value: The loaded/stored value (int or bytes) when applicable.
        thread: The :class:`~repro.runtime.thread.SimThread`, or None when
            the access happens outside the scheduler (setup/recovery code).
        tid: Thread id (-1 outside the scheduler).
        instr_id: Call-site instruction ID. Events published by
            :class:`~repro.instrument.hooks.PmView` carry *interned ints*
            from the context's CallSiteTable (resolve with
            ``ctx.callsites.name(event.instr_id)``); hand-built events in
            tests may carry strings directly — detection-boundary code
            resolves both transparently.
        stack: Call-site stack (innermost first). Hand-built events may
            carry strings; on an instrumented access it stays empty until
            a checker walks ``frame`` into interned ids.
        frame: The frame a stack walk of this access starts from, or
            None when no stack is wanted. Valid only while the event is
            dispatched: an observer may walk it but must not keep it.
        nonpersisted: StoreRecords of non-persisted writers overlapping a
            load's range (loads only).
        taint: Label set flowing into a store (content ∪ address flow).
        addr_taint: Label subset that arrived via the address operand.
        same_value: Store only: the written bytes equal what memory
            already held (an idempotent write-back, e.g. a flush helper).
            Computed only for tainted stores, the only ones a checker
            consults; False otherwise.
    """

    __slots__ = ("kind", "addr", "size", "value", "thread", "tid",
                 "instr_id", "stack", "nonpersisted", "taint", "addr_taint",
                 "same_value", "frame")

    def __init__(self, kind, addr, size, value=None, thread=None,
                 instr_id=None, stack=(), nonpersisted=(), taint=frozenset(),
                 addr_taint=frozenset(), same_value=False, frame=None):
        self.kind = kind
        self.addr = addr
        self.size = size
        self.value = value
        self.thread = thread
        self.tid = thread.tid if thread is not None else -1
        self.instr_id = instr_id
        self.stack = stack
        self.nonpersisted = nonpersisted
        self.taint = taint
        self.addr_taint = addr_taint
        self.same_value = same_value
        self.frame = frame

    def __repr__(self):
        return "<PmAccessEvent %s addr=%s tid=%d instr=%s>" % (
            self.kind, hex(self.addr) if self.addr is not None else None,
            self.tid, self.instr_id)


class Observer:
    """Base observer; override any subset of the callbacks."""

    def on_load(self, event):
        """A PM load completed (event.value holds the loaded value)."""

    def on_dirty_load(self, event):
        """A PM load saw non-persisted writers (``event.nonpersisted``);
        may return taint labels to attach to the loaded value."""

    def on_store(self, event):
        """A PM store (or ntstore / successful CAS) completed."""

    def on_tainted_store(self, event):
        """A PM store whose content or address carries taint
        (``event.taint``) completed."""

    def on_flush(self, event):
        """A CLWB was issued."""

    def on_fence(self, event):
        """An SFENCE was issued."""

    def on_annotated_store(self, annotation, event):
        """A store hit a region annotated via pm_sync_var_hint."""
