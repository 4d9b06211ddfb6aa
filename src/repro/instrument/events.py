"""Access events published by the hook layer to registered observers."""


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

    def on_store(self, event):
        """A PM store (or ntstore / successful CAS) completed."""

    def on_flush(self, event):
        """A CLWB was issued."""

    def on_fence(self, event):
        """An SFENCE was issued."""

    def on_annotated_store(self, annotation, event):
        """A store hit a region annotated via pm_sync_var_hint."""
