"""PersistentMemory against an independent reference persistency model.

:class:`Model` is the paper's persistency rules (§2.1, §3.1) written as
plainly as possible, over its own byte arrays and dicts:

* a store makes the words it touches non-persisted and its lines DIRTY;
  re-dirtying a PENDING line cancels that line's write-back;
* CLWB turns a DIRTY line PENDING for the issuing thread;
* SFENCE persists the thread's PENDING lines, which become CLEAN;
* a non-temporal store and CLFLUSH are durable at once;
* a crash keeps only persisted data (plus PENDING lines, when the memory
  is configured to let them survive); a line the hardware may have
  evicted before the crash holds either its persisted or its volatile
  bytes, and a clean line holds the bytes both views share;
* on an eADR platform (§6.6) every store is durable as it retires, so
  flushes and fences change nothing.

The state machines (ADR and eADR) drive a :class:`PmemPool`'s memory and
the model through the same operations, snapshots and restores, and
compare every query after each step. It also checks that the bounds and alignment
checks still raise on out-of-range and misaligned accesses.
"""

import random
import struct

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.pmem import (
    LineState,
    MisalignedAccessError,
    OutOfBoundsError,
    PmemPool,
)

SIZE = 256  # four cache lines: small enough for operations to collide
LINE, WORD = 64, 8


class Model:
    """Reference persistency state: bytes, dirty words, line states."""

    def __init__(self, pending_survive, eadr=False):
        self.pending_survive = pending_survive
        self.eadr = eadr
        self.volatile = bytearray(SIZE)
        self.persisted = bytearray(SIZE)
        self.dirty = set()     # word indexes holding non-persisted data
        self.pending = {}      # line -> tids that CLWB'd it (PENDING)

    def _lines(self, addr, size):
        return range(addr // LINE, (addr + size - 1) // LINE + 1)

    def _persist(self, line):
        start = line * LINE
        self.persisted[start:start + LINE] = \
            self.volatile[start:start + LINE]
        self.dirty -= set(range(line * 8, line * 8 + 8))
        self.pending.pop(line, None)

    def store(self, addr, data, tid, ntstore):
        end = addr + len(data)
        self.volatile[addr:end] = data
        if self.eadr:
            # Caches are in the persistence domain: nothing is ever
            # dirty, so no line is ever PENDING either.
            self.persisted[addr:end] = data
            return
        if ntstore:
            self.persisted[addr:end] = data
        for word in range(addr // WORD, (end - 1) // WORD + 1):
            if not ntstore:
                self.dirty.add(word)
            elif addr <= word * WORD and word * WORD + WORD <= end:
                self.dirty.discard(word)  # the whole word is durable
        for line in self._lines(addr, len(data)):
            if not ntstore or not self.line_dirty(line):
                self.pending.pop(line, None)

    def clwb(self, line, tid):
        if self.line_dirty(line):
            self.pending.setdefault(line, set()).add(tid)

    def sfence(self, tid):
        for line in [line for line, tids in self.pending.items()
                     if tid in tids]:
            self._persist(line)

    def line_dirty(self, line):
        return any(word // 8 == line for word in self.dirty)

    def line_state(self, line):
        if line in self.pending:
            return LineState.PENDING
        return LineState.DIRTY if self.line_dirty(line) else LineState.CLEAN

    def is_persisted(self, addr, size):
        return size <= 0 or not any(
            word in self.dirty
            for word in range(addr // WORD, (addr + size - 1) // WORD + 1))

    def crash_image(self):
        image = bytearray(self.persisted)
        if self.pending_survive:
            for line in self.pending:
                start = line * LINE
                image[start:start + LINE] = self.volatile[start:start + LINE]
        return bytes(image)

    def copy(self):
        clone = Model(self.pending_survive, self.eadr)
        clone.volatile = bytearray(self.volatile)
        clone.persisted = bytearray(self.persisted)
        clone.dirty = set(self.dirty)
        clone.pending = {line: set(t) for line, t in self.pending.items()}
        return clone


addresses = st.integers(0, SIZE - 1)
tids = st.integers(0, 2)


@st.composite
def stores(draw):
    """``(addr, data)``: word-aligned words mostly, any bytes sometimes."""
    if draw(st.booleans()):
        addr = draw(st.integers(0, SIZE // WORD - 1)) * WORD
        return addr, struct.pack("<Q", draw(st.integers(0, 2**64 - 1)))
    addr = draw(addresses)
    size = draw(st.integers(1, min(24, SIZE - addr)))
    return addr, draw(st.binary(min_size=size, max_size=size))


class MemoryVsModel(RuleBasedStateMachine):
    snapshots = Bundle("snapshots")

    @initialize(pending_survive=st.booleans())
    def setup(self, pending_survive):
        self.pool = PmemPool("model", SIZE,
                             pending_persists_on_crash=pending_survive)
        self.mem = self.pool.memory
        self.model = Model(pending_survive)

    @rule(access=stores(), tid=tids, ntstore=st.booleans())
    def store(self, access, tid, ntstore):
        addr, data = access
        self.mem.store(addr, data, tid, "site", ntstore=ntstore)
        self.model.store(addr, data, tid, ntstore)

    @rule(addr=addresses, tid=tids)
    def clwb(self, addr, tid):
        self.mem.clwb(addr, tid)
        self.model.clwb(addr // LINE, tid)

    @rule(addr=addresses, tid=tids)
    def clflush(self, addr, tid):
        self.mem.clflush(addr, tid)
        self.model._persist(addr // LINE)

    @rule(tid=tids)
    def sfence(self, tid):
        self.mem.sfence(tid)
        self.model.sfence(tid)

    @rule(target=snapshots)
    def snapshot(self):
        return self.mem.snapshot(), self.model.copy()

    @rule(snap=snapshots)
    def restore(self, snap):
        self.mem.restore(snap[0])
        self.model = snap[1].copy()

    @rule(addr=addresses, size=st.integers(0, 80))
    def ranged_queries(self, addr, size):
        if addr + size > SIZE:
            with pytest.raises(OutOfBoundsError):
                self.mem.load(addr, size)
            with pytest.raises(OutOfBoundsError):
                self.mem.is_persisted(addr, size)
            return
        assert self.mem.load(addr, size) == \
            bytes(self.model.volatile[addr:addr + size])
        assert self.mem.load_persisted(addr, size) == \
            bytes(self.model.persisted[addr:addr + size])
        assert self.mem.is_persisted(addr, size) == \
            self.model.is_persisted(addr, size)

    @rule(evict=st.sampled_from([1.0, 0.25, 0.5, 0.75]),
          seed=st.integers(0, 2**16))
    def crash_with_eviction(self, evict, seed):
        image = bytes(self.mem.crash_image(evict, random.Random(seed)))
        if evict == 1.0:
            assert image == bytes(self.model.volatile)
            return
        lost = self.model.crash_image()
        for line in range(SIZE // LINE):
            span = slice(line * LINE, (line + 1) * LINE)
            assert image[span] in (lost[span],
                                   bytes(self.model.volatile[span]))
            if self.model.line_state(line) is LineState.CLEAN:
                assert image[span] == bytes(self.model.persisted[span])

    @rule(addr=st.integers(-16, SIZE + 16))
    def read_u64(self, addr):
        if addr % WORD:
            with pytest.raises(MisalignedAccessError):
                self.pool.read_u64(addr)
        elif addr < 0 or addr + WORD > SIZE:
            with pytest.raises(OutOfBoundsError):
                self.pool.read_u64(addr)
        else:
            assert self.pool.read_u64(addr) == struct.unpack(
                "<Q", self.model.volatile[addr:addr + WORD])[0]

    @rule(size=st.integers(0, 16), overhang=st.integers(1, 8))
    def load_past_the_end(self, size, overhang):
        with pytest.raises(OutOfBoundsError):
            self.mem.load(SIZE - size, size + overhang)

    @rule(addr=st.integers(-WORD, -1), size=st.integers(0, 8))
    def load_before_the_start(self, addr, size):
        with pytest.raises(OutOfBoundsError):
            self.mem.load(addr, size)

    @invariant()
    def views_match(self):
        assert self.mem.load(0, SIZE) == bytes(self.model.volatile)
        assert self.mem.load_persisted(0, SIZE) == \
            bytes(self.model.persisted)

    @invariant()
    def states_match(self):
        for line in range(SIZE // LINE):
            assert self.mem.line_state(line * LINE) is \
                self.model.line_state(line)
        for word in range(SIZE // WORD):
            assert self.mem.is_persisted(word * WORD, WORD) == \
                self.model.is_persisted(word * WORD, WORD)

    @invariant()
    def crash_image_matches(self):
        assert bytes(self.mem.crash_image()) == self.model.crash_image()


MemoryVsModel.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None)
TestMemoryVsModel = MemoryVsModel.TestCase


class EadrMemoryVsModel(MemoryVsModel):
    """The same machine on an eADR platform: every store is durable."""

    @initialize(pending_survive=st.booleans())
    def setup(self, pending_survive):
        self.pool = PmemPool("model", SIZE,
                             pending_persists_on_crash=pending_survive,
                             eadr=True)
        self.mem = self.pool.memory
        self.model = Model(pending_survive, eadr=True)

    @invariant()
    def everything_durable(self):
        assert self.mem.load_persisted(0, SIZE) == self.mem.load(0, SIZE)
        assert all(self.mem.line_state(line * LINE) is LineState.CLEAN
                   for line in range(SIZE // LINE))


EadrMemoryVsModel.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None)
TestEadrMemoryVsModel = EadrMemoryVsModel.TestCase
