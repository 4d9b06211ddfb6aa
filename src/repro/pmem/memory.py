"""Simulated byte-addressable persistent memory with volatile CPU caches.

This module is the ground truth for the failure model assumed by the paper
(§3.1): stores land in a volatile cache and are only durable after an
explicit write-back (``CLWB``) followed by a fence (``SFENCE``), or when
issued as non-temporal stores. A crash discards every non-persisted line.

Two views are maintained:

* the *volatile* view — what loads observe while the system is running;
* the *persisted* view — what a crash image is built from.

Per-word last-writer records let checkers attribute a non-persisted read to
the thread and instruction that produced the dirty data, exactly like the
persistency-state hash table described in §4.3.

Tracking layout
---------------

All per-line state lives in one dict, ``_lines``::

    line index -> [LineState, word mask, [StoreRecord] * WORDS_PER_LINE]

An entry exists iff its mask is nonzero (the line holds non-persisted
words); a missing line is CLEAN. Stores, flushes, and fences are then a
handful of integer mask operations per touched *line* instead of dict
churn per touched *word*, and ``is_persisted`` is a single mask test.

Two auxiliary indexes keep the hot paths O(touched lines):

* ``_pending_by_thread`` / ``_pending_tids`` — forward and reverse maps
  between threads and their outstanding CLWB lines. Whenever a line
  leaves PENDING (fence persist, clflush, ntstore overwrite, or a
  re-dirtying store) its membership is removed from *every* thread's
  pending set, so a fence from one thread can never leak — or stale-
  persist — lines another thread re-dirtied.
* ``_journal`` — the set of lines whose bytes changed since the last
  :meth:`snapshot`/:meth:`restore` (or, for a memory built from a crash
  image, since that image's base). Restoring the snapshot a memory was
  last reset to copies only those lines back instead of both full pools,
  and a memory built from an image reports its volatile view as a
  :class:`CrashImage` over that image's base plus the journaled lines.
  A memory built from an image's non-zero pages (or from nothing) can
  :meth:`~PersistentMemory.reset` to another image by zeroing those
  pages and the journaled lines instead of allocating new views.

Crash images
------------

A :class:`CrashImage` is the snapshot's ``persisted`` bytes, shared by
every image taken while the memory diverges from that snapshot, plus the
few lines that differ from it: journaled lines whose persisted bytes
changed and lines that survive the crash in their volatile state. A
P-CLHT image carries at most about a hundred of its pool's 16,384 lines.
"""

import bisect
import random

from .cacheline import (
    CACHE_LINE_SIZE,
    LINE_SHIFT,
    WORD_SHIFT,
    WORD_SIZE,
    WORDS_PER_LINE,
    LineState,
)
from .errors import OutOfBoundsError

_DIRTY = LineState.DIRTY
_PENDING = LineState.PENDING
#: Words-per-line as a shift (8 words -> 3 bits of the word index).
_WPL_SHIFT = WORDS_PER_LINE.bit_length() - 1


class StoreRecord:
    """Metadata of one PM store, kept per dirty word.

    Attributes:
        addr: Byte offset of the store.
        size: Store size in bytes.
        thread_id: Identifier of the storing thread.
        instr_id: Instruction identifier (call-site) of the store. Always
            the resolved ``module:function:line`` string (or whatever the
            caller passes) — never an interned int — so scans and reports
            can substring-match it directly.
        seq: Global sequence number (monotonic per memory instance).
        ntstore: Whether the store bypassed the cache.
    """

    __slots__ = ("addr", "size", "thread_id", "instr_id", "seq", "ntstore")

    def __init__(self, addr, size, thread_id, instr_id, seq, ntstore=False):
        self.addr = addr
        self.size = size
        self.thread_id = thread_id
        self.instr_id = instr_id
        self.seq = seq
        self.ntstore = ntstore

    def __repr__(self):
        kind = "ntstore" if self.ntstore else "store"
        return "<%s addr=%#x size=%d thread=%s instr=%s seq=%d>" % (
            kind,
            self.addr,
            self.size,
            self.thread_id,
            self.instr_id,
            self.seq,
        )


class MemorySnapshot:
    """Opaque deep snapshot of a :class:`PersistentMemory` instance.

    ``origin`` records which memory produced it: restores onto the same
    memory while the snapshot is still its base replay only the
    journaled (touched) lines.
    """

    __slots__ = ("volatile", "persisted", "lines", "pending_by_thread",
                 "pending_tids", "seq", "origin")

    def __init__(self, volatile, persisted, lines, pending_by_thread,
                 pending_tids, seq, origin=None):
        self.volatile = volatile
        self.persisted = persisted
        self.lines = lines
        self.pending_by_thread = pending_by_thread
        self.pending_tids = pending_tids
        self.seq = seq
        self.origin = origin


class CrashImage:
    """Immutable crash image: a shared base plus sorted line overrides.

    Attributes:
        base: Pool-sized ``bytes``, shared and never copied — the
            checkpoint snapshot's ``persisted`` view, or one private copy
            of the persisted view when the memory has no valid base.
        delta: Sorted tuple of ``(line index, 64 bytes)``; each overrides
            that line of ``base``.

    ``len()`` and ``bytes()`` give the full image.
    """

    __slots__ = ("base", "delta")

    def __init__(self, base, delta):
        self.base = base
        self.delta = delta

    def __len__(self):
        return len(self.base)

    def __bytes__(self):
        if not self.delta:
            return bytes(self.base)
        # One copy: the base between delta lines, as memoryview slices,
        # joined with the lines.
        base = memoryview(self.base)
        parts = []
        position = 0
        for line, data in self.delta:
            start = line << LINE_SHIFT
            parts.append(base[position:start])
            parts.append(data)
            position = start + CACHE_LINE_SIZE
        parts.append(base[position:])
        return b"".join(parts)

    def __repr__(self):
        return "<CrashImage %d bytes, %d delta lines>" % (len(self.base),
                                                          len(self.delta))

    def to_bytearray(self):
        """The full image as a new ``bytearray``: one copy of ``base``
        with the delta lines written over it."""
        buffer = bytearray(self.base)
        for line, data in self.delta:
            start = line << LINE_SHIFT
            buffer[start:start + CACHE_LINE_SIZE] = data
        return buffer

    def read(self, addr, size):
        """The ``size`` bytes at ``addr``, without materializing the image."""
        end = addr + size
        if addr < 0 or size < 0 or end > len(self.base):
            raise OutOfBoundsError(addr, size, len(self.base))
        out = bytearray(self.base[addr:end])
        delta = self.delta
        first = bisect.bisect_left(delta, (addr >> LINE_SHIFT,))
        stop = bisect.bisect_left(delta, (((end - 1) >> LINE_SHIFT) + 1,))
        for line, data in delta[first:stop]:
            start = line << LINE_SHIFT
            lo = max(addr, start)
            hi = min(end, start + CACHE_LINE_SIZE)
            out[lo - addr:hi - addr] = data[lo - start:hi - start]
        return bytes(out)

    def overlay(self, addr, data):
        """A new image with ``data`` written at ``addr``."""
        end = addr + len(data)
        lines = dict(self.delta)
        for line in range(addr >> LINE_SHIFT, ((end - 1) >> LINE_SHIFT) + 1):
            start = line << LINE_SHIFT
            current = lines.get(line)
            if current is None:
                current = self.base[start:start + CACHE_LINE_SIZE]
            patched = bytearray(current)
            lo = max(addr, start)
            hi = min(end, start + CACHE_LINE_SIZE)
            patched[lo - start:hi - start] = data[lo - addr:hi - addr]
            lines[line] = bytes(patched)
        return CrashImage(self.base, tuple(sorted(lines.items())))


class PersistentMemory:
    """A flat simulated PM region with cache-line persistency tracking.

    Args:
        size: Pool size in bytes (rounded up to a cache-line multiple).
        pending_persists_on_crash: If True, lines in ``PENDING`` state (CLWB
            issued, fence not yet executed) survive crashes. The paper's
            checker is conservative and treats them as lost; that is the
            default here too.
        eadr: Model an extended-ADR platform (§6.6): CPU caches are inside
            the persistence domain, so every store is immediately durable
            and flush instructions become no-ops. PM Inter-thread
            Inconsistencies cannot occur, but PM Synchronization
            Inconsistencies still can — locks persisted in PM survive
            crashes regardless of where they were buffered.
        image: Optional initial contents of exactly ``size`` bytes — a
            :class:`CrashImage` or bytes-like — that both views start
            from, everything persisted. A :class:`CrashImage`'s delta
            lines start journaled, so :meth:`volatile_image` can share
            its base.
        pages: Optional ``(offset, bytes)`` spans holding every non-zero
            byte of ``image`` (an :func:`~repro.detect.
            validation_service.image_digest` key without its length).
            Both views are then zeroed buffers with these spans written,
            and the memory can later :meth:`reset` to another image.
    """

    def __init__(self, size, pending_persists_on_crash=False, eadr=False,
                 image=None, pages=None):
        size = ((size + CACHE_LINE_SIZE - 1) // CACHE_LINE_SIZE) * CACHE_LINE_SIZE
        self.size = size
        self.pending_persists_on_crash = pending_persists_on_crash
        self.eadr = eadr
        if image is not None and len(image) != size:
            raise ValueError("image of %d bytes for a %d-byte memory"
                             % (len(image), size))
        if image is None or pages is not None:
            self._volatile = bytearray(size)
            self._persisted = bytearray(size)
            self._start(image, pages or ())
        else:
            if isinstance(image, CrashImage):
                self._volatile = image.to_bytearray()
            else:
                self._volatile = bytearray(image)
            self._persisted = bytearray(self._volatile)
            self._start(image, ())
            self._held = None

    def _start(self, image, pages):
        """Write ``pages`` into both (zero) views and set the metadata of
        a memory freshly built from ``image``."""
        volatile = self._volatile
        persisted = self._persisted
        for offset, page in pages:
            end = offset + len(page)
            volatile[offset:end] = page
            persisted[offset:end] = page
        #: ``(offset, length)`` spans that may hold non-zero bytes
        #: outside the journal; None once unknown (a memory copied from
        #: an image, or after persist_all, snapshot or restore).
        self._held = tuple((offset, len(page)) for offset, page in pages)
        #: lines whose volatile or persisted bytes changed since the last
        #: snapshot/restore; drives incremental checkpoint restores.
        self._journal = set()
        self._journal_full = False
        #: immutable bytes the volatile view equals outside the journal
        #: (set only for a memory built from an image).
        self._image_base = None
        if isinstance(image, CrashImage):
            self._journal.update(line for line, _data in image.delta)
            self._image_base = image.base
        elif isinstance(image, bytes):
            self._image_base = image
        #: line index -> [LineState, word mask, per-word StoreRecords];
        #: entry exists iff mask != 0 (otherwise the line is CLEAN).
        self._lines = {}
        #: thread_id -> set of line indexes with an outstanding CLWB.
        self._pending_by_thread = {}
        #: reverse index: line -> set of thread_ids holding it pending.
        self._pending_tids = {}
        #: the snapshot this memory currently diverges from (if any).
        self._base = None
        self._seq = 0

    def reset(self, image, pages):
        """Become ``PersistentMemory(self.size, image=image)`` in place.

        Only the spans the previous image held and the journaled lines
        are zeroed, then ``pages`` (as for the constructor) are written:
        the cost follows the pages of both images and the lines written
        since, not the pool size. Returns False, changing nothing, when
        ``image`` has another size or the memory no longer knows which
        of its bytes may be non-zero (it was copied from an image, or
        :meth:`persist_all`, :meth:`snapshot` or :meth:`restore` voided
        its journal).
        """
        if self._held is None or len(image) != self.size:
            return False
        volatile = self._volatile
        persisted = self._persisted
        for offset, length in self._held:
            zeros = bytes(length)
            volatile[offset:offset + length] = zeros
            persisted[offset:offset + length] = zeros
        zeros = bytes(CACHE_LINE_SIZE)
        for line in self._journal:
            start = line << LINE_SHIFT
            volatile[start:start + CACHE_LINE_SIZE] = zeros
            persisted[start:start + CACHE_LINE_SIZE] = zeros
        self._start(image, pages)
        return True

    # ------------------------------------------------------------------
    # bounds helpers

    def _check(self, addr, size):
        if addr < 0 or size < 0 or addr + size > self.size:
            raise OutOfBoundsError(addr, size, self.size)

    # ------------------------------------------------------------------
    # data path

    def store(self, addr, data, thread_id=None, instr_id=None, ntstore=False):
        """Write ``data`` at ``addr``; returns the :class:`StoreRecord`.

        A regular store dirties the touched cache lines. A non-temporal
        store writes through to the persisted view and leaves the words
        it covers whole clean; a partly covered word keeps the state of
        its other bytes.
        """
        size = len(data)
        if addr < 0 or addr + size > self.size:
            raise OutOfBoundsError(addr, size, self.size)
        self._seq += 1
        record = StoreRecord(addr, size, thread_id, instr_id, self._seq, ntstore)
        self._volatile[addr:addr + size] = data
        if size == 0:
            return record
        if self.eadr:
            ntstore = True  # battery-backed caches: every store is durable
        lines = self._lines
        journal = self._journal
        first_word = addr >> WORD_SHIFT
        last_word = (addr + size - 1) >> WORD_SHIFT
        first_line = first_word >> _WPL_SHIFT
        last_line = last_word >> _WPL_SHIFT
        if ntstore:
            self._persisted[addr:addr + size] = data
            # Only words the store covers whole become clean: the rest
            # of a partly covered dirty word still holds bytes of an
            # earlier cached store.
            first_full = (addr + WORD_SIZE - 1) >> WORD_SHIFT
            last_full = ((addr + size) >> WORD_SHIFT) - 1
            for line in range(first_line, last_line + 1):
                journal.add(line)
                entry = lines.get(line)
                if entry is None:
                    continue
                base = line << _WPL_SHIFT
                lo = max(first_full - base, 0)
                hi = min(last_full - base, WORDS_PER_LINE - 1)
                if lo > hi:
                    continue
                remaining = entry[1] & ~((1 << (hi + 1)) - (1 << lo))
                if remaining:
                    entry[1] = remaining
                    writers = entry[2]
                    for w in range(lo, hi + 1):
                        writers[w] = None
                else:
                    if entry[0] is _PENDING:
                        self._unpend(line)
                    del lines[line]
        else:
            for line in range(first_line, last_line + 1):
                journal.add(line)
                base = line << _WPL_SHIFT
                lo = first_word - base if line == first_line else 0
                hi = last_word - base if line == last_line \
                    else WORDS_PER_LINE - 1
                entry = lines.get(line)
                if entry is None:
                    writers = [None] * WORDS_PER_LINE
                    lines[line] = [_DIRTY, (1 << (hi + 1)) - (1 << lo),
                                   writers]
                else:
                    if entry[0] is _PENDING:
                        # Re-dirtying a pending line cancels the write-
                        # back: a later fence must not persist it.
                        self._unpend(line)
                    entry[0] = _DIRTY
                    entry[1] |= (1 << (hi + 1)) - (1 << lo)
                    writers = entry[2]
                for w in range(lo, hi + 1):
                    writers[w] = record
        return record

    def load(self, addr, size):
        """Return ``size`` bytes of the volatile view at ``addr``."""
        if addr < 0 or size < 0 or addr + size > self.size:
            raise OutOfBoundsError(addr, size, self.size)
        return bytes(self._volatile[addr:addr + size])

    def load_persisted(self, addr, size):
        """Return ``size`` bytes of the *persisted* view at ``addr``."""
        self._check(addr, size)
        return bytes(self._persisted[addr:addr + size])

    def clwb(self, addr, thread_id=None):
        """Initiate write-back of the line containing ``addr`` (DIRTY→PENDING)."""
        self._check(addr, 1)
        line = addr >> LINE_SHIFT
        entry = self._lines.get(line)
        if entry is None:
            return  # CLEAN: nothing to write back
        entry[0] = _PENDING
        self._pending_by_thread.setdefault(thread_id, set()).add(line)
        self._pending_tids.setdefault(line, set()).add(thread_id)

    def clflush(self, addr, thread_id=None):
        """Flush-and-persist immediately (CLFLUSH is ordered by itself)."""
        self._check(addr, 1)
        self._persist_line(addr >> LINE_SHIFT)

    def sfence(self, thread_id=None):
        """Persist every line the thread has CLWB'd since its last fence."""
        pending = self._pending_by_thread.pop(thread_id, None)
        if not pending:
            return
        lines = self._lines
        for line in pending:
            entry = lines.get(line)
            if entry is not None and entry[0] is _PENDING:
                self._persist_line(line)

    def _persist_line(self, line):
        entry = self._lines.pop(line, None)
        if entry is None:
            return  # already CLEAN: volatile == persisted for this line
        start = line << LINE_SHIFT
        end = start + CACHE_LINE_SIZE
        self._persisted[start:end] = self._volatile[start:end]
        self._journal.add(line)
        if entry[0] is _PENDING:
            self._unpend(line)

    def _unpend(self, line):
        """Drop ``line`` from every thread's pending set (leaves PENDING)."""
        tids = self._pending_tids.pop(line, None)
        if not tids:
            return
        by_thread = self._pending_by_thread
        for tid in tids:
            bucket = by_thread.get(tid)
            if bucket is not None:
                bucket.discard(line)
                if not bucket:
                    del by_thread[tid]

    def persist_all(self):
        """Persist the whole pool (used for clean-shutdown/setup phases)."""
        self._persisted[:] = self._volatile
        self._lines.clear()
        self._pending_by_thread.clear()
        self._pending_tids.clear()
        self._journal_full = True
        self._held = None

    # ------------------------------------------------------------------
    # persistency queries (the checkers' view)

    def line_state(self, addr):
        """Return the :class:`LineState` of the line containing ``addr``."""
        self._check(addr, 1)
        entry = self._lines.get(addr >> LINE_SHIFT)
        return LineState.CLEAN if entry is None else entry[0]

    def is_persisted(self, addr, size):
        """True iff no byte in ``[addr, addr+size)`` has a non-persisted store."""
        self._check(addr, size)
        lines = self._lines
        if not lines or size <= 0:
            return True
        first_word = addr >> WORD_SHIFT
        last_word = (addr + size - 1) >> WORD_SHIFT
        first_line = first_word >> _WPL_SHIFT
        last_line = last_word >> _WPL_SHIFT
        if first_line == last_line:
            entry = lines.get(first_line)
            if entry is None:
                return True
            base = first_line << _WPL_SHIFT
            mask = (1 << (last_word - base + 1)) - (1 << (first_word - base))
            return not (entry[1] & mask)
        for line in range(first_line, last_line + 1):
            entry = lines.get(line)
            if entry is None:
                continue
            base = line << _WPL_SHIFT
            lo = first_word - base if line == first_line else 0
            hi = last_word - base if line == last_line else WORDS_PER_LINE - 1
            if entry[1] & ((1 << (hi + 1)) - (1 << lo)):
                return False
        return True

    def nonpersisted_writers(self, addr, size):
        """Return StoreRecords of non-persisted stores overlapping the range."""
        self._check(addr, size)
        lines = self._lines
        if not lines or size <= 0:
            return []
        first_word = addr >> WORD_SHIFT
        last_word = (addr + size - 1) >> WORD_SHIFT
        first_line = first_word >> _WPL_SHIFT
        last_line = last_word >> _WPL_SHIFT
        seen = []
        for line in range(first_line, last_line + 1):
            entry = lines.get(line)
            if entry is None:
                continue
            base = line << _WPL_SHIFT
            lo = first_word - base if line == first_line else 0
            hi = last_word - base if line == last_line else WORDS_PER_LINE - 1
            masked = entry[1] & ((1 << (hi + 1)) - (1 << lo))
            if not masked:
                continue
            writers = entry[2]
            while masked:
                low = masked & -masked
                record = writers[low.bit_length() - 1]
                if record is not None and record not in seen:
                    seen.append(record)
                masked ^= low
        return seen

    def dirty_line_count(self):
        """Number of lines currently not CLEAN."""
        return len(self._lines)

    def dirty_words(self):
        """Yield ``(word_addr, StoreRecord)`` for every non-persisted word,
        in ascending address order (the missing-flush scan's input)."""
        lines = self._lines
        for line in sorted(lines):
            entry = lines[line]
            mask = entry[1]
            writers = entry[2]
            base = line << LINE_SHIFT
            while mask:
                low = mask & -mask
                index = low.bit_length() - 1
                yield base + (index << WORD_SHIFT), writers[index]
                mask ^= low

    # ------------------------------------------------------------------
    # crashes and snapshots

    def crash_image(self, evict_fraction=0.0, rng=None):
        """Return the :class:`CrashImage` PM would hold after a crash now.

        The image shares the base snapshot's ``persisted`` bytes and
        carries only the lines that differ from it; a memory without a
        valid base (never snapshotted, or after :meth:`persist_all`)
        copies its persisted view once instead.

        Args:
            evict_fraction: Probability that a DIRTY line was evicted by the
                hardware before the crash (arbitrary cache eviction, §2.1);
                each line is sampled independently.
            rng: ``random.Random`` for eviction sampling. Pass the campaign
                RNG so eviction patterns vary across campaigns/seeds; the
                seed-0 fallback exists only for ad-hoc standalone use.
        """
        if evict_fraction > 0.0 and rng is None:
            rng = random.Random(0)
        survivors = []
        for line, entry in self._lines.items():
            if entry[0] is _PENDING and self.pending_persists_on_crash:
                survivors.append(line)
            elif evict_fraction > 0.0 and rng.random() < evict_fraction:
                survivors.append(line)
        delta = {}
        if self._base is None or self._journal_full:
            base = bytes(self._persisted)
        else:
            base = self._base.persisted
            persisted = self._persisted
            for line in self._journal:
                start = line << LINE_SHIFT
                data = persisted[start:start + CACHE_LINE_SIZE]
                if data != base[start:start + CACHE_LINE_SIZE]:
                    delta[line] = bytes(data)
        volatile = self._volatile
        for line in survivors:
            start = line << LINE_SHIFT
            delta[line] = bytes(volatile[start:start + CACHE_LINE_SIZE])
        return CrashImage(base, tuple(sorted(delta.items())))

    def volatile_image(self):
        """The volatile view as a :class:`CrashImage`.

        A memory built from an immutable image shares that image's base
        and carries its journaled lines, so the cost follows the lines
        written since; without such a base, or once :meth:`persist_all`,
        :meth:`snapshot` or :meth:`restore` voided the journal's meaning,
        the view is copied once.
        """
        volatile = self._volatile
        if self._image_base is None or self._journal_full:
            return CrashImage(bytes(volatile), ())
        return CrashImage(self._image_base, tuple(
            (line, bytes(volatile[line << LINE_SHIFT:
                                  (line + 1) << LINE_SHIFT]))
            for line in sorted(self._journal)))

    def snapshot(self):
        """Capture a deep snapshot (volatile + persisted + metadata).

        Also resets the dirty-line journal: until the next snapshot or a
        restore of a *different* snapshot, this memory knows exactly which
        lines diverged and :meth:`restore` copies only those.
        """
        snap = MemorySnapshot(
            bytes(self._volatile),
            bytes(self._persisted),
            {line: (entry[0], entry[1], tuple(entry[2]))
             for line, entry in self._lines.items()},
            {tid: frozenset(bucket)
             for tid, bucket in self._pending_by_thread.items()},
            {line: frozenset(tids)
             for line, tids in self._pending_tids.items()},
            self._seq,
            origin=self,
        )
        self._journal = set()
        self._journal_full = False
        self._image_base = None
        self._held = None
        self._base = snap
        return snap

    def restore(self, snap):
        """Restore a snapshot previously taken with :meth:`snapshot`.

        When ``snap`` is the snapshot this memory last diverged from (the
        common checkpoint-per-campaign pattern), only journaled lines are
        copied back — O(touched lines), not O(pool size).
        """
        if snap is self._base and not self._journal_full:
            volatile = self._volatile
            persisted = self._persisted
            snap_vol = snap.volatile
            snap_per = snap.persisted
            for line in self._journal:
                start = line << LINE_SHIFT
                end = start + CACHE_LINE_SIZE
                volatile[start:end] = snap_vol[start:end]
                persisted[start:end] = snap_per[start:end]
            self._journal.clear()
        else:
            self._volatile = bytearray(snap.volatile)
            self._persisted = bytearray(snap.persisted)
            self._journal = set()
            self._journal_full = False
            self._base = snap if snap.origin is self else None
        self._lines = {line: [state, mask, list(writers)]
                       for line, (state, mask, writers) in snap.lines.items()}
        self._pending_by_thread = {tid: set(bucket)
                                   for tid, bucket in
                                   snap.pending_by_thread.items()}
        self._pending_tids = {line: set(tids)
                              for line, tids in snap.pending_tids.items()}
        self._seq = snap.seq
        self._image_base = None
        self._held = None
