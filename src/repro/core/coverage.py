"""Coverage metrics: branch (edge) coverage and PM alias pair coverage.

§4.2.1 defines *PM alias pair coverage*: a PM access is identified by
``(I, P, T)`` — instruction ID, persistency state of the data, thread ID —
and a *PM alias pair* is two back-to-back accesses to the same address by
different threads. Conventional branch coverage is approximated here as
edge coverage over instrumented instruction IDs (the preceding access site
→ the current one, per thread), which plays the same feedback role the
AFL-style bitmap plays in the original.

Both depend only on the order of a campaign's accesses, so they are
computed once the campaign is over: :class:`FeedbackCollector` folds the
campaign's access trace (see :mod:`repro.instrument.events`) into both,
together with the shared-access profile behind
:mod:`repro.core.priority`'s queue, in one pass.
"""

from ..pmem.cacheline import WORD_SHIFT


class CoverageSet:
    """A grow-only set with "did this add anything new?" accounting.

    Args:
        metrics: Optional :class:`~repro.obs.metrics.Metrics`; when given
            together with ``name``, merges update a ``<name>.total`` gauge
            and a ``<name>.new`` counter (one update per merge, i.e. per
            campaign — not per item).
        name: Metric name prefix, e.g. ``"coverage.branch"``.
    """

    def __init__(self, metrics=None, name=None):
        self.items = set()
        if metrics is not None and name is not None:
            self._total_gauge = metrics.gauge(name + ".total")
            self._new_counter = metrics.counter(name + ".new")
        else:
            self._total_gauge = self._new_counter = None

    def add(self, item):
        """Add ``item``; returns True when it was new."""
        if item in self.items:
            return False
        self.items.add(item)
        if self._total_gauge is not None:
            self._total_gauge.set(len(self.items))
            self._new_counter.inc()
        return True

    def merge(self, other):
        """Union ``other`` in; returns the number of new items."""
        before = len(self.items)
        self.items |= other.items if isinstance(other, CoverageSet) else other
        new = len(self.items) - before
        if self._total_gauge is not None:
            self._total_gauge.set(len(self.items))
            if new:
                self._new_counter.inc(new)
        return new

    def __len__(self):
        return len(self.items)

    def __contains__(self, item):
        return item in self.items


class FeedbackCollector:
    """Per-campaign feedback for both fuzzing tiers, folded from a trace.

    :meth:`on_trace` reads each ``(tid, site, addr, size, how)`` entry
    once and updates all three:

    * ``edges`` — branch coverage: (previous access site of this thread
      → this site), over loads, stores, flushes and fences (the first
      access of a thread has predecessor None).
    * ``pairs`` — PM alias pair coverage (§4.2.1). The previous access
      identity ``(I, P, T)`` is kept per touched *word* (not per start
      address: a multi-word or unaligned access aliases with accesses at
      any offset into the same words); when the next load or store of a
      word comes from a *different thread*, ⟨(I₁,P₁),(I₂,P₂)⟩ is
      recorded. Thread ids are left out of the pair, so a pair is "the
      same interleaving shape" whichever worker threads executed it.
    * ``profile`` — the shared-access profile (§4.2.2) that
      :meth:`~repro.core.priority.SharedAccessQueue.update_from` folds
      in: start address → ``{"loads": {site: n}, "stores": {site: n},
      "tids": set, "count": n}`` over loads and stores.

    Folding two traces one after the other gives what folding their
    concatenation gives.
    """

    def __init__(self):
        self.edges = set()
        self.pairs = set()
        self.profile = {}
        #: tid -> site of that thread's previous access.
        self._prev = {}
        #: word -> (site, persistency state, tid) of its previous access.
        self._last = {}

    def on_trace(self, trace):
        """Fold a campaign's access trace in, in access order."""
        edges = self.edges
        pairs = self.pairs
        profile = self.profile
        prev = self._prev
        last = self._last
        for tid, instr, addr, size, how in trace:
            edges.add((prev.get(tid), instr))
            prev[tid] = instr
            if how is None:
                continue  # a flush or a fence: a branch edge only
            slot, state = how
            entry = profile.get(addr)
            if entry is None:
                entry = profile[addr] = {
                    "loads": {}, "stores": {}, "tids": set(), "count": 0}
            counts = entry[slot]
            counts[instr] = counts.get(instr, 0) + 1
            entry["tids"].add(tid)
            entry["count"] += 1
            if size <= 0:
                continue
            first_word = addr >> WORD_SHIFT
            last_word = (addr + size - 1) >> WORD_SHIFT
            if first_word == last_word:
                before = last.get(first_word)
                if before is not None and before[2] != tid:
                    pairs.add((before[0], before[1], instr, state))
                last[first_word] = (instr, state, tid)
                continue
            # Multi-word: each distinct previous identity pairs once, and
            # every word takes the new identity in one update.
            words = range(first_word, last_word + 1)
            for before in set(map(last.get, words)):
                if before is not None and before[2] != tid:
                    pairs.add((before[0], before[1], instr, state))
            last.update(dict.fromkeys(words, (instr, state, tid)))


#: Old per-metric names of the collector; pmbench/layertrace.py uses them.
BranchCoverageCollector = AliasCoverageCollector = FeedbackCollector
