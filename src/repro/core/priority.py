"""The priority queue of shared PM data accesses (§4.2.2).

Preemption points are selected by three principles: (1) PM accesses only,
(2) *shared* data — addresses touched by more than one thread, with both
loads and stores, (3) frequent access sites first. Each queue entry groups
the load and store instruction IDs observed at one address; the loads
become the sync points of one explored interleaving.

Instruction IDs here are whatever the event stream carries — interned
ints within a fuzzing run (one CallSiteTable spans all campaigns, so the
ids group correctly across campaigns). The queue never needs the string
form: entries feed the sync-point controller, which compares them against
other interned ids from the same table.
"""

from .coverage import FeedbackCollector

#: Old profiler name of the one collector; pmbench/layertrace.py imports it.
AccessProfiler = FeedbackCollector


class SharedAccessEntry:
    """One candidate preemption point group: an address plus its sites."""

    __slots__ = ("addr", "load_instrs", "store_instrs", "frequency")

    def __init__(self, addr, load_instrs, store_instrs, frequency):
        self.addr = addr
        self.load_instrs = frozenset(load_instrs)
        self.store_instrs = frozenset(store_instrs)
        self.frequency = frequency

    def key(self):
        """Identity for "already explored" bookkeeping."""
        return (self.load_instrs, self.store_instrs)

    def __repr__(self):
        return "<SharedAccessEntry addr=%#x loads=%d stores=%d freq=%d>" % (
            self.addr, len(self.load_instrs), len(self.store_instrs),
            self.frequency)


class SharedAccessQueue:
    """Priority queue over shared-data access groups, frequency-first.

    Addresses are grouped by their *store* instruction set: two addresses
    written by the same stores describe the same producer code, so one
    exploration (stalling their readers until one of those stores fires)
    covers both. Loads accumulate as the union of reader sites; the
    highest-frequency address represents the group for address-based
    signal matching.
    """

    def __init__(self, metrics=None):
        self._groups = {}
        self._explored = set()
        if metrics is not None:
            self._m_fetches = metrics.counter("queue.fetches")
            self._m_drained = metrics.counter("queue.drained")
            self._m_pending = metrics.gauge("queue.pending")
            self._m_groups = metrics.gauge("queue.groups")
        else:
            self._m_fetches = self._m_drained = None
            self._m_pending = self._m_groups = None

    def update_from(self, profiler):
        """Fold one campaign's profile (a :class:`~repro.core.coverage.
        FeedbackCollector`'s ``profile``) into the queue."""
        for addr, info in profiler.profile.items():
            if len(info["tids"]) < 2:
                continue
            if not info["loads"] or not info["stores"]:
                continue
            key = frozenset(info["stores"])
            group = self._groups.get(key)
            if group is None:
                self._groups[key] = {
                    "loads": set(info["loads"]),
                    "frequency": info["count"],
                    "addr": addr,
                    "addr_freq": info["count"],
                }
            else:
                group["loads"] |= set(info["loads"])
                group["frequency"] += info["count"]
                if info["count"] > group["addr_freq"]:
                    group["addr"] = addr
                    group["addr_freq"] = info["count"]
        if self._m_groups is not None:
            self._m_groups.set(len(self._groups))
            self._m_pending.set(self.pending())

    def fetch(self):
        """Pop the most frequent unexplored group, or None when drained."""
        best_key, best = None, None
        for key, group in self._groups.items():
            if key in self._explored:
                continue
            if best is None or group["frequency"] > best["frequency"]:
                best_key, best = key, group
        if best is None:
            if self._m_drained is not None:
                self._m_drained.inc()
            return None
        self._explored.add(best_key)
        if self._m_fetches is not None:
            self._m_fetches.inc()
            self._m_pending.set(self.pending())
        return SharedAccessEntry(best["addr"], best["loads"], best_key,
                                 best["frequency"])

    def reset_exploration(self):
        """Forget which entries were explored (used when switching seeds)."""
        self._explored.clear()

    def clear(self):
        self._groups.clear()
        self._explored.clear()

    def __len__(self):
        return len(self._groups)

    def pending(self):
        """Number of groups not yet explored."""
        return sum(1 for key in self._groups if key not in self._explored)
