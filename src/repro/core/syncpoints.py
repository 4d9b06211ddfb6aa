"""PM-aware thread scheduling via injected cond_wait/cond_signal (Fig. 6).

Given one entry from the shared-access priority queue, loads from the
entry are *sync points*: a ``cond_wait`` is injected before each, stalling
the reader until some other thread executes one of the entry's stores —
at which point ``cond_signal`` sets the condition and stalls the *writer*
for a while (``writerWaiting``) so the readers consume the data **before
it is flushed**, driving the execution into PM Inter-thread Inconsistency
Candidates.

The three pitfalls of §4.2.2 are implemented:

* **Pitfall 1** — once signaled, the condition stays set for the rest of
  the campaign, so later executions of the sync point do not stall.
* **Pitfall 2** — if *all* threads are blocked waiting for a writer that
  does not exist, one thread is randomly selected as privileged and
  bypasses every ``cond_wait`` from then on.
* **Pitfall 3** — if *some* thread waits too long, the sync point is
  disabled for this campaign and its *initial skip* is increased, so the
  next campaign on the same seed skips the early (initialization-stage)
  executions of that sync point instead of blocking on them.
"""

import random


class SyncPointController:
    """One campaign's Figure-6 synchronization algorithm.

    Args:
        entry: A :class:`~repro.core.priority.SharedAccessEntry`.
        scheduler: The campaign's scheduler.
        rng: Seeded RNG for privileged-thread selection.
        writer_waiting: Yield rounds the writer stalls after signaling
            ("the typical total execution time of the original program").
        initial_skips: instr_id → number of cond_wait executions to skip,
            carried over from previous campaigns on the same seed.
        all_block_threshold: Per-thread spin count that, when reached by
            every live thread, triggers the privileged-thread escape.
        some_block_threshold: Spin count after which the waiting thread
            gives up and disables the sync point (Pitfall 3).
        callsites: Optional CallSiteTable to resolve interned instruction
            ids into ``module:function:line`` for blocked-reason strings
            (hang signatures must stay human-readable and stable).
    """

    def __init__(self, entry, scheduler, rng=None, writer_waiting=150,
                 initial_skips=None, all_block_threshold=40,
                 some_block_threshold=1000, callsites=None):
        self.entry = entry
        self.scheduler = scheduler
        self.rng = rng or random.Random(0)
        self.callsites = callsites
        self.writer_waiting = writer_waiting
        self.all_block_threshold = all_block_threshold
        self.some_block_threshold = some_block_threshold
        #: Figure 6's ``m``: the condition variable.
        self.signaled = False
        #: Figure 6's ``sync.is_enabled``.
        self.enabled = True
        self._skips = dict(initial_skips or {})
        self._wait_counts = {}
        #: instr_id → new initial skip to persist for the next campaign.
        self.updated_skips = {}
        #: How many cond_waits actually stalled (diagnostics).
        self.stall_count = 0
        self.signal_count = 0
        self.privileged_tid = None

    # ------------------------------------------------------------------
    # hook-layer callbacks

    def before_load(self, addr, instr_id, thread):
        """Figure 6's ``cond_wait``, injected before sync-point loads."""
        if not self.enabled or thread.bypass_sync or self.signaled:
            return
        if instr_id not in self.entry.load_instrs:
            return
        count = self._wait_counts.get(instr_id, 0)
        self._wait_counts[instr_id] = count + 1
        skip = self._skips.get(instr_id, 0)
        if skip > 0:
            self._skips[instr_id] = skip - 1
            return
        self.stall_count += 1
        site = self.callsites.name(instr_id) if self.callsites is not None \
            else instr_id
        reason = "cond_wait:%s" % site
        scheduler = self.scheduler
        start = thread.steps

        def blocked():
            # True while the loop below would only yield again: still
            # waiting, and neither pitfall threshold fires yet. A pure
            # read, so the scheduler can evaluate it for a parked thread.
            spins = thread.steps - start
            return (not self.signaled and self.enabled
                    and not thread.bypass_sync
                    and spins < self.some_block_threshold
                    and not (spins >= self.all_block_threshold
                             and scheduler.all_threads_blocked(
                                 self.all_block_threshold // 2)))

        while not self.signaled and self.enabled and not thread.bypass_sync:
            scheduler.park("spin", reason, blocked)
            spins = thread.steps - start
            if (spins >= self.all_block_threshold
                    and scheduler.all_threads_blocked(
                        self.all_block_threshold // 2)):
                # Pitfall 2: every thread waits on a writer that does not
                # exist; elect a privileged thread to break the tie.
                live = [t for t in scheduler.threads
                        if t.state.value != "done"]
                chosen = self.rng.choice(live)
                chosen.bypass_sync = True
                self.privileged_tid = chosen.tid
                if thread.bypass_sync:
                    break
            if spins >= self.some_block_threshold:
                # Pitfall 3: give up, disable, and remember to skip the
                # executions that led here in the next campaign.
                self.enabled = False
                self.updated_skips[instr_id] = (
                    self.updated_skips.get(instr_id, 0)
                    + self._wait_counts.get(instr_id, 0))
                break

    def after_store(self, addr, instr_id, thread):
        """Figure 6's ``cond_signal``, injected after sync-point stores."""
        if self.signaled or not self.enabled:
            return
        if instr_id not in self.entry.store_instrs and \
                addr != self.entry.addr:
            return
        self.signaled = True
        self.signal_count += 1
        # Stall the writer so readers run before the data is flushed:
        # writer_waiting op yields, taken as parked steps.
        if self.writer_waiting > 0:
            start = thread.steps
            self.scheduler.park(
                "op", None,
                lambda: thread.steps - start < self.writer_waiting)
