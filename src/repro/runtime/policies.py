"""Scheduling policies: how the next simulated thread is chosen.

Policies are the exploration substrate that §4.2.2 builds on. The
sync-point controller (``repro.core.syncpoints``) layers Figure 6's
``cond_wait``/``cond_signal`` on top of whichever policy is active, so the
policies here stay simple:

* :class:`RoundRobinPolicy` — fair deterministic rotation.
* :class:`SeededRandomPolicy` — uniform random successor from a seed; the
  default for fuzz campaigns (the "multiple runs with random scheduler"
  baseline in §7 falls out of reseeding it).
* :class:`DelayInjectionPolicy` — the paper's comparison scheme: before
  each PM access a random delay (bounded) is injected by putting the
  current thread to sleep for a few scheduling rounds.

Two meta-policies support deterministic reproducer bundles
(:mod:`repro.replay`): :class:`RecordingPolicy` journals every successor
decision an inner policy makes, and :class:`ReplayPolicy` re-drives a
recorded decision vector, falling back to a seeded policy — and noting
the first divergence — when the trace and the execution disagree.
"""

import random


class SchedulingPolicy:
    """Interface: ``pick`` a successor and observe ``on_yield`` events."""

    def pick(self, scheduler, candidates, prev):
        raise NotImplementedError

    def on_yield(self, scheduler, thread, kind):
        """Called at every yield point before successor selection."""

    def reset(self):
        """Reset per-run state (called between campaigns)."""


class RoundRobinPolicy(SchedulingPolicy):
    """Rotate through runnable threads in tid order."""

    def pick(self, scheduler, candidates, prev):
        if prev is None or prev not in scheduler.threads:
            return candidates[0]
        order = sorted(candidates, key=lambda t: t.tid)
        for thread in order:
            if thread.tid > prev.tid:
                return thread
        return order[0]


class SeededRandomPolicy(SchedulingPolicy):
    """Pick a uniformly random runnable thread from a seeded RNG."""

    def __init__(self, seed=0):
        self.seed = seed
        self.rng = random.Random(seed)

    def reset(self):
        self.rng = random.Random(self.seed)

    def reseed(self, seed):
        self.seed = seed
        self.rng = random.Random(seed)

    def pick(self, scheduler, candidates, prev):
        # ``self.rng.choice(candidates)`` without its two Python frames:
        # the same ``getrandbits(n.bit_length())`` draws with rejection
        # (``Random._randbelow``), so picks and RNG states equal choice's.
        n = len(candidates)
        if not n:
            raise IndexError("Cannot choose from an empty sequence")
        getrandbits = self.rng.getrandbits
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return candidates[r]


class DelayInjectionPolicy(SeededRandomPolicy):
    """Random delays before PM accesses (§6.1's "Delay Inj" baseline).

    Before each PM-access yield, with probability ``delay_prob`` the
    current thread sleeps for ``1..max_delay_steps`` scheduling rounds,
    emulating "a random delay (1 millisecond at most) following a uniform
    distribution".
    """

    def __init__(self, seed=0, delay_prob=0.25, max_delay_steps=12):
        super().__init__(seed)
        self.delay_prob = delay_prob
        self.max_delay_steps = max_delay_steps

    def on_yield(self, scheduler, thread, kind):
        if kind == "op" and self.rng.random() < self.delay_prob:
            thread.sleep_steps += self.rng.randint(1, self.max_delay_steps)


class RecordingPolicy(SchedulingPolicy):
    """Wrap a policy and journal every successor decision (as tids).

    The wrapper is transparent: ``pick``/``on_yield`` delegate to the
    inner policy, so the driven interleaving is identical with or
    without recording. ``decisions`` afterwards holds one tid per
    ``pick`` call, in order — the schedule decision vector a
    :class:`ReplayPolicy` can re-drive.
    """

    def __init__(self, inner):
        self.inner = inner
        self.decisions = []

    @property
    def divergence(self):
        """Pass-through when wrapping a :class:`ReplayPolicy`."""
        return getattr(self.inner, "divergence", None)

    def pick(self, scheduler, candidates, prev):
        chosen = self.inner.pick(scheduler, candidates, prev)
        self.decisions.append(chosen.tid)
        return chosen

    def on_yield(self, scheduler, thread, kind):
        self.inner.on_yield(scheduler, thread, kind)

    def reset(self):
        self.decisions = []
        self.inner.reset()


class ReplayPolicy(SchedulingPolicy):
    """Re-drive a recorded schedule decision vector.

    Each ``pick`` consumes the next recorded tid. When the recorded
    thread is not runnable (it already finished — the execution
    diverged from the recording) or the trace is exhausted before the
    run ends, the policy falls back to ``fallback`` (or the lowest-tid
    candidate) for that pick and keeps going: divergence must never
    crash the scheduler, it is *diagnosed*. Only the first divergence
    is kept, as a dict with the decision index, the expected tid, the
    tids that were actually runnable, and the scheduler step count —
    the diagnostics ``repro replay`` prints.
    """

    def __init__(self, decisions, fallback=None):
        self.decisions = list(decisions)
        self.fallback = fallback
        self.index = 0
        self.divergence = None

    def reset(self):
        self.index = 0
        self.divergence = None
        if self.fallback is not None:
            self.fallback.reset()

    def _diverge(self, scheduler, candidates, index, expected, reason):
        if self.divergence is None:
            self.divergence = {
                "index": index,
                "expected_tid": expected,
                "runnable_tids": sorted(t.tid for t in candidates),
                "step": scheduler.steps,
                "reason": reason,
            }

    def _fallback_pick(self, scheduler, candidates, prev):
        if self.fallback is not None:
            return self.fallback.pick(scheduler, candidates, prev)
        return min(candidates, key=lambda t: t.tid)

    def pick(self, scheduler, candidates, prev):
        index = self.index
        if index >= len(self.decisions):
            self._diverge(scheduler, candidates, index, None,
                          "trace-exhausted")
            return self._fallback_pick(scheduler, candidates, prev)
        tid = self.decisions[index]
        self.index = index + 1
        for thread in candidates:
            if thread.tid == tid:
                return thread
        self._diverge(scheduler, candidates, index, tid,
                      "thread-not-runnable")
        return self._fallback_pick(scheduler, candidates, prev)
