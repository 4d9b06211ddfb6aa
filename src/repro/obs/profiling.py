"""Profiling hooks: per-phase wall time and execs/sec sampling.

The engine owns one :class:`RunProfiler` per session (the shared
:data:`NULL_PROFILER` when profiling is disabled) and stores its
:meth:`to_dict` output on ``RunResult.profile`` — the single source of
truth benchmarks read throughput numbers from. Phases are coarse engine
stages (state provision, campaign execution, feedback harvesting), *not*
per-access hooks, so the profiler's own cost is a few monotonic-clock
reads per campaign.
"""

import contextlib
import time


class _Phase:
    __slots__ = ("profiler", "name", "start")

    def __init__(self, profiler, name):
        self.profiler = profiler
        self.name = name

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        elapsed = time.monotonic() - self.start
        times = self.profiler.phase_seconds
        times[self.name] = times.get(self.name, 0.0) + elapsed
        counts = self.profiler.phase_counts
        counts[self.name] = counts.get(self.name, 0) + 1
        return False


class RunProfiler:
    """Accumulates phase wall times and (elapsed, execs) samples.

    Args:
        sample_interval: Minimum seconds between consecutive execs/sec
            samples; the first and last samples are always kept.
    """

    def __init__(self, sample_interval=0.25):
        self.sample_interval = sample_interval
        self.phase_seconds = {}
        self.phase_counts = {}
        self.samples = []
        self._t0 = time.monotonic()
        self._last_sample = None

    def phase(self, name):
        """Context manager timing one engine phase occurrence."""
        return _Phase(self, name)

    def sample(self, executions):
        """Record an (elapsed_s, executions) point, rate-limited."""
        now = time.monotonic() - self._t0
        if self._last_sample is not None and \
                now - self._last_sample < self.sample_interval:
            return
        self._last_sample = now
        self.samples.append((round(now, 6), executions))

    def to_dict(self, duration, executions):
        """Freeze into the plain dict stored on ``RunResult.profile``."""
        if not self.samples or self.samples[-1][1] != executions:
            self.samples.append((round(time.monotonic() - self._t0, 6),
                                 executions))
        return {
            "duration_s": round(duration, 6),
            "executions": executions,
            "execs_per_sec": round(executions / duration, 3)
            if duration > 0 else 0.0,
            "phase_seconds": {name: round(seconds, 6) for name, seconds
                              in sorted(self.phase_seconds.items())},
            "phase_counts": dict(sorted(self.phase_counts.items())),
            "samples": [list(point) for point in self.samples],
        }


_NULL_PHASE = contextlib.nullcontext()


class NullProfiler:
    """The disabled profiler: same interface, no clock reads, and an
    empty ``RunResult.profile``."""

    def phase(self, name):
        """Return a shared no-op context manager."""
        return _NULL_PHASE

    def sample(self, executions):
        """Discard the sample."""

    def to_dict(self, duration, executions):
        return {}


#: Shared null instance, used by the engine when ``profile`` is off.
NULL_PROFILER = NullProfiler()


def merge_profiles(base, other):
    """Combine two ``RunResult.profile`` dicts (either may be empty).

    Durations and executions add; phase timings add per phase; the other
    side's samples are appended with its duration offset applied, mirroring
    how ``RunResult.merge`` concatenates coverage timelines.
    """
    if not other:
        return dict(base) if base else {}
    if not base:
        return dict(other)
    offset = base.get("duration_s", 0.0)
    duration = offset + other.get("duration_s", 0.0)
    executions = base.get("executions", 0) + other.get("executions", 0)
    phase_seconds = dict(base.get("phase_seconds", {}))
    for name, seconds in other.get("phase_seconds", {}).items():
        phase_seconds[name] = round(phase_seconds.get(name, 0.0) + seconds, 6)
    phase_counts = dict(base.get("phase_counts", {}))
    for name, count in other.get("phase_counts", {}).items():
        phase_counts[name] = phase_counts.get(name, 0) + count
    samples = [list(point) for point in base.get("samples", [])]
    samples.extend([round(t + offset, 6), n]
                   for t, n in other.get("samples", []))
    return {
        "duration_s": round(duration, 6),
        "executions": executions,
        "execs_per_sec": round(executions / duration, 3)
        if duration > 0 else 0.0,
        "phase_seconds": dict(sorted(phase_seconds.items())),
        "phase_counts": dict(sorted(phase_counts.items())),
        "samples": samples,
    }
