"""Observability: structured tracing and metrics.

The fuzzing engine, the parallel service, and the post-failure validator
all accept an optional :class:`Tracer` (typed JSONL span/event records)
and an optional :class:`Metrics` registry (counters, gauges, histograms)
that are threaded down into the hot paths — PM access hooks, the
scheduler step loop, coverage merges, priority-queue pops, validation
verdicts. Both default to *null* implementations whose cost on the hot
path is a single attribute check, so runs without observability pay
(almost) nothing; ``benchmarks/bench_obs_overhead.py`` measures that
null path against a run with both sinks attached.

``repro stats <file.jsonl>`` summarizes any trace or metrics file the
layer emits (see :mod:`repro.obs.stats`).
"""

from .metrics import Counter, Gauge, Histogram, Metrics, load_metrics
from .stats import render_stats, summarize_path, summarize_records
from .tracer import (
    EVENT_TYPES,
    NULL_TRACER,
    SCHEMA_VERSION,
    NullTracer,
    Tracer,
    read_trace,
    validate_record,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "EVENT_TYPES",
    "SCHEMA_VERSION",
    "read_trace",
    "validate_record",
    "Metrics",
    "Counter",
    "Gauge",
    "Histogram",
    "load_metrics",
    "summarize_path",
    "summarize_records",
    "render_stats",
]
