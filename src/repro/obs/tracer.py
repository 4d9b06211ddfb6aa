"""Typed JSONL tracing with a null-tracer fast path.

A trace is a stream of JSON objects, one per line. Every record carries:

* ``type`` — one of :data:`EVENT_TYPES`;
* ``t`` — seconds since the tracer was created (monotonic clock);
* ``seq`` — a per-tracer monotonically increasing sequence number.

plus event-specific fields. The first record is always a
``trace_header`` carrying :data:`SCHEMA_VERSION`, so consumers can
reject traces written by an incompatible layer.

:class:`NullTracer` is the disabled implementation: ``emit`` and
``span`` are no-ops, ``enabled`` is False so callers can skip building
event payloads entirely. Production code should test ``tracer.enabled``
before assembling expensive fields and otherwise just call ``emit``.
"""

import json
import time

#: Bump when a record's meaning or required fields change.
SCHEMA_VERSION = 1

#: Every record type the layer may emit.
EVENT_TYPES = frozenset({
    "trace_header",      # first line: schema version
    "run_start",         # one engine session (or parallel service) begins
    "run_end",           # ... ends; carries the result summary
    "seed_start",        # seed tier: a new seed enters the loop
    "interleaving",      # interleaving tier: a queue entry becomes sync points
    "campaign",          # one execution finished (coverage deltas attached)
    "corpus_load",       # seed corpus restored from a --corpus-dir
    "corpus_seed",       # an evolved seed settled (retained or dropped)
    "candidate",         # new unique inconsistency candidate
    "inconsistency",     # new unique confirmed inconsistency
    "verdict",           # post-failure validation verdict
    "validate_drain",    # deferred validation queue drained (cache stats)
    "validate_upgrade",  # a PENDING record received a duplicate's image
    "worker",            # parallel service absorbed one worker attempt
    "session_checkpoint",  # durable session: merged checkpoint committed
    "session_resume",    # durable session: resumed from journal+checkpoint
    "replay_start",      # repro replay: one bundle re-execution begins
    "replay_divergence", # ... the schedule diverged (first mismatch)
    "replay_end",        # ... ends; carries the reproduction verdict
    "shrink_step",       # repro shrink: one ddmin candidate replayed
    "shrink_done",       # ... minimization finished (size summary)
    "span_begin",        # explicit span (paired with span_end)
    "span_end",
    "metrics_snapshot",  # embedded metrics dump
})

#: Fields every record must carry.
REQUIRED_FIELDS = ("type", "t", "seq")


def _jsonable(value):
    """Best-effort conversion of event field values to JSON-safe types."""
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, (int, float)):
        # covers tainted-int subclasses too: collapse to the plain value
        return int(value) if isinstance(value, int) else float(value)
    return str(value)


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The do-nothing tracer: hot paths pay one truthiness check."""

    enabled = False

    def emit(self, event_type, **fields):
        """Discard the event."""

    def span(self, name, **fields):
        """Return a no-op context manager."""
        return _NULL_SPAN

    def flush(self):
        pass

    def close(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


#: Shared null instance — the default everywhere a tracer is accepted.
NULL_TRACER = NullTracer()


class _Span:
    __slots__ = ("tracer", "name", "fields", "start")

    def __init__(self, tracer, name, fields):
        self.tracer = tracer
        self.name = name
        self.fields = fields

    def __enter__(self):
        self.start = time.monotonic()
        self.tracer.emit("span_begin", name=self.name, **self.fields)
        return self

    def __exit__(self, *exc):
        self.tracer.emit("span_end", name=self.name,
                         duration_s=round(time.monotonic() - self.start, 6),
                         **self.fields)
        return False


class Tracer(NullTracer):
    """JSONL tracer writing to a path or a file-like sink.

    Args:
        sink: A filesystem path (opened for writing, closed by
            :meth:`close`) or any object with ``write(str)`` — e.g. an
            ``io.StringIO`` in tests.
    """

    enabled = True

    def __init__(self, sink):
        self._t0 = time.monotonic()
        self._seq = 0
        if hasattr(sink, "write"):
            self._handle = sink
            self._owns_handle = False
        else:
            self._handle = open(sink, "w")
            self._owns_handle = True
        self.emit("trace_header", schema=SCHEMA_VERSION)

    def emit(self, event_type, **fields):
        """Write one typed record; unknown types are a programming error."""
        if event_type not in EVENT_TYPES:
            raise ValueError("unknown trace event type %r" % (event_type,))
        record = {"type": event_type,
                  "t": round(time.monotonic() - self._t0, 6),
                  "seq": self._seq}
        for key, value in fields.items():
            record[key] = _jsonable(value)
        self._seq += 1
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")

    def span(self, name, **fields):
        """Context manager emitting paired span_begin/span_end records."""
        return _Span(self, name, fields)

    def flush(self):
        flush = getattr(self._handle, "flush", None)
        if flush is not None:
            flush()

    def close(self):
        if self._handle is None:
            return
        self.flush()
        if self._owns_handle:
            self._handle.close()
        self._handle = None

    def emit_metrics(self, metrics):
        """Embed a metrics snapshot into the trace."""
        self.emit("metrics_snapshot", metrics=metrics.snapshot())


# ----------------------------------------------------------------------
# consumption helpers

def validate_record(record):
    """Raise ValueError if ``record`` is not a schema-valid trace record."""
    if not isinstance(record, dict):
        raise ValueError("trace record must be an object: %r" % (record,))
    for field in REQUIRED_FIELDS:
        if field not in record:
            raise ValueError("trace record missing %r: %r" % (field, record))
    if record["type"] not in EVENT_TYPES:
        raise ValueError("unknown trace record type %r" % (record["type"],))
    if record["type"] == "trace_header" and \
            record.get("schema") != SCHEMA_VERSION:
        raise ValueError("unsupported trace schema %r (want %d)"
                         % (record.get("schema"), SCHEMA_VERSION))
    return record


def read_trace(source, validate=True):
    """Yield records from a JSONL trace path or iterable of lines."""
    if isinstance(source, str):
        with open(source) as handle:
            yield from read_trace(handle, validate=validate)
        return
    for line in source:
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if validate and record.get("type") in EVENT_TYPES:
            validate_record(record)
        yield record
