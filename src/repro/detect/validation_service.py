"""Deferred, cached, fault-contained post-failure validation (§4.4).

The engine used to replay full recovery synchronously inside its
``_harvest`` hot path, once per new record. This module moves validation
off the critical path and makes replay work proportional to *unique
crash images* instead of records:

* :class:`ValidationQueue` — records are enqueued as detection finds
  them and validated in FIFO order when the engine drains the queue
  between seeds and at run end (WITCHER-style batching: crash-image
  replay dominates validation wall-clock, so it must not interleave
  with fuzzing).
* **Digest cache** — each distinct crash image (keyed by CRC32 +
  length, :func:`image_digest`) is replayed exactly once; its
  :class:`~repro.detect.postfailure.ReplayResult` (coalesced
  ``WriteRecorder`` intervals + the recovered pool for sync-variable
  reads) is reused by every record carrying a dedup-equal image. The
  cache is pure reuse: verdicts are byte-identical to uncached replay.
* **PENDING upgrades** — a record whose first occurrence carried no
  crash image used to be stamped ``PENDING`` forever while dedup-equal
  duplicates (including ones *with* images) were dropped. The queue
  keeps an index of imageless records by dedup key; when a duplicate
  later carries an image, :meth:`ValidationQueue.offer_image` attaches
  it and schedules re-validation.
* **Fault containment** lives in
  :meth:`~repro.detect.postfailure.PostFailureValidator.replay`: a
  step/time budget per replay, one retry on genuine crashes, and the
  exception text captured into ``record.note``.

:func:`validate_records_parallel` spreads a batch of already-collected
records over a worker-process pool (the ``repro validate --jobs N``
path), partitioning by image digest so each unique image is replayed in
exactly one worker.
"""

import multiprocessing
import zlib
from collections import deque

from ..obs.tracer import NULL_TRACER
from .postfailure import PostFailureValidator
from .records import Verdict
from .whitelist import Whitelist


def image_digest(image):
    """Cheap stable digest of one crash image: (CRC32, length).

    CRC32 over the full image plus the length is collision-safe enough
    for a per-run cache key (images in one run share layout, differing
    in scattered words), and an order of magnitude cheaper than a
    cryptographic hash on the hot path.
    """
    return (zlib.crc32(image) & 0xFFFFFFFF, len(image))


def fresh_target_factory(target):
    """Zero-argument factory building a *fresh* peer of ``target``.

    Recovery must never run on the live fuzzing target (the
    :class:`~repro.detect.postfailure.PostFailureValidator` contract):
    a recovery routine that keeps instance state would contaminate both
    later replays and the ongoing run. Registry-known targets are
    rebuilt through :func:`repro.targets.registry.make_target` (the
    canonical construction path); any other target class — test doubles,
    user-supplied targets — is instantiated directly, which the Target
    contract guarantees is possible (subclasses are stateless and
    zero-argument constructible).
    """
    from ..targets.registry import make_target, target_class

    cls = type(target)
    name = getattr(target, "NAME", None)
    if isinstance(name, str):
        try:
            registered = target_class(name)
        except KeyError:
            registered = None
        if registered is cls:
            return lambda: make_target(name)
    return cls


def make_validation_queue(target_name, whitelist=None, tracer=None,
                          metrics=None, cache=True):
    """A standalone cached :class:`ValidationQueue` for ``target_name``.

    The replay/shrink tooling validates re-detected records outside any
    engine instance; this builds the same validator + queue stack the
    engine wires up, from just a registry target name.
    """
    from ..targets.registry import make_target

    target = make_target(target_name)
    validator = PostFailureValidator(
        fresh_target_factory(target), whitelist or Whitelist(),
        tracer=tracer, metrics=metrics)
    return ValidationQueue(validator, tracer=tracer, metrics=metrics,
                           cache=cache)


class ValidationQueue:
    """Deferred post-failure validation with a crash-image replay cache.

    Args:
        validator: The :class:`~repro.detect.postfailure.
            PostFailureValidator` that replays images and assigns
            verdicts.
        tracer: Optional tracer; every drain emits a ``validate_drain``
            event and every PENDING upgrade a ``validate_upgrade``.
        metrics: Optional metrics registry; maintains
            ``validate.cache.hits`` / ``validate.cache.misses`` /
            ``validate.upgrades`` counters and the
            ``validate.queue.depth`` gauge.
        cache: Disable to replay every record's image individually
            (the A/B knob ``benchmarks/bench_validation.py`` measures).
    """

    def __init__(self, validator, tracer=None, metrics=None, cache=True):
        self.validator = validator
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.cache_enabled = cache
        self._queue = deque()
        self._queued_ids = set()
        #: dedup key -> imageless record awaiting an image (the
        #: re-validation hook `offer_image` drains).
        self._awaiting_image = {}
        self._cache = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.upgrades = 0
        self.validated = 0
        if metrics is not None:
            self._depth_gauge = metrics.gauge("validate.queue.depth")
            self._hit_counter = metrics.counter("validate.cache.hits")
            self._miss_counter = metrics.counter("validate.cache.misses")
            self._upgrade_counter = metrics.counter("validate.upgrades")
        else:
            self._depth_gauge = None
            self._hit_counter = None
            self._miss_counter = None
            self._upgrade_counter = None

    def __len__(self):
        return len(self._queue)

    @property
    def awaiting_image(self):
        """Count of PENDING records still waiting for a crash image."""
        return len(self._awaiting_image)

    # ------------------------------------------------------------------
    # intake

    def register(self, record):
        """Index an imageless record so a later duplicate can upgrade it.

        Called for every new unique record even when validation is
        disabled, so the ``validate`` CLI's deferred pass still benefits
        from images that arrive on later duplicates.
        """
        if record.crash_image is None:
            self._awaiting_image[record.dedup_key()] = record

    def enqueue(self, record):
        """Schedule one record for the next drain."""
        self.register(record)
        self._queue.append(record)
        self._queued_ids.add(id(record))
        if self._depth_gauge is not None:
            self._depth_gauge.set(len(self._queue))

    def offer_image(self, key, image):
        """Attach a duplicate's crash image to the record indexed at
        ``key``; schedules re-validation when the record already went
        through a drain as PENDING. Returns True when an upgrade
        happened."""
        if image is None:
            return False
        record = self._awaiting_image.pop(key, None)
        if record is None:
            return False
        record.crash_image = image
        self.upgrades += 1
        if self._upgrade_counter is not None:
            self._upgrade_counter.inc()
        if self.tracer.enabled:
            self.tracer.emit("validate_upgrade", kind=record.kind,
                             key=list(key))
        if id(record) not in self._queued_ids:
            # Already drained (stamped PENDING, "no crash image
            # captured") — or validation is deferred to an external
            # pass; either way the attached image makes the record
            # judgeable, so queue it (again).
            self._queue.append(record)
            self._queued_ids.add(id(record))
            if self._depth_gauge is not None:
                self._depth_gauge.set(len(self._queue))
        return True

    # ------------------------------------------------------------------
    # drain

    def _replay_for(self, record):
        """The (possibly cached) ReplayResult for the record's image."""
        image = record.crash_image
        if image is None:
            return None
        if not self.cache_enabled:
            self.cache_misses += 1
            if self._miss_counter is not None:
                self._miss_counter.inc()
            return self.validator.replay(image)
        digest = image_digest(image)
        replay = self._cache.get(digest)
        if replay is None:
            self.cache_misses += 1
            if self._miss_counter is not None:
                self._miss_counter.inc()
            replay = self.validator.replay(image)
            replay.shared = True
            self._cache[digest] = replay
        else:
            self.cache_hits += 1
            if self._hit_counter is not None:
                self._hit_counter.inc()
        return replay

    def drain(self):
        """Validate every queued record in arrival order; returns the
        number of records validated."""
        drained = 0
        while self._queue:
            record = self._queue.popleft()
            self._queued_ids.discard(id(record))
            self.validator.validate(record, replay=self._replay_for(record))
            drained += 1
        self.validated += drained
        if self._depth_gauge is not None:
            self._depth_gauge.set(0)
        if drained and self.tracer.enabled:
            self.tracer.emit("validate_drain", drained=drained,
                             cache_hits=self.cache_hits,
                             cache_misses=self.cache_misses,
                             awaiting_image=len(self._awaiting_image))
        return drained

    def stats(self):
        """Cache/queue statistics as a plain dict (CLI + tests)."""
        return {
            "validated": self.validated,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "unique_images": len(self._cache),
            "upgrades": self.upgrades,
            "awaiting_image": len(self._awaiting_image),
        }


# ----------------------------------------------------------------------
# parallel record validation (`repro validate --jobs N`)


def _validate_chunk(payload):
    """Pool entry point: validate one chunk of records, never raise.

    Returns ``(results, stats)`` where results are minimal
    ``(index, verdict value, note)`` tuples — crash images are shipped
    *to* workers but never back.
    """
    target_name, whitelist_entries, indexed_records, target_modules = \
        payload
    from ..targets.registry import load_target_modules

    if target_modules:
        # Re-register plugin targets in this worker interpreter before
        # resolving the target by name.
        load_target_modules(target_modules)
    queue = make_validation_queue(target_name,
                                  whitelist=Whitelist(whitelist_entries))
    records = [record for _index, record in indexed_records]
    for record in records:
        queue.enqueue(record)
    queue.drain()
    results = [(index, record.verdict.value, record.note)
               for (index, _), record in zip(indexed_records, records)]
    return results, queue.stats()


def validate_records_parallel(target_name, records, whitelist=None,
                              jobs=2, tracer=None, metrics=None,
                              target_modules=()):
    """Validate ``records`` with a pool of ``jobs`` worker processes.

    Records are partitioned by crash-image digest (imageless records
    round-robin), so each unique image is replayed in exactly one
    worker and the per-worker digest cache stays effective. Verdicts
    and notes are copied back onto the caller's record objects; the
    merged per-worker cache stats are returned as one dict. With one
    job (or one record) everything runs in-process, and only there do
    ``tracer`` events (drains, verdicts) reach the caller.
    """
    if jobs <= 1 or len(records) <= 1:
        queue = make_validation_queue(target_name, whitelist=whitelist,
                                      tracer=tracer, metrics=metrics)
        for record in records:
            queue.enqueue(record)
        queue.drain()
        return queue.stats()

    entries = list((whitelist or Whitelist()).entries)
    chunks = [[] for _ in range(jobs)]
    assignment = {}
    spill = 0
    for index, record in enumerate(records):
        if record.crash_image is None:
            chunk = spill % jobs
            spill += 1
        else:
            digest = image_digest(record.crash_image)
            chunk = assignment.setdefault(digest, len(assignment) % jobs)
        chunks[chunk].append((index, record))
    payloads = [(target_name, entries, chunk, tuple(target_modules))
                for chunk in chunks if chunk]
    stats = {"validated": 0, "cache_hits": 0, "cache_misses": 0,
             "unique_images": 0, "upgrades": 0, "awaiting_image": 0}
    pool = multiprocessing.Pool(min(jobs, len(payloads)))
    try:
        for results, chunk_stats in pool.map(_validate_chunk, payloads):
            for index, verdict_value, note in results:
                records[index].verdict = Verdict(verdict_value)
                records[index].note = note
                if metrics is not None:
                    metrics.counter("validate.verdict.%s"
                                    % verdict_value).inc()
            for key in stats:
                stats[key] += chunk_stats[key]
    finally:
        pool.close()
        pool.join()
    if metrics is not None:
        metrics.counter("validate.records").inc(stats["validated"])
        metrics.counter("validate.cache.hits").inc(stats["cache_hits"])
        metrics.counter("validate.cache.misses").inc(stats["cache_misses"])
    return stats
