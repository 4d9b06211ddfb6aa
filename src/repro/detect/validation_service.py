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
* **Digest cache** — each distinct crash image (keyed by its exact
  contents, :func:`image_digest`) is replayed exactly once; its
  :class:`~repro.detect.postfailure.ReplayResult` (coalesced
  ``WriteRecorder`` intervals + the recovered state for sync-variable
  reads, kept as a line delta over the input image's base) is reused by
  every record carrying an equal image. The cache is pure reuse: a hit
  is an equality of contents, so verdicts are byte-identical to
  uncached replay, and an entry holds no pool, so it costs what
  recovery wrote rather than the pool size.
* **PENDING upgrades** — a record whose first occurrence carried no
  crash image used to be stamped ``PENDING`` forever while dedup-equal
  duplicates (including ones *with* images) were dropped. The queue
  keeps an index of imageless records by dedup key; when a duplicate
  later carries an image, :meth:`ValidationQueue.offer_image` attaches
  it and schedules re-validation.
* **One pool per drain** — every cache miss of one :meth:`~
  ValidationQueue.drain` replays on the same pool: the validator resets
  it to the next image from that image's key (zeroing the pages the
  previous image held and the lines recovery wrote, then writing the
  key's pages) instead of copying a pool-sized image into two new
  buffers, and drops it when the drain ends. A pool a replay raised in
  is never reused; the uncached queue (``cache=False``) and the hang
  probe's private replay build a fresh pool each.
* **Fault containment** lives in
  :meth:`~repro.detect.postfailure.PostFailureValidator.replay`: a
  step/time budget per replay, one retry on genuine crashes, and the
  exception text captured into ``record.note``.
"""

from collections import deque
from itertools import groupby

from ..obs.tracer import NULL_TRACER
from ..pmem.cacheline import CACHE_LINE_SIZE, LINE_SHIFT
from ..pmem.memory import CrashImage
from .postfailure import PostFailureValidator
from .whitelist import Whitelist

#: An image key holds each page of this many bytes that is not all zero.
KEY_PAGE = 4096
#: Zero runs of this many bytes are skipped with one comparison before
#: the pages of a non-zero run are checked.
KEY_CHUNK = 16 * KEY_PAGE
_ZEROS = memoryview(bytes(KEY_CHUNK))


def _nonzero_pages(data):
    """``(offset, page)`` for each page of ``bytes`` that is not all zero."""
    size = len(data)
    for chunk in range(0, size, KEY_CHUNK):
        chunk_end = min(chunk + KEY_CHUNK, size)
        if data.startswith(_ZEROS[:chunk_end - chunk], chunk):
            continue
        for page in range(chunk, chunk_end, KEY_PAGE):
            end = min(page + KEY_PAGE, chunk_end)
            if not data.startswith(_ZEROS[:end - page], page):
                yield page, data[page:end]


def image_digest(image):
    """Exact content key of one crash image.

    The key is ``(length, (offset, page), ...)`` with every
    :data:`KEY_PAGE`-byte page of the image that is not all zero, in
    address order (the last page may be shorter). Equal images give
    equal keys and a key determines its image, so a cache hit is an
    equality of contents. A pool image is mostly zero (a 1 MiB P-CLHT
    image has 2–6 non-zero pages of 256), and zero pages are found with
    ``bytes.startswith`` — a ``memcmp`` against zeros, no slice copy —
    so a key costs one compare pass over the image plus a copy of its
    non-zero pages, which the cache entry then holds. A
    :class:`~repro.pmem.memory.CrashImage` keys equal to its ``bytes()``
    without building them: its base's pages, with the pages its delta
    lines fall in patched.
    """
    if not isinstance(image, CrashImage):
        if type(image) is not bytes:
            image = bytes(image)
        return (len(image),) + tuple(_nonzero_pages(image))
    base = image.base
    pages = dict(_nonzero_pages(base))
    for page, lines in groupby(image.delta,
                               lambda item: item[0] << LINE_SHIFT & -KEY_PAGE):
        end = min(page + KEY_PAGE, len(base))
        patched = bytearray(base[page:end])
        for line, data in lines:
            start = (line << LINE_SHIFT) - page
            patched[start:start + CACHE_LINE_SIZE] = data
        if patched.startswith(_ZEROS[:end - page]):
            pages.pop(page, None)
        else:
            pages[page] = bytes(patched)
    return (len(base),) + tuple(sorted(pages.items()))


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
                          metrics=None):
    """A standalone cached :class:`ValidationQueue` for ``target_name``.

    ``repro validate`` and the replay/shrink tooling validate records
    outside any engine instance; this builds the same validator + queue
    stack the engine wires up, from just a registry target name.
    """
    from ..targets.registry import make_target

    target = make_target(target_name)
    validator = PostFailureValidator(
        fresh_target_factory(target), whitelist or Whitelist(),
        tracer=tracer, metrics=metrics)
    return ValidationQueue(validator, tracer=tracer, metrics=metrics)


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
            ``validate.queue.depth`` gauge (the validator counts
            ``validate.pool_builds``).
        cache: Disable to replay every record's image individually
            (the uncached reference the cache must agree with).
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
            self.validator.load(image, digest)
            replay = self.validator.replay(image)
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
        try:
            while self._queue:
                record = self._queue.popleft()
                self._queued_ids.discard(id(record))
                self.validator.validate(record,
                                        replay=self._replay_for(record))
                drained += 1
        finally:
            # The replay pool lives for one drain, not between drains.
            self.validator.release()
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

