"""Deferred validation service tests: queue, cache, upgrades, containment.

The invariant the digest cache must uphold — cached verdicts are
byte-identical to uncached per-record replay — is checked both by
hand-built cases and a seeded Hypothesis property over randomized crash
images.
"""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import PMRace, PMRaceConfig, RunResult
from repro.detect import (
    PostFailureValidator,
    ValidationQueue,
    Verdict,
    fresh_target_factory,
    image_digest,
)
from repro.detect.validation_service import KEY_PAGE, make_validation_queue
from repro.detect.records import (
    CandidateRecord,
    InconsistencyRecord,
    SyncInconsistencyRecord,
)
from repro.obs.metrics import Metrics
from repro.pmem import PmemPool
from repro.targets import make_target, target_names

from ..core.toy_target import ToyTarget
from .test_postfailure import MiniTarget

POOL_SIZE = 2048
#: MiniTarget's recovery overwrites [1024, 1088) and re-inits u64 @ 512.
RECOVERED_ADDR = 1024
UNRECOVERED_ADDR = 1536
LOCK_ADDR = 768


def make_image(fill=0, lock=0):
    pool = PmemPool("vs", POOL_SIZE)
    if fill:
        pool.write_bytes(0, bytes([fill]) * POOL_SIZE)
    if lock:
        pool.write_u64(LOCK_ADDR, lock)
    pool.memory.persist_all()
    return pool.crash_image()


def make_record(image, addr, size=8, effect_instr="effect:0"):
    candidate = CandidateRecord(1, addr, size, "read:%s" % effect_instr,
                                "write:%s" % effect_instr, 0, 1, (), 0)
    return InconsistencyRecord(candidate, effect_instr, addr, size,
                               (), (), image)


def make_sync_record(image, addr=LOCK_ADDR, value=1, name="lock"):
    """The image must carry the stale ``value`` at ``addr`` (use
    ``make_image(lock=value)``) or validation short-circuits benign."""
    return SyncInconsistencyRecord(name, addr, 8, 0, value,
                                   "site:%s" % name, (), image)


class CountingValidator(PostFailureValidator):
    """Counts replays and records drain order for the queue tests."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.replays = 0
        self.order = []

    def replay(self, image):
        self.replays += 1
        return super().replay(image)

    def validate(self, record, replay=None):
        self.order.append(record)
        return super().validate(record, replay=replay)


class TestQueueDrain:
    def test_fifo_order(self):
        image = make_image()
        validator = CountingValidator(MiniTarget)
        queue = ValidationQueue(validator)
        records = [make_record(image, RECOVERED_ADDR,
                               effect_instr="effect:%d" % i)
                   for i in range(5)]
        for record in records:
            queue.enqueue(record)
        assert len(queue) == 5
        assert queue.drain() == 5
        assert validator.order == records
        assert len(queue) == 0

    def test_redrain_is_empty(self):
        queue = ValidationQueue(CountingValidator(MiniTarget))
        queue.enqueue(make_record(make_image(), RECOVERED_ADDR))
        assert queue.drain() == 1
        assert queue.drain() == 0

    def test_unique_image_replayed_once(self):
        image = make_image()
        validator = CountingValidator(MiniTarget)
        queue = ValidationQueue(validator)
        for i in range(4):
            queue.enqueue(make_record(image, RECOVERED_ADDR,
                                      effect_instr="effect:%d" % i))
        queue.drain()
        assert validator.replays == 1
        assert queue.cache_hits == 3 and queue.cache_misses == 1

    def test_distinct_images_replayed_each(self):
        validator = CountingValidator(MiniTarget)
        queue = ValidationQueue(validator)
        queue.enqueue(make_record(make_image(1), RECOVERED_ADDR))
        queue.enqueue(make_record(make_image(2), RECOVERED_ADDR,
                                  effect_instr="effect:1"))
        queue.drain()
        assert validator.replays == 2
        assert queue.stats()["unique_images"] == 2

    def test_cache_disabled_replays_every_record(self):
        image = make_image()
        validator = CountingValidator(MiniTarget)
        queue = ValidationQueue(validator, cache=False)
        for i in range(3):
            queue.enqueue(make_record(image, RECOVERED_ADDR,
                                      effect_instr="effect:%d" % i))
        queue.drain()
        assert validator.replays == 3
        assert queue.cache_hits == 0

    def test_cached_verdict_matches_uncached(self):
        image = make_image()
        specs = [(RECOVERED_ADDR, Verdict.VALIDATED_FP),
                 (UNRECOVERED_ADDR, Verdict.BUG),
                 (RECOVERED_ADDR, Verdict.VALIDATED_FP)]
        for cache in (True, False):
            queue = ValidationQueue(PostFailureValidator(MiniTarget),
                                    cache=cache)
            records = [make_record(image, addr, effect_instr="e:%d" % i)
                       for i, (addr, _) in enumerate(specs)]
            for record in records:
                queue.enqueue(record)
            queue.drain()
            assert [r.verdict for r in records] == [v for _, v in specs]


def image_from_key(key, size):
    """The ``size``-byte image a key determines: zeros plus its pages."""
    assert key[0] == size
    image = bytearray(size)
    pages = key[1:]
    for offset, page in pages:
        image[offset:offset + len(page)] = page
    return bytes(image)


#: Two values of the u64 at FLAG_ADDR whose 2 KiB images (lock word at
#: LOCK_ADDR = 1, all else zero) have equal (CRC32, length). CRC32 is
#: affine, so any pair whose xor is in the kernel of the word's
#: position collides; this one came from a fixed-seed birthday search.
FLAG_ADDR = 256
COLLIDING_FLAGS = (0xa81102fe023f8b0e, 0x49094ec81a85b8b5)


class _FlagRecoveryTarget:
    """Recovery re-initializes the lock only when the flag is even."""

    def recover(self, pool, view):
        if view.load_u64(FLAG_ADDR) % 2 == 0:
            view.ntstore_u64(LOCK_ADDR, 0)
            view.sfence()
        return self


class TestExactImageKey:
    @pytest.mark.parametrize("size", [576, 2112, 3 * KEY_PAGE + 576])
    def test_key_determines_image_with_final_partial_page(self, size):
        image = bytearray(size)
        image[size - 100:] = bytes(range(1, 101))
        key = image_digest(bytes(image))
        assert image_from_key(key, size) == image
        assert [offset for offset, _page in key[1:]] == [
            size - size % KEY_PAGE]
        assert image_digest(bytes(size)) == (size,)

    @pytest.mark.parametrize("size", [576, 2112, 1 << 20])
    def test_images_differing_in_last_byte_key_apart(self, size):
        image = bytearray(size)
        image[0] = 7
        other = bytearray(image)
        other[-1] = 1
        assert image_digest(bytes(image)) != image_digest(bytes(other))
        assert image_from_key(image_digest(bytes(other)), size) == other

    def test_one_line_megabyte_image_keys_one_page(self):
        image = bytearray(1 << 20)
        image[0x52340:0x52380] = b"\x5a" * 64
        key = image_digest(bytes(image))
        assert key == (1 << 20, (0x52000, bytes(image[0x52000:0x53000])))

    def test_crash_image_and_bytearray_key_as_bytes(self):
        image = make_image(fill=3, lock=1)
        data = bytes(image)
        assert image_digest(image) == image_digest(data)
        assert image_digest(bytearray(data)) == image_digest(data)

    def test_crc_collision_replays_each_image(self):
        images = []
        for flag in COLLIDING_FLAGS:
            pool = PmemPool("vs", POOL_SIZE)
            pool.write_u64(LOCK_ADDR, 1)
            pool.write_u64(FLAG_ADDR, flag)
            pool.memory.persist_all()
            images.append(bytes(pool.crash_image()))
        assert images[0] != images[1]
        assert len({(zlib.crc32(image), len(image)) for image in images}) == 1
        validator = CountingValidator(_FlagRecoveryTarget)
        queue = ValidationQueue(validator)
        records = [make_sync_record(image) for image in images]
        for record in records:
            queue.enqueue(record)
        queue.drain()
        assert validator.replays == 2 and queue.cache_hits == 0
        assert [r.verdict for r in records] == [Verdict.VALIDATED_FP,
                                                Verdict.BUG]


class TestPendingUpgrade:
    def test_imageless_record_upgraded_by_duplicate_image(self):
        validator = PostFailureValidator(MiniTarget)
        queue = ValidationQueue(validator)
        record = make_record(None, RECOVERED_ADDR)
        queue.enqueue(record)
        queue.drain()
        assert record.verdict is Verdict.PENDING
        assert "no crash image" in record.note
        # A dedup-equal duplicate shows up later *with* an image.
        assert queue.offer_image(record.dedup_key(), make_image())
        assert len(queue) == 1
        queue.drain()
        assert record.verdict is Verdict.VALIDATED_FP
        assert queue.upgrades == 1

    def test_offer_none_image_is_noop(self):
        queue = ValidationQueue(PostFailureValidator(MiniTarget))
        record = make_record(None, RECOVERED_ADDR)
        queue.enqueue(record)
        assert not queue.offer_image(record.dedup_key(), None)
        assert queue.awaiting_image == 1

    def test_offer_unknown_key_is_noop(self):
        queue = ValidationQueue(PostFailureValidator(MiniTarget))
        assert not queue.offer_image(("inter", "w", "r", "e"), make_image())

    def test_upgrade_before_first_drain_validates_once(self):
        # Image arrives while the record is still queued: one drain, one
        # verdict, no PENDING interlude.
        queue = ValidationQueue(PostFailureValidator(MiniTarget))
        record = make_record(None, RECOVERED_ADDR)
        queue.enqueue(record)
        queue.offer_image(record.dedup_key(), make_image())
        assert len(queue) == 1  # not re-queued: it never left
        queue.drain()
        assert record.verdict is Verdict.VALIDATED_FP

    def test_register_only_indexes_without_queueing(self):
        # Validation disabled: records are registered so a later
        # duplicate's image still attaches for the external pass.
        queue = ValidationQueue(PostFailureValidator(MiniTarget))
        record = make_record(None, RECOVERED_ADDR)
        queue.register(record)
        assert len(queue) == 0
        assert queue.offer_image(record.dedup_key(), make_image())
        assert record.crash_image is not None
        assert len(queue) == 1


class _FlakyRecoveryTarget:
    """Fails the first recovery, succeeds on the retry (class-level
    state because every replay constructs a fresh instance)."""

    failures_left = 0

    def recover(self, pool, view):
        cls = type(self)
        if cls.failures_left > 0:
            cls.failures_left -= 1
            raise RuntimeError("transient recovery failure")
        view.ntstore_bytes(RECOVERED_ADDR, b"\x00" * 64)
        view.sfence()
        return self


class _RunawayRecoveryTarget:
    def recover(self, pool, view):
        while True:
            view.load_u64(0)


class TestFaultContainment:
    def test_transient_crash_retried_once(self):
        _FlakyRecoveryTarget.failures_left = 1
        validator = PostFailureValidator(_FlakyRecoveryTarget)
        replay = validator.replay(make_image())
        assert replay.ok and replay.retried
        _FlakyRecoveryTarget.failures_left = 1
        record = make_record(make_image(), RECOVERED_ADDR)
        assert validator.validate(record) is Verdict.VALIDATED_FP

    def test_persistent_crash_is_bug_with_note(self):
        _FlakyRecoveryTarget.failures_left = 10
        validator = PostFailureValidator(_FlakyRecoveryTarget)
        record = make_record(make_image(), RECOVERED_ADDR)
        assert validator.validate(record) is Verdict.BUG
        assert "recovery failed" in record.note
        assert "persisted across one retry" in record.note
        _FlakyRecoveryTarget.failures_left = 0

    def test_budget_abort_stays_pending(self):
        validator = PostFailureValidator(_RunawayRecoveryTarget,
                                         replay_max_steps=500)
        record = make_record(make_image(), RECOVERED_ADDR)
        assert validator.validate(record) is Verdict.PENDING
        assert "replay budget exhausted" in record.note

    def test_budget_abort_not_retried(self):
        calls = []

        class Runaway(_RunawayRecoveryTarget):
            def recover(self, pool, view):
                calls.append(1)
                super().recover(pool, view)

        validator = PostFailureValidator(Runaway, replay_max_steps=500)
        replay = validator.replay(make_image())
        assert replay.budget_exceeded and not replay.ok
        assert len(calls) == 1

    def test_wall_clock_budget(self):
        validator = PostFailureValidator(_RunawayRecoveryTarget,
                                         replay_max_steps=10 ** 9,
                                         replay_max_seconds=0.05)
        replay = validator.replay(make_image())
        assert replay.budget_exceeded and replay.error

    def test_drain_survives_crashing_replays(self):
        _FlakyRecoveryTarget.failures_left = 10
        queue = ValidationQueue(PostFailureValidator(_FlakyRecoveryTarget))
        records = [make_record(make_image(i + 1), RECOVERED_ADDR,
                               effect_instr="e:%d" % i) for i in range(3)]
        for record in records:
            queue.enqueue(record)
        assert queue.drain() == 3
        assert all(r.verdict is Verdict.BUG for r in records)
        _FlakyRecoveryTarget.failures_left = 0


class _MixedValidator(PostFailureValidator):
    """Recovers each image with the target that produced it (found by
    its key) and logs ``(key, pool)`` per recovery; the recovery of
    ``raising`` writes, then raises."""

    def __init__(self, owners, raising, metrics=None):
        super().__init__(self._target, metrics=metrics)
        self.owners = owners
        self.raising = raising
        self.recoveries = []
        self._key = None

    def replay(self, image):
        self._key = image_digest(image)
        return super().replay(image)

    def _target(self):
        validator, key = self, self._key

        class Dispatch:
            def recover(self, pool, view):
                validator.recoveries.append((key, pool))
                if key == validator.raising:
                    view.store_u64(0, 0xdead)
                    raise RuntimeError("recovery raised halfway")
                return make_target(validator.owners[key]).recover(pool,
                                                                  view)
        return Dispatch()


@pytest.fixture(scope="module")
def mixed_records():
    """P-CLHT and txkv records with crash images, interleaved."""
    by_target = []
    for name in ("P-CLHT", "txkv"):
        config = PMRaceConfig(max_campaigns=6, base_seed=7, validate=False)
        result = PMRace(make_target(name), config).run()
        by_target.append([(name, record) for record in
                          list(result.inconsistencies)
                          + list(result.sync_inconsistencies)
                          if record.crash_image is not None])
    mixed = [pair for pairs in zip(*by_target) for pair in pairs]
    assert {name for name, _record in mixed} == {"P-CLHT", "txkv"}
    return mixed


class TestDrainPoolReuse:
    def drain(self, mixed, raising, cache):
        owners = {image_digest(record.crash_image): name
                  for name, record in mixed}
        metrics = Metrics()
        validator = _MixedValidator(owners, raising, metrics=metrics)
        queue = ValidationQueue(validator, cache=cache)
        for _name, record in mixed:
            record.verdict, record.note = Verdict.PENDING, ""
            queue.enqueue(record)
        queue.drain()
        judged = [(record.verdict, record.note) for _name, record in mixed]
        return judged, validator, metrics.value("validate.pool_builds")

    def test_one_pool_per_drain_matches_uncached(self, mixed_records):
        keys = list(dict.fromkeys(image_digest(record.crash_image)
                                  for _name, record in mixed_records))
        assert len(keys) >= 4
        raising = keys[len(keys) // 2]
        cached, validator, builds = self.drain(mixed_records, raising, True)
        plain, _plain, plain_builds = self.drain(mixed_records, raising,
                                                 False)
        assert cached == plain
        assert any(note.startswith("recovery failed: RuntimeError")
                   for _verdict, note in cached)
        # One recovery per unique image plus the raising one's retry.
        assert len(validator.recoveries) == len(keys) + 1
        assert plain_builds == len(plain) + 1  # a fresh pool per replay
        # The first load builds; the raising replay's pool and its retry's
        # fresh pool are dropped, so the next load builds once more.
        assert builds == 3
        for index, (key, pool) in enumerate(validator.recoveries):
            if key == raising:
                assert all(later is not pool for _key, later
                           in validator.recoveries[index + 1:])
        assert validator._pool is None  # dropped when the drain ended


class _ProbeBase:
    """Recovery leaves the sync var stale so the probe actually runs."""

    def recover(self, pool, view):
        return self


class _HangingProbeTarget(_ProbeBase):
    def post_recovery_probe(self, pool, view):
        while True:
            view.scheduler.yield_point("spin", "pm_lock:probe")


class _SlowProbeTarget(_ProbeBase):
    def post_recovery_probe(self, pool, view):
        for _ in range(30_000):  # > the probe scheduler's 20k step budget
            view.load_u64(0)


class _QuickProbeTarget(_ProbeBase):
    def post_recovery_probe(self, pool, view):
        view.load_u64(0)


class _WritingProbeTarget(_ProbeBase):
    def post_recovery_probe(self, pool, view):
        view.ntstore_u64(0, 0xDEAD)
        view.sfence()


class TestProbeNotes:
    def probe_note(self, target_cls):
        validator = PostFailureValidator(target_cls, probe_hangs=True)
        record = make_sync_record(make_image(lock=1))
        assert validator.validate(record) is Verdict.BUG
        return record.note

    def test_hang_reported_as_hang(self):
        assert "post-recovery probe hangs" in self.probe_note(
            _HangingProbeTarget)

    def test_budget_exhaustion_reported_distinctly(self):
        note = self.probe_note(_SlowProbeTarget)
        assert "exceeded its step budget" in note
        assert "inconclusive" in note
        assert "probe hangs" not in note

    def test_completed_probe(self):
        assert "post-recovery probe completed" in self.probe_note(
            _QuickProbeTarget)

    def test_probe_never_mutates_shared_replay(self):
        validator = PostFailureValidator(_WritingProbeTarget,
                                         probe_hangs=True)
        queue = ValidationQueue(validator)
        image = make_image(lock=1)
        sync = make_sync_record(image)
        inter = make_record(image, 0, size=8)
        queue.enqueue(sync)
        queue.enqueue(inter)
        queue.drain()
        shared = queue._cache[image_digest(image)]
        # The probe wrote 0xDEAD at 0 — on its *private* replay only.
        assert int.from_bytes(shared.recovered.read(0, 8),
                              "little") != 0xDEAD


class _StatefulRecoveryTarget:
    """Recovery poisons the instance it ran on: reuse must be visible."""

    def __init__(self):
        self.recoveries = 0

    def recover(self, pool, view):
        self.recoveries += 1
        if self.recoveries > 1:
            raise RuntimeError("stale target instance reused for recovery")
        view.ntstore_bytes(RECOVERED_ADDR, b"\x00" * 64)
        view.sfence()
        return self


class TestFreshTargetFactory:
    def test_unregistered_target_rebuilt_from_class(self):
        live = _StatefulRecoveryTarget()
        factory = fresh_target_factory(live)
        first, second = factory(), factory()
        assert type(first) is _StatefulRecoveryTarget
        assert first is not live and first is not second

    def test_registered_target_goes_through_registry(self):
        name = target_names()[0]
        live = make_target(name)
        fresh = fresh_target_factory(live)()
        assert type(fresh) is type(live) and fresh is not live

    def test_engine_validator_never_replays_on_live_target(self):
        engine = PMRace(ToyTarget(), PMRaceConfig(max_campaigns=1))
        assert engine.validator.target_factory() is not engine.target

    def test_stateful_target_validates_repeatedly(self):
        # Regression: the engine used to pass `lambda: self.target`, so
        # the *same* instance recovered every record — the second replay
        # here would raise and flip the verdict to BUG.
        live = _StatefulRecoveryTarget()
        validator = PostFailureValidator(fresh_target_factory(live))
        first = make_record(make_image(1), RECOVERED_ADDR)
        second = make_record(make_image(2), RECOVERED_ADDR,
                             effect_instr="e:1")
        assert validator.validate(first) is Verdict.VALIDATED_FP
        assert validator.validate(second) is Verdict.VALIDATED_FP
        assert live.recoveries == 0


class TestMergeUpgrades:
    def seeded_result(self, record):
        result = RunResult("toy", PMRaceConfig())
        result.inconsistencies.append(record)
        result._inconsistency_keys[record.dedup_key()] = record
        return result

    def test_merge_adopts_duplicate_verdict(self):
        pending = make_record(None, RECOVERED_ADDR)
        judged = make_record(make_image(), RECOVERED_ADDR)
        judged.verdict = Verdict.BUG
        judged.note = "judged elsewhere"
        merged = self.seeded_result(pending)
        merged.merge(self.seeded_result(judged))
        assert len(merged.inconsistencies) == 1
        assert pending.verdict is Verdict.BUG
        assert pending.note == "judged elsewhere"
        assert pending.crash_image is not None
        assert merged.verdict_upgrades == 1
        assert merged.summary()["verdict_upgrades"] == 1

    def test_merge_never_downgrades(self):
        judged = make_record(make_image(), RECOVERED_ADDR)
        judged.verdict = Verdict.VALIDATED_FP
        pending = make_record(None, RECOVERED_ADDR)
        merged = self.seeded_result(judged)
        merged.merge(self.seeded_result(pending))
        assert judged.verdict is Verdict.VALIDATED_FP
        assert merged.verdict_upgrades == 0

    def test_merge_attaches_image_to_unjudged_pair(self):
        imageless = make_record(None, RECOVERED_ADDR)
        with_image = make_record(make_image(), RECOVERED_ADDR)
        merged = self.seeded_result(imageless)
        merged.merge(self.seeded_result(with_image))
        assert imageless.crash_image is not None
        assert imageless.verdict is Verdict.PENDING
        assert merged.verdict_upgrades == 0


class TestMakeValidationQueue:
    """The standalone queue ``repro validate`` drains, built by name."""

    def build_records(self):
        images = [make_image(1), make_image(2)]
        records = []
        for i in range(6):
            addr = RECOVERED_ADDR if i % 2 else UNRECOVERED_ADDR
            records.append(make_record(images[i % 2], addr,
                                       effect_instr="e:%d" % i))
        records.append(make_record(None, RECOVERED_ADDR,
                                   effect_instr="e:none"))
        return records

    def expected_verdicts(self, records):
        return [Verdict.VALIDATED_FP if r.side_effect_addr == RECOVERED_ADDR
                and r.crash_image is not None
                else Verdict.PENDING if r.crash_image is None
                else Verdict.BUG for r in records]

    def test_verdicts_per_record(self):
        records = self.build_records()
        queue = make_validation_queue("mini-vs")
        for record in records:
            queue.enqueue(record)
        queue.drain()
        stats = queue.stats()
        assert [r.verdict for r in records] == \
            self.expected_verdicts(records)
        assert stats["validated"] == len(records)
        assert stats["unique_images"] == 2


@pytest.fixture(autouse=True)
def _register_mini_target():
    """Expose MiniTarget to the registry under 'mini-vs' so the
    validate-by-name path can rebuild it."""
    from repro.targets import Target, register_target, unregister_target

    class MiniVs(MiniTarget, Target):
        NAME = "mini-vs"

    register_target(MiniVs, replace=True)
    yield
    unregister_target("mini-vs")


# ----------------------------------------------------------------------
# seeded property: the cache is pure reuse

IMAGE_FILLS = st.lists(st.integers(0, 255), min_size=1, max_size=3)
WORD_WRITES = st.lists(st.tuples(st.integers(0, POOL_SIZE // 8 - 1),
                                 st.integers(0, 2 ** 64 - 1)),
                       max_size=8)
RECORD_SPECS = st.lists(st.tuples(st.integers(0, 5),
                                  st.integers(0, POOL_SIZE // 8 - 1)),
                        min_size=1, max_size=12)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(IMAGE_FILLS, WORD_WRITES, RECORD_SPECS)
def test_cached_verdicts_equal_uncached_on_random_images(
        fills, writes, specs):
    """For randomized crash images and record layouts, validating with
    the digest cache on must produce verdicts and notes byte-identical
    to replaying every record individually."""
    images = []
    for fill in fills:
        pool = PmemPool("prop", POOL_SIZE)
        pool.write_bytes(0, bytes([fill]) * POOL_SIZE)
        for slot, value in writes:
            pool.write_u64(slot * 8, value ^ fill)
        pool.memory.persist_all()
        images.append(pool.crash_image())

    def build():
        records = []
        for index, (image_index, slot) in enumerate(specs):
            image = images[image_index % len(images)]
            records.append(make_record(image, slot * 8,
                                       effect_instr="e:%d" % index))
        return records

    cached_records, plain_records = build(), build()
    cached = ValidationQueue(PostFailureValidator(MiniTarget), cache=True)
    plain = ValidationQueue(PostFailureValidator(MiniTarget), cache=False)
    for record in cached_records:
        cached.enqueue(record)
    for record in plain_records:
        plain.enqueue(record)
    cached.drain()
    plain.drain()
    for fast, slow in zip(cached_records, plain_records):
        assert fast.verdict is slow.verdict
        assert fast.note == slow.note
    used = {image_digest(images[i % len(images)]) for i, _ in specs}
    assert cached.cache_misses == len(used)
    assert cached.cache_hits == len(specs) - len(used)
