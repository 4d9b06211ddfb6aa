"""In-memory checkpoint (state provider) tests."""

import pytest

from repro.core import PMRace, PMRaceConfig, make_state_provider
from repro.core.checkpoints import StateProvider
from repro.targets import MemcachedTarget, PclhtTarget

from .toy_target import COUNTER, ToyTarget


class TestStateProvider:
    def test_checkpoint_setup_once(self):
        provider = StateProvider(ToyTarget(), use_checkpoints=True)
        for _ in range(4):
            provider.provide()
        assert provider.setup_count == 1
        assert provider.restore_count == 3

    def test_no_checkpoint_setup_each_time(self):
        provider = StateProvider(ToyTarget(), use_checkpoints=False)
        for _ in range(4):
            provider.provide()
        assert provider.setup_count == 4
        assert provider.restore_count == 0

    def test_restore_resets_pool(self):
        provider = StateProvider(ToyTarget(), use_checkpoints=True)
        state = provider.provide()
        state.pool.write_u64(COUNTER, 99)
        state = provider.provide()
        assert state.pool.read_u64(COUNTER) == 0

    def test_restore_resets_annotations(self):
        provider = StateProvider(ToyTarget(), use_checkpoints=True)
        state = provider.provide()
        state.annotations.pm_sync_var_hint("extra", 8, 0)
        state.annotations.register_instance("extra", 512)
        state = provider.provide()
        assert state.annotations.annotation_count == 1

    def test_eadr_flag_survives_restore(self):
        """§6.6: the snapshot is taken before the platform switch is
        applied, so every restore must re-apply it."""
        provider = StateProvider(ToyTarget(), use_checkpoints=True,
                                 eadr=True)
        first = provider.provide()
        assert first.pool.memory.eadr
        second = provider.provide()
        assert provider.restore_count == 1
        assert second.pool.memory.eadr
        # and eADR semantics actually hold on the restored state
        second.pool.memory.store(0, b"x" * 8, thread_id=0)
        assert second.pool.memory.is_persisted(0, 8)

    def test_eadr_flag_without_checkpoints(self):
        provider = StateProvider(ToyTarget(), use_checkpoints=False,
                                 eadr=True)
        for _ in range(2):
            assert provider.provide().pool.memory.eadr

    def test_auto_mode_respects_libpmem(self):
        assert make_state_provider(PclhtTarget()).use_checkpoints
        assert not make_state_provider(MemcachedTarget()).use_checkpoints

    def test_auto_mode_forced(self):
        assert make_state_provider(MemcachedTarget(),
                                   use_checkpoints=True).use_checkpoints

    def test_restore_resets_allocator(self):
        provider = StateProvider(PclhtTarget(), use_checkpoints=True)
        state = provider.provide()
        allocator = state.extras["objpool"].allocator
        baseline = allocator.allocated_bytes
        allocator.alloc(256)
        state = provider.provide()
        assert state.extras["objpool"].allocator.allocated_bytes == baseline


class TestCrashImageMemory:
    """Crash images taken on checkpointed state are line deltas over the
    checkpoint's persisted bytes, never fresh pool copies."""

    def test_records_share_the_checkpoint_base(self):
        fuzzer = PMRace(PclhtTarget(), PMRaceConfig(max_campaigns=10,
                                                     base_seed=7))
        result = fuzzer.run()
        base = fuzzer._provider._snapshot[0].persisted
        kept = list(result.inconsistencies) + \
            list(result.sync_inconsistencies)
        images = [r.crash_image for r in kept if r.crash_image is not None]
        assert images
        lines = len(base) // 64
        for image in images:
            assert image.base is base
            assert len(image.delta) < lines // 64
