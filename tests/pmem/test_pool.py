"""PmemPool accessor and lifecycle tests."""

import pytest

from repro.pmem import MisalignedAccessError, PmemPool, PoolError


@pytest.fixture
def pool():
    return PmemPool("p", 4096)


class TestAccessors:
    def test_u64_roundtrip(self, pool):
        pool.write_u64(8, 0xDEADBEEF)
        assert pool.read_u64(8) == 0xDEADBEEF

    def test_u64_wraps(self, pool):
        pool.write_u64(0, -1)
        assert pool.read_u64(0) == 2 ** 64 - 1

    def test_u32_roundtrip(self, pool):
        pool.write_u32(4, 123456)
        assert pool.read_u32(4) == 123456

    def test_bytes_roundtrip(self, pool):
        pool.write_bytes(100, b"abcdef")
        assert pool.read_bytes(100, 6) == b"abcdef"

    def test_misaligned_u64(self, pool):
        with pytest.raises(MisalignedAccessError):
            pool.read_u64(4)

    def test_misaligned_u32(self, pool):
        with pytest.raises(MisalignedAccessError):
            pool.write_u32(2, 1)

    def test_persisted_view(self, pool):
        pool.write_u64(0, 42)
        assert pool.read_persisted_u64(0) == 0
        pool.memory.persist_all()
        assert pool.read_persisted_u64(0) == 42


class TestLifecycle:
    def test_zero_size_rejected(self):
        with pytest.raises(PoolError):
            PmemPool("bad", 0)

    def test_from_image(self):
        pool = PmemPool("a", 4096)
        pool.write_u64(16, 7)
        pool.memory.persist_all()
        image = pool.crash_image()
        clone = PmemPool.from_image("b", image)
        assert clone.read_u64(16) == 7
        assert clone.read_persisted_u64(16) == 7

    @pytest.mark.parametrize("size", [0, 100, 4095])
    def test_from_image_rejects_partial_lines(self, size):
        # A 100-byte image used to build a 128-byte pool over 100-byte
        # buffers, so reads near the end came back short.
        with pytest.raises(PoolError):
            PmemPool.from_image("short", bytes(size))

    def test_from_image_views_are_separate_copies(self):
        data = bytes(range(256)) * 16
        clone = PmemPool.from_image("copy", data)
        memory = clone.memory
        assert memory._volatile == memory._persisted == data
        clone.write_u64(0, 0xFFFF)
        assert clone.read_persisted_u64(0) == int.from_bytes(data[:8],
                                                             "little")

    def test_from_delta_image_journals_its_delta(self):
        pool = PmemPool("a", 4096)
        pool.checkpoint()
        pool.write_u64(128, 5, ntstore=True)
        image = pool.crash_image()
        clone = PmemPool.from_image("b", image)
        assert clone.memory._journal == {2}
        assert clone.memory._volatile == bytes(image)
        recovered = clone.memory.volatile_image()
        assert recovered.base is image.base
        assert bytes(recovered) == bytes(image)

    def test_crash_image_drops_dirty(self, pool):
        pool.write_u64(0, 99)
        image = pool.crash_image()
        assert PmemPool.from_image("c", image).read_u64(0) == 0

    def test_checkpoint_restore(self, pool):
        pool.write_u64(0, 1)
        snap = pool.checkpoint()
        pool.write_u64(0, 2)
        pool.restore(snap)
        assert pool.read_u64(0) == 1

    def test_checkpoint_restores_dirty_state(self, pool):
        pool.write_u64(0, 1, thread_id=0)
        snap = pool.checkpoint()
        pool.memory.persist_all()
        pool.restore(snap)
        assert not pool.memory.is_persisted(0, 8)
