"""A pool reset to an image equals a pool freshly built from it.

Post-failure validation replays many crash images on one pool:
:meth:`PmemPool.reset` zeroes what the previous image and the writes
since left and writes the next image's non-zero pages. Every view a
replay or a checker reads must then be the one a fresh
:meth:`PmemPool.from_image` gives — and stay so under further stores,
flushes and fences.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detect.validation_service import KEY_PAGE, image_digest
from repro.pmem import CrashImage, PmemPool

#: Three key pages and a partial fourth.
SIZE = 3 * KEY_PAGE + 512
LINES = SIZE // 64

SPARSE_LINES = st.dictionaries(
    st.integers(0, LINES - 1),
    st.one_of(st.just(bytes(64)), st.binary(min_size=64, max_size=64)),
    max_size=10)
OPS = st.lists(st.tuples(
    st.sampled_from(("store", "ntstore", "clwb", "sfence", "clflush")),
    st.integers(0, SIZE - 1), st.integers(1, 130), st.integers(0, 255),
    st.integers(0, 2)), max_size=25)
#: How the next image relates to the first image's base.
FORMS = st.sampled_from(("bytes", "same_base", "other_base", "zeros"))


def from_lines(lines):
    data = bytearray(SIZE)
    for line, payload in lines.items():
        data[line * 64:line * 64 + 64] = payload
    return bytes(data)


def delta(lines):
    return tuple(sorted(lines.items()))


def pages(image):
    return image_digest(image)[1:]


def apply(pool, ops):
    mem = pool.memory
    for kind, addr, size, payload, tid in ops:
        if kind in ("store", "ntstore"):
            size = min(size, SIZE - addr)
            mem.store(addr, bytes([payload]) * size, thread_id=tid,
                      instr_id="site:%d" % payload,
                      ntstore=kind == "ntstore")
        elif kind == "clwb":
            mem.clwb(addr, thread_id=tid)
        elif kind == "sfence":
            mem.sfence(thread_id=tid)
        else:
            mem.clflush(addr, thread_id=tid)


def writers(mem, addr):
    return [(r.addr, r.size, r.thread_id, r.instr_id, r.seq, r.ntstore)
            for r in mem.nonpersisted_writers(addr, 64)]


def assert_same(pool, fresh):
    mem, ref = pool.memory, fresh.memory
    assert mem.load(0, SIZE) == ref.load(0, SIZE)
    assert mem.load_persisted(0, SIZE) == ref.load_persisted(0, SIZE)
    for line in range(LINES):
        addr = line * 64
        assert mem.line_state(addr) is ref.line_state(addr)
        assert writers(mem, addr) == writers(ref, addr)
    view, ref_view = mem.volatile_image(), ref.volatile_image()
    assert bytes(view) == bytes(ref_view)
    assert view.base is ref_view.base
    assert bytes(mem.crash_image()) == bytes(ref.crash_image())


@settings(max_examples=150, deadline=None)
@given(SPARSE_LINES, SPARSE_LINES, st.booleans(), OPS,
       st.lists(st.tuples(FORMS, SPARSE_LINES, SPARSE_LINES, OPS),
                min_size=1, max_size=3))
def test_property_reset_equals_fresh_pool(base_lines, delta_lines, as_delta,
                                          ops, steps):
    base = from_lines(base_lines)
    first = CrashImage(base, delta(delta_lines)) if as_delta else base
    pool = PmemPool.from_image("reused", first, pages(first))
    apply(pool, ops)
    for form, lines, more_lines, later_ops in steps:
        image = {
            "bytes": lambda: from_lines(lines),
            "same_base": lambda: CrashImage(base, delta(lines)),
            "other_base": lambda: CrashImage(from_lines(lines),
                                             delta(more_lines)),
            "zeros": lambda: bytes(SIZE),
        }[form]()
        assert pool.reset(image, pages(image))
        fresh = PmemPool.from_image("fresh", image)
        assert_same(pool, fresh)
        apply(pool, later_ops)
        apply(fresh, later_ops)
        assert_same(pool, fresh)


def test_blank_pool_resets():
    pool = PmemPool("blank", SIZE)
    pool.write_u64(64, 7)
    image = CrashImage(bytes(SIZE), ((3, b"\x01" * 64),))
    assert pool.reset(image, pages(image))
    assert_same(pool, PmemPool.from_image("fresh", image))


def refuses(pool, image):
    """True iff ``pool`` refuses to reset to ``image`` and is unchanged."""
    before = (pool.memory.load(0, pool.size),
              pool.memory.load_persisted(0, pool.size),
              pool.memory.dirty_line_count())
    refused = not pool.reset(image, pages(image))
    return refused and before == (pool.memory.load(0, pool.size),
                                  pool.memory.load_persisted(0, pool.size),
                                  pool.memory.dirty_line_count())


class TestResetRefused:
    IMAGE = from_lines({5: b"\x05" * 64})

    def loaded(self):
        pool = PmemPool.from_image("reused", self.IMAGE, pages(self.IMAGE))
        pool.write_u64(128, 1)
        return pool

    def test_after_persist_all(self):
        pool = self.loaded()
        pool.memory.persist_all()
        assert refuses(pool, self.IMAGE)

    def test_after_snapshot(self):
        pool = self.loaded()
        pool.checkpoint()
        pool.write_u64(256, 2)
        assert refuses(pool, self.IMAGE)

    def test_after_restore(self):
        pool = self.loaded()
        snap = pool.checkpoint()
        pool.restore(snap)
        assert refuses(pool, self.IMAGE)

    def test_other_size(self):
        assert refuses(self.loaded(), bytes(SIZE + 64))

    def test_pool_copied_from_image(self):
        assert refuses(PmemPool.from_image("copy", self.IMAGE), self.IMAGE)
