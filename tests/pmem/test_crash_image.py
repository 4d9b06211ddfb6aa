"""Crash images as line deltas over a shared base.

:meth:`PersistentMemory.crash_image` returns a :class:`CrashImage` that
shares the checkpoint snapshot's ``persisted`` bytes and carries only the
lines that differ. Its full contents must equal the image a full copy
would give — the persisted view plus the lines that survive the crash —
and so must its digest.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detect.checkers import InconsistencyChecker
from repro.detect.validation_service import image_digest
from repro.pmem import (
    CrashImage,
    LineState,
    OutOfBoundsError,
    PersistentMemory,
    PmemPool,
)

POOL = 512


def full_copy_image(mem, evict_fraction, rng):
    """The full-copy crash image: ``_persisted`` plus survivor lines,
    drawing the eviction RNG once per tracked line in ``_lines`` order."""
    image = bytearray(mem._persisted)
    survivors = []
    for line, entry in mem._lines.items():
        if entry[0] is LineState.PENDING and mem.pending_persists_on_crash:
            survivors.append(line)
        elif evict_fraction > 0.0 and rng.random() < evict_fraction:
            survivors.append(line)
    for line in survivors:
        start = line * 64
        image[start:start + 64] = mem._volatile[start:start + 64]
    return bytes(image)


class TestCrashImage:
    def test_bytes_apply_delta_over_base(self):
        image = CrashImage(bytes(256), ((1, b"\x01" * 64), (3, b"\x03" * 64)))
        data = bytes(image)
        assert len(image) == len(data) == 256
        assert data == bytes(64) + b"\x01" * 64 + bytes(64) + b"\x03" * 64

    def test_overlay_spans_lines_and_keeps_base(self):
        base = bytes(256)
        image = CrashImage(base, ((1, b"\x01" * 64),))
        patched = image.overlay(60, b"\xff" * 8)
        assert patched.base is base
        assert [line for line, _data in patched.delta] == [0, 1]
        data = bytes(patched)
        assert data[56:72] == bytes(4) + b"\xff" * 8 + b"\x01" * 4
        assert bytes(image)[60:64] == bytes(4)  # the original is untouched

    def test_digest_matches_materialized_bytes(self):
        image = CrashImage(bytes(range(256)) * 4,
                           ((0, b"a" * 64), (7, b"b" * 64), (15, b"c" * 64)))
        assert image_digest(image) == image_digest(bytes(image))

    def test_delta_zeros_over_nonzero_base_key_as_bytes(self):
        # The key is of the contents: a delta that zeroes the base's one
        # non-zero line leaves an all-zero image, whatever the base.
        base = bytearray(16384)
        base[8192:8256] = b"\xab" * 64
        image = CrashImage(bytes(base), ((128, bytes(64)),))
        assert image_digest(image) == image_digest(bytes(image))
        assert image_digest(image) == (16384,)

    def test_checkpointed_memory_shares_snapshot_bytes(self):
        mem = PersistentMemory(POOL)
        mem.store(0, b"setup", ntstore=True)
        snap = mem.snapshot()
        mem.store(64, b"x" * 8, ntstore=True)
        mem.store(128, b"y" * 8)
        image = mem.crash_image()
        assert image.base is snap.persisted
        assert [line for line, _data in image.delta] == [1]

    def test_eviction_draws_follow_line_tracking_order(self):
        # Lines dirtied last-to-first: sampling in address order instead
        # of tracking order would pick different survivors.
        def build():
            mem = PersistentMemory(POOL)
            mem.snapshot()
            for line in reversed(range(POOL // 64)):
                mem.store(line * 64, bytes([line + 1]) * 8)
            return mem

        for seed in range(8):
            image = build().crash_image(0.5, random.Random(seed))
            assert bytes(image) == full_copy_image(build(), 0.5,
                                                   random.Random(seed))

    def test_memory_without_base_copies_once(self):
        mem = PersistentMemory(POOL)
        mem.store(0, b"z" * 8, ntstore=True)
        image = mem.crash_image()
        assert image.delta == ()
        assert image.base == bytes(mem._persisted)
        mem.snapshot()
        mem.persist_all()  # the journal no longer describes the base
        assert mem.crash_image().base is not mem._base.persisted


# ----------------------------------------------------------------------
# property: delta images equal the full-copy reconstruction

OPS = st.lists(st.tuples(
    st.sampled_from(("store", "ntstore", "clwb", "clflush", "sfence",
                     "persist_all", "snapshot", "restore", "foreign",
                     "overlay")),
    st.integers(0, 2),                 # thread
    st.integers(0, POOL - 1),          # address
    st.integers(1, 130),               # size
    st.integers(0, 255)),              # payload byte / snapshot pick
    min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(OPS, st.booleans(), st.booleans(),
       st.sampled_from((0.0, 0.5, 1.0)), st.integers(0, 1000))
def test_property_delta_image_equals_full_copy(ops, checkpoint_first,
                                               pending_survive, fraction,
                                               seed):
    """After every operation, the crash image (or, for ``overlay``, the
    checker's overlaid image) equals the full-copy reconstruction and
    draws the eviction RNG identically."""
    pool = PmemPool("prop", POOL, pending_persists_on_crash=pending_survive)
    mem = pool.memory
    foreign = PersistentMemory(POOL)
    foreign.store(0, b"\x5a" * 64, ntstore=True)
    foreign_snap = foreign.snapshot()
    rng = random.Random(seed)
    checker = InconsistencyChecker(pool, evict_fraction=fraction,
                                   evict_rng=rng)
    snapshots = [mem.snapshot()] if checkpoint_first else []
    taken = []
    for kind, tid, addr, size, payload in ops:
        size = min(size, POOL - addr)
        if kind == "store":
            mem.store(addr, bytes([payload]) * size, thread_id=tid)
        elif kind == "ntstore":
            mem.store(addr, bytes([payload]) * size, thread_id=tid,
                      ntstore=True)
        elif kind == "clwb":
            mem.clwb(addr, thread_id=tid)
        elif kind == "clflush":
            mem.clflush(addr, thread_id=tid)
        elif kind == "sfence":
            mem.sfence(thread_id=tid)
        elif kind == "persist_all":
            mem.persist_all()
        elif kind == "snapshot":
            snapshots.append(mem.snapshot())
        elif kind == "restore" and snapshots:
            mem.restore(snapshots[payload % len(snapshots)])
        elif kind == "foreign":
            mem.restore(foreign_snap)
        reference = random.Random()
        reference.setstate(rng.getstate())
        expected = bytearray(full_copy_image(mem, fraction, reference))
        if kind == "overlay":
            image = checker._image(addr, size)
            expected[addr:addr + size] = mem.load(addr, size)
        else:
            image = mem.crash_image(fraction, rng)
        expected = bytes(expected)
        assert rng.getstate() == reference.getstate()
        assert len(image) == mem.size
        assert bytes(image) == expected
        assert image_digest(image) == image_digest(bytes(image))
        taken.append((image, expected))
    # Images are immutable: later stores and restores never reach them.
    for image, expected in taken:
        assert bytes(image) == expected


# ----------------------------------------------------------------------
# reads and volatile views of memories rebuilt from an image

DELTAS = st.dictionaries(st.integers(0, POOL // 64 - 1),
                         st.binary(min_size=64, max_size=64), max_size=8)


@settings(max_examples=200, deadline=None)
@given(DELTAS, st.integers(0, POOL), st.integers(0, POOL))
def test_property_read_equals_materialized_slice(delta, addr, size):
    image = CrashImage(bytes(range(256)) * (POOL // 256),
                       tuple(sorted(delta.items())))
    size = min(size, POOL - addr)
    assert image.read(addr, size) == bytes(image)[addr:addr + size]


#: Three 4 KiB key pages and a partial fourth.
KEY_POOL = 3 * 4096 + 576
SPARSE_LINES = st.dictionaries(
    st.integers(0, KEY_POOL // 64 - 1),
    st.one_of(st.just(bytes(64)), st.binary(min_size=64, max_size=64)),
    max_size=12)


@settings(max_examples=200, deadline=None)
@given(SPARSE_LINES, SPARSE_LINES)
def test_property_delta_image_keys_as_its_bytes(base_lines, delta):
    base = bytearray(KEY_POOL)
    for line, data in base_lines.items():
        base[line * 64:line * 64 + 64] = data
    image = CrashImage(bytes(base), tuple(sorted(delta.items())))
    assert image_digest(image) == image_digest(bytes(image))


@pytest.mark.parametrize("addr,size", [(POOL - 4, 8), (-8, 8), (0, -1)])
def test_read_out_of_bounds_raises(addr, size):
    with pytest.raises(OutOfBoundsError):
        CrashImage(bytes(POOL), ()).read(addr, size)


def test_bytes_of_image_without_delta_is_its_base():
    base = bytes(range(256)) * 2
    assert bytes(CrashImage(base, ())) is base


@pytest.mark.parametrize("lines", [(), (0,), (POOL // 64 - 1,),
                                   (0, 3, POOL // 64 - 1)])
def test_bytes_equals_materialized_bytearray(lines):
    image = CrashImage(bytes(range(256)) * (POOL // 256),
                       tuple((line, bytes([line + 1]) * 64)
                             for line in lines))
    data = bytes(image)
    assert type(data) is bytes
    assert data == image.to_bytearray()


REBUILD_OPS = st.lists(st.tuples(
    st.sampled_from(("store", "ntstore", "clwb", "sfence", "persist_all",
                     "snapshot", "restore")),
    st.integers(0, POOL - 1), st.integers(1, 130), st.integers(0, 255)),
    max_size=30)


@settings(max_examples=200, deadline=None)
@given(DELTAS, st.sampled_from(("delta", "bytes", "bytearray")), REBUILD_OPS)
def test_property_volatile_image_tracks_volatile_view(delta, form, ops):
    """A memory rebuilt from an image reports its volatile view exactly,
    sharing the input's base while the journal describes it."""
    source = CrashImage(bytes(range(256)) * (POOL // 256),
                        tuple(sorted(delta.items())))
    image = {"delta": source, "bytes": bytes(source),
             "bytearray": bytearray(bytes(source))}[form]
    mem = PersistentMemory(POOL, image=image)
    assert mem._volatile == mem._persisted == bytes(source)
    shared = form != "bytearray"
    snapshots = []
    for kind, addr, size, payload in ops:
        size = min(size, POOL - addr)
        if kind in ("store", "ntstore"):
            mem.store(addr, bytes([payload]) * size, ntstore=kind == "ntstore")
        elif kind == "clwb":
            mem.clwb(addr)
        elif kind == "sfence":
            mem.sfence()
        elif kind == "persist_all":
            mem.persist_all()
            shared = False
        elif kind == "snapshot":
            snapshots.append(mem.snapshot())
            shared = False
        elif kind == "restore" and snapshots:
            mem.restore(snapshots[payload % len(snapshots)])
        view = mem.volatile_image()
        assert bytes(view) == bytes(mem._volatile)
        base = source.base if form == "delta" else image
        assert (view.base is base) == shared
    assert bytes(source) == bytes(image)  # the input is never written
