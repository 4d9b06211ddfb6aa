"""Arbitrary cache-eviction simulation tests (§2.1's reordering source)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pmem import PersistentMemory


class TestEvictFraction:
    def test_zero_fraction_conservative(self):
        mem = PersistentMemory(4096)
        mem.store(0, b"x" * 8)
        image = bytes(mem.crash_image(evict_fraction=0.0))
        assert image[:8] == b"\x00" * 8

    def test_full_fraction_keeps_all(self):
        mem = PersistentMemory(4096)
        for line in range(8):
            mem.store(line * 64, bytes([line + 1]) * 8)
        image = bytes(mem.crash_image(evict_fraction=1.0,
                                      rng=random.Random(1)))
        for line in range(8):
            assert image[line * 64] == line + 1

    def test_partial_fraction_is_sampled(self):
        mem = PersistentMemory(64 * 64)
        for line in range(64):
            mem.store(line * 64, b"\xff" * 8)
        image = bytes(mem.crash_image(evict_fraction=0.5,
                                      rng=random.Random(3)))
        survivors = sum(1 for line in range(64)
                        if image[line * 64] == 0xFF)
        assert 10 < survivors < 54  # roughly half, sampled

    def test_deterministic_given_rng(self):
        def build():
            mem = PersistentMemory(4096)
            for line in range(16):
                mem.store(line * 64, b"\xaa" * 8)
            return mem

        a = bytes(build().crash_image(evict_fraction=0.5,
                                      rng=random.Random(7)))
        b = bytes(build().crash_image(evict_fraction=0.5,
                                      rng=random.Random(7)))
        assert a == b

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(0, 1000))
    def test_property_image_lines_valid(self, fraction, seed):
        """Every line of an evicted image is either the persisted or the
        volatile content — never a mix within one line's dirty words."""
        mem = PersistentMemory(1024)
        mem.store(0, b"\x01" * 64)
        mem.store(64, b"\x02" * 64)
        mem.clwb(64, thread_id=0)
        mem.sfence(thread_id=0)
        image = bytes(mem.crash_image(evict_fraction=fraction,
                                      rng=random.Random(seed)))
        assert image[0:64] in (b"\x00" * 64, b"\x01" * 64)
        assert image[64:128] == b"\x02" * 64


class TestEvictionSampling:
    def build(self, lines=256):
        mem = PersistentMemory(lines * 64)
        for line in range(lines):
            mem.store(line * 64, b"\xff" * 8)
        return mem

    def survivors(self, image, lines=256):
        image = bytes(image)
        return {line for line in range(lines) if image[line * 64] == 0xFF}

    def test_default_rng_fallback_deterministic(self):
        # No rng + a nonzero fraction falls back to a fixed seed instead
        # of reseeding inside the sampling loop: two images agree, and
        # match an explicit Random(0).
        a = bytes(self.build().crash_image(evict_fraction=0.5))
        b = bytes(self.build().crash_image(evict_fraction=0.5))
        c = bytes(self.build().crash_image(evict_fraction=0.5,
                                           rng=random.Random(0)))
        assert a == b == c

    def test_survivor_count_tracks_fraction(self):
        # 256 dirty lines at fraction 0.25: mean 64, sd ~6.9. A fixed
        # seed makes the draw deterministic; bounds are ~4 sd wide so the
        # test documents the distribution without being seed-brittle.
        image = self.build().crash_image(evict_fraction=0.25,
                                         rng=random.Random(42))
        count = len(self.survivors(image))
        assert 36 <= count <= 92

    def test_lines_sampled_independently(self):
        # Independent per-line draws: different seeds evict different
        # subsets (an all-or-nothing sampler could not produce this).
        a = self.survivors(self.build().crash_image(
            evict_fraction=0.5, rng=random.Random(1)))
        b = self.survivors(self.build().crash_image(
            evict_fraction=0.5, rng=random.Random(2)))
        assert a != b
        assert a and b
        assert a - b and b - a

    def test_shared_rng_advances_between_images(self):
        # The campaign threads one RNG through all crash images; each
        # image must consume fresh draws rather than restarting the
        # stream.
        rng = random.Random(9)
        first = bytes(self.build().crash_image(evict_fraction=0.5, rng=rng))
        second = bytes(self.build().crash_image(evict_fraction=0.5,
                                                rng=rng))
        assert first != second


class TestEngineEvictionThreading:
    """The engine seeds one eviction RNG per run and reuses it."""

    def run_fuzz(self):
        from repro.core import PMRace, PMRaceConfig
        from tests.core.toy_target import ToyTarget

        config = PMRaceConfig(max_campaigns=12, max_seeds=4,
                              ops_per_thread=4, base_seed=2,
                              evict_fraction=0.5)
        return PMRace(ToyTarget(), config).run()

    def test_runs_reproducible_with_eviction(self):
        a = self.run_fuzz()
        b = self.run_fuzz()
        assert a.campaigns == b.campaigns
        assert [r.verdict for r in a.inter_inconsistencies] == \
            [r.verdict for r in b.inter_inconsistencies]
        assert len(a.bug_reports) == len(b.bug_reports)
