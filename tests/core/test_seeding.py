"""Stable seed mixer tests.

The golden values pin the exact CRC-32 mixing so policy seeds (and
therefore whole fuzzing runs) reproduce across Python builds — the whole
point of replacing ``hash((base_seed, campaign_index))``, whose int
hashing is implementation defined.
"""

import pytest

from repro.core.seeding import mix_seeds, policy_seed


class TestMixSeeds:
    def test_golden_values(self):
        assert mix_seeds(0, 0) == 3971697493
        assert mix_seeds(7, 0) == 289583904
        assert mix_seeds(7, 1) == 3723015102
        assert mix_seeds(13, 5) == 2903574376

    def test_negative_parts_reduced_mod_2_64(self):
        assert mix_seeds(-1, 2) == 972079378
        assert mix_seeds(-1, 2) == mix_seeds((1 << 64) - 1, 2)

    def test_huge_parts_reduced_mod_2_64(self):
        assert mix_seeds(2**70 + 3, 1) == 165281593
        assert mix_seeds(2**70 + 3, 1) == mix_seeds(3 + (1 << 66), 1)

    def test_32_bit_range(self):
        for parts in [(0,), (1, 2, 3), (99, 0), (2**63,)]:
            assert 0 <= mix_seeds(*parts) < 2**32

    def test_order_sensitive(self):
        assert mix_seeds(7, 13) != mix_seeds(13, 7)

    def test_empty_is_zero(self):
        assert mix_seeds() == 0


class TestPolicySeed:
    def test_golden_value(self):
        assert policy_seed(42, 100) == 1536566341

    def test_distinct_per_campaign(self):
        seeds = {policy_seed(7, index) for index in range(200)}
        assert len(seeds) == 200

    def test_distinct_per_session(self):
        assert policy_seed(7, 0) != policy_seed(13, 0)
