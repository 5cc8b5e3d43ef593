"""Unit tests for the duplicate-ratio-controlled data generator."""

import pytest

from repro.workloads import DataGenerator
from tests._seams import overriding


def realized_alpha(gen) -> float:
    """The duplicate fraction of the pages ``gen`` has emitted so far."""
    if not gen.pages_emitted:
        return 0.0
    return gen.dup_pages_emitted / gen.pages_emitted


class TestDuplicateControl:
    def test_alpha_zero_all_unique(self):
        gen = DataGenerator(alpha=0.0, seed=1)
        pages = gen.pages(200)
        assert len(set(pages)) == 200
        assert realized_alpha(gen) == 0.0

    def test_alpha_one_all_from_pool(self):
        gen = DataGenerator(alpha=1.0, seed=1, dup_pool_size=4)
        pages = gen.pages(100)
        assert len(set(pages)) <= 4
        assert realized_alpha(gen) == 1.0

    def test_alpha_half_converges(self):
        gen = DataGenerator(alpha=0.5, seed=3)
        gen.pages(2000)
        assert 0.45 <= realized_alpha(gen) <= 0.55

    def test_dedupable_fraction_matches_alpha(self):
        """What a dedup system can actually save approximates alpha."""
        gen = DataGenerator(alpha=0.6, seed=5, dup_pool_size=8)
        pages = gen.pages(1000)
        unique = len(set(pages))
        saving = 1 - unique / len(pages)
        assert 0.5 <= saving <= 0.65

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            DataGenerator(alpha=1.5)
        with pytest.raises(ValueError):
            DataGenerator(alpha=-0.1)
        with pytest.raises(ValueError):
            DataGenerator(alpha=0.5, dup_pool_size=0)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = DataGenerator(alpha=0.5, seed=9).pages(50)
        b = DataGenerator(alpha=0.5, seed=9).pages(50)
        assert a == b

    def test_different_seeds_differ(self):
        a = DataGenerator(alpha=0.0, seed=1).pages(10)
        b = DataGenerator(alpha=0.0, seed=2).pages(10)
        assert a != b

    def test_streams_share_pool_but_not_uniques(self):
        g0 = DataGenerator(alpha=1.0, seed=7, stream=0, dup_pool_size=4)
        g1 = DataGenerator(alpha=1.0, seed=7, stream=1, dup_pool_size=4)
        assert set(g0.pages(100)) == set(g1.pages(100))  # same pool
        u0 = DataGenerator(alpha=0.0, seed=7, stream=0).pages(100)
        u1 = DataGenerator(alpha=0.0, seed=7, stream=1).pages(100)
        assert not set(u0) & set(u1)  # disjoint uniques


class TestFileData:
    def test_file_data_length(self):
        gen = DataGenerator(alpha=0.3, seed=1)
        assert len(gen.file_data(10000)) == 10000
        assert len(gen.file_data(4096)) == 4096

    def test_page_size_respected(self):
        gen = overriding(DataGenerator, page_size=512)(alpha=0.0, seed=1)
        pages = gen.pages(4)
        assert all(len(p) == 512 for p in pages)

    def test_empty_request(self):
        gen = DataGenerator(alpha=0.5, seed=1)
        assert gen.pages(0) == []
