"""Tests for the LRU block cache."""

from repro.config import CacheConfig, DiskConfig
from repro.regions import RegionList
from repro.storage import BlockCache, Disk


def cache_of(n_blocks: int) -> BlockCache:
    return BlockCache(CacheConfig(capacity=n_blocks * 4096, block_size=4096))


def written_blocks(offset: int, length: int) -> list:
    """Blocks a disk write of ``[offset, offset + length)`` makes resident."""
    d = Disk(DiskConfig(), CacheConfig(capacity=8 * 4096, block_size=4096))
    d.write_time("f", RegionList.single(offset, length))
    return [b for b in range(8) if d.cache.contains("f", b)]


class TestBlockSpan:
    """A byte run covers the blocks from ``offset // bs`` to
    ``(offset + length - 1) // bs``."""

    def test_exact_blocks(self):
        assert written_blocks(0, 4096) == [0]
        assert written_blocks(0, 8192) == [0, 1]

    def test_partial_blocks(self):
        assert written_blocks(100, 10) == [0]
        assert written_blocks(4000, 200) == [0, 1]

    def test_zero_length(self):
        assert written_blocks(0, 0) == []


class TestLookupInsert:
    def test_cold_miss_then_hit(self):
        c = cache_of(8)
        assert c.lookup_range("f", 0, 2) == [0, 1, 2]
        c.insert_range("f", 0, 3)
        assert c.lookup_range("f", 0, 2) == []
        assert c.stats.hits == 3
        assert c.stats.misses == 3

    def test_files_are_namespaced(self):
        c = cache_of(8)
        c.insert_range("f", 0, 1)
        assert c.lookup_range("g", 0, 0) == [0]

    def test_lru_eviction_order(self):
        c = cache_of(2)
        c.insert_range("f", 0, 1)
        c.insert_range("f", 1, 1)
        c.lookup_range("f", 0, 0)  # touch 0 -> 1 is now LRU
        c.insert_range("f", 2, 1)  # evicts 1
        assert c.contains("f", 0)
        assert not c.contains("f", 1)
        assert c.contains("f", 2)
        assert c.stats.evictions == 1

    def test_dirty_eviction_counted_and_returned(self):
        c = cache_of(1)
        c.insert_range("f", 0, 1, dirty=True)
        n = c.insert_range("f", 1, 1)
        assert n == 1
        assert c.stats.dirty_evictions == 1

    def test_clean_eviction_returns_zero(self):
        c = cache_of(1)
        c.insert_range("f", 0, 1)
        assert c.insert_range("f", 1, 1) == 0

    def test_reinsert_refreshes_and_keeps_dirty(self):
        c = cache_of(2)
        c.insert_range("f", 0, 1, dirty=True)
        c.insert_range("f", 1, 1)
        c.insert_range("f", 0, 1)  # clean re-insert: refresh, keep dirty
        assert c.dirty_blocks == 1
        c.insert_range("f", 2, 1)  # evicts 1 (0 was refreshed to MRU)
        assert c.contains("f", 0)
        assert not c.contains("f", 1)

    def test_zero_capacity_cache(self):
        c = BlockCache(CacheConfig(capacity=0))
        assert c.insert_range("f", 0, 2, dirty=True) == 2
        assert c.insert_range("f", 0, 1, dirty=False) == 0
        assert c.lookup_range("f", 0, 0) == [0]


class TestMaintenance:
    def test_flush_all(self):
        c = cache_of(4)
        c.insert_range("f", 0, 2, dirty=True)
        c.insert_range("f", 2, 1)
        assert c.flush_all() == 2
        assert c.dirty_blocks == 0
        assert len(c) == 3  # flush does not evict

    def test_stats_repr_and_hit_rate(self):
        c = cache_of(4)
        assert c.stats.hit_rate == 0.0
        c.insert_range("f", 0, 1)
        c.lookup_range("f", 0, 1)
        assert c.stats.hit_rate == 0.5
        assert "CacheStats" in repr(c.stats)
        assert "BlockCache" in repr(c)


class TestRuns:
    def test_lookup_runs_stops_at_the_first_miss(self):
        c = cache_of(8)
        c.insert_range("f", 0, 2)
        runs = [(0, 0), (1, 1), (3, 4), (0, 1)]
        assert c.lookup_runs("f", runs) == (2, [3, 4])
        assert (c.stats.hits, c.stats.misses) == (2, 2)
        assert c.lookup_runs("f", runs, 3) == (4, [])
        assert (c.stats.hits, c.stats.misses) == (4, 2)

    def test_insert_runs_reports_each_run_that_evicted_dirty_blocks(self):
        c = cache_of(2)
        assert c.insert_runs("f", [(0, 1)], dirty=True) == []
        # (2, 2) evicts dirty block 0, (3, 3) evicts dirty 1, (4, 4) clean 2.
        assert c.insert_runs("f", [(2, 2), (3, 3), (4, 4)]) == [1, 1]
        assert c.stats.dirty_evictions == 2
        assert c.stats.evictions == 3

    def test_a_run_ages_in_block_order(self):
        """Blocks touched by one run share a recency, oldest first."""
        c = cache_of(4)
        c.insert_runs("f", [(62, 65)])  # spans two pages of stamps
        c.insert_range("f", 100, 2)  # evicts 62, then 63
        assert [c.contains("f", b) for b in (62, 63, 64, 65)] == [False, False, True, True]
