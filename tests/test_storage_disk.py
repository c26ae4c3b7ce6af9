"""Tests for the disk service-time model."""

import random
import tracemalloc

import pytest

from repro.config import CacheConfig, DiskConfig
from repro.regions import RegionList
from repro.storage import Disk
from repro.units import GiB, KiB, MiB

from .test_storage_reference import BS, FILES, apply, blocks_of, disk_pair, observed


def make_disk(**cache_kw) -> Disk:
    cache_kw.setdefault("capacity", 4 * MiB)
    cache_kw.setdefault("block_size", 4 * KiB)
    cache_kw.setdefault("readahead", 128 * KiB)
    return Disk(DiskConfig(), CacheConfig(**cache_kw))


class TestReads:
    def test_empty_request_is_free(self):
        d = make_disk()
        assert d.read_time("f", RegionList.empty()) == 0.0

    def test_cold_read_pays_positioning_and_media(self):
        d = make_disk()
        t = d.read_time("f", RegionList.single(0, 4 * KiB))
        assert t >= d.cfg.positioning_time
        assert d.media_reads == 1
        # Readahead widened the fetch to the full window.
        assert d.media_read_bytes == 128 * KiB

    def test_warm_read_is_memcpy_only(self):
        d = make_disk()
        r = RegionList.single(0, 4 * KiB)
        cold = d.read_time("f", r)
        warm = d.read_time("f", r)
        assert warm < cold / 100
        assert warm == pytest.approx(4 * KiB / d.cache.cfg.memory_copy_rate)

    def test_readahead_makes_sequential_small_reads_cheap(self):
        d = make_disk()
        first = d.read_time("f", RegionList.single(0, 1 * KiB))
        # Next 31 reads of 4 KiB fall inside the 128 KiB readahead window.
        warm = [d.read_time("f", RegionList.single(i * 4 * KiB, 4 * KiB)) for i in range(1, 32)]
        assert all(w < first / 50 for w in warm)
        assert d.media_reads == 1

    def test_sequential_runs_skip_positioning(self):
        d = make_disk(readahead=0)
        a = d.read_time("f", RegionList.single(0, 128 * KiB))
        b = d.read_time("f", RegionList.single(128 * KiB, 128 * KiB))
        # Second fetch continues at the head: no positioning charge.
        assert b == pytest.approx(a - d.cfg.positioning_time)
        assert d.positionings == 1

    def test_far_apart_runs_each_pay_positioning(self):
        d = make_disk(readahead=0)
        r = RegionList([0, 512 * MiB], [4 * KiB, 4 * KiB])
        d.read_time("f", r)
        assert d.positionings == 2

    def test_coalesces_adjacent_regions_before_charging(self):
        d1 = make_disk(readahead=0)
        many = RegionList.contiguous(0, 64 * KiB, 4 * KiB)  # 16 adjacent
        t_many = d1.read_time("f", many)
        d2 = make_disk(readahead=0)
        t_one = d2.read_time("f", RegionList.single(0, 64 * KiB))
        assert t_many == pytest.approx(t_one)
        assert d1.positionings == 1


class TestWrites:
    def test_empty_write_is_free(self):
        d = make_disk()
        assert d.write_time("f", RegionList.empty()) == 0.0

    def test_writeback_write_is_memcpy(self):
        d = make_disk()
        t = d.write_time("f", RegionList.single(0, 64 * KiB))
        assert t == pytest.approx(64 * KiB / d.cache.cfg.memory_copy_rate)
        assert d.media_writes == 0

    def test_dirty_eviction_charges_media(self):
        # 8-block cache; write 16 blocks -> 8 dirty evictions.
        d = make_disk(capacity=8 * 4 * KiB)
        t = d.write_time("f", RegionList.single(0, 16 * 4 * KiB))
        assert d.media_writes >= 1
        assert d.media_write_bytes == 8 * 4 * KiB
        assert t > 16 * 4 * KiB / d.cache.cfg.memory_copy_rate

    def test_written_blocks_become_read_hits(self):
        d = make_disk()
        d.write_time("f", RegionList.single(0, 8 * KiB))
        t = d.read_time("f", RegionList.single(0, 8 * KiB))
        assert d.media_reads == 0
        assert t == pytest.approx(8 * KiB / d.cache.cfg.memory_copy_rate)


class TestFlush:
    def test_flush_clean_cache_is_free(self):
        d = make_disk()
        d.read_time("f", RegionList.single(0, 4 * KiB))
        assert d.flush_time() == 0.0

    def test_flush_charges_dirty_volume(self):
        d = make_disk()
        d.write_time("f", RegionList.single(0, 64 * KiB))
        t = d.flush_time()
        assert t == pytest.approx(d.cfg.positioning_time + 64 * KiB / d.cfg.transfer_rate)
        assert d.cache.dirty_blocks == 0

    def test_repr(self):
        assert "Disk" in repr(make_disk())


class TestCacheState:
    def test_far_offset_allocates_little(self):
        """The cache state grows with the blocks touched, not with the
        largest offset: one block at 64 GiB (block 16M) costs one page."""
        tracemalloc.start()
        try:
            d = Disk(DiskConfig(), CacheConfig())
            far = RegionList.single(64 * GiB, 4 * KiB)
            d.write_time("f", far)
            d.read_time("f", far)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.cache.contains("f", 64 * GiB // (4 * KiB))
        assert d.media_reads == 0  # the written block is a read hit
        assert peak < 1 * MiB

    def test_ten_thousand_evictions_match_the_reference(self):
        """A 1,024-block cache under random reads (and some writes, so that
        dirty blocks are evicted too) over 20,000 blocks of two files."""
        new, ref = disk_pair(1024, 32)
        rng = random.Random(2002)
        touched = set()
        for _ in range(1500):
            f = rng.choice(FILES[:2])
            regions = RegionList.from_pairs(
                sorted(
                    (rng.randrange(20_000) * BS + rng.randrange(BS), rng.randrange(1, 3 * BS))
                    for _ in range(rng.randint(1, 6))
                )
            )
            op = ("write" if rng.random() < 0.2 else "read", f, regions)
            touched |= {(f, b) for b in blocks_of(regions)}
            assert apply(new, op) == apply(ref, op)
        assert new.cache.stats.evictions >= 10_000
        assert new.cache.stats.dirty_evictions > 0
        assert observed(new, touched) == observed(ref, touched)
