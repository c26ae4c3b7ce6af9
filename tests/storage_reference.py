"""Reference model for the disk and cache tests: the block-at-a-time LRU.

This is the disk model the simulator shipped before requests were priced by
runs — an ``OrderedDict`` of ``(file_id, block)`` keys in recency order,
walked one 4 KiB block at a time, behind a :class:`Disk` that merges every
request with :meth:`RegionList.coalesced`.  It is kept verbatim so the
tests can drive it and :mod:`repro.storage` with the same operations and
require equal times, cache statistics and residency (see
``tests/test_storage_reference.py``); it is not used by the simulator.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Optional, Tuple

from repro.config import CacheConfig, DiskConfig
from repro.regions import RegionList

__all__ = ["BlockCache", "CacheStats", "Disk"]


class CacheStats:
    """Running hit/miss/eviction totals."""

    __slots__ = ("hits", "misses", "insertions", "evictions", "dirty_evictions")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.dirty_evictions = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def __repr__(self) -> str:
        return (
            f"<CacheStats hits={self.hits} misses={self.misses} "
            f"evictions={self.evictions} (dirty {self.dirty_evictions})>"
        )


class BlockCache:
    """LRU block-presence cache."""

    def __init__(self, cfg: CacheConfig) -> None:
        self.cfg = cfg
        self.capacity_blocks = cfg.n_blocks
        #: (file_id, block_no) -> dirty flag; order == recency (oldest first).
        self._lru: "OrderedDict[Tuple[Hashable, int], bool]" = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def dirty_blocks(self) -> int:
        return sum(1 for d in self._lru.values() if d)

    # ------------------------------------------------------------------
    def lookup_range(self, file_id: Hashable, first_block: int, last_block: int) -> list:
        """Hit/miss over the contiguous block range ``[first, last]``.

        Hits are touched (LRU refresh) in ascending block order and every
        block is counted as a hit or a miss.  Returns the *missed* block
        numbers (ascending); misses are NOT inserted — call
        :meth:`insert_range` once the fetch is decided so readahead can
        widen the window first.
        """
        lru = self._lru
        missed = []
        hits = 0
        for b in range(first_block, last_block + 1):
            key = (file_id, b)
            if key in lru:
                lru.move_to_end(key)
                hits += 1
            else:
                missed.append(b)
        self.stats.hits += hits
        self.stats.misses += len(missed)
        return missed

    def contains(self, file_id: Hashable, block: int) -> bool:
        """Non-mutating membership probe (no LRU touch, no stats)."""
        return (file_id, block) in self._lru

    def insert_range(
        self, file_id: Hashable, first_block: int, n_blocks: int, dirty: bool = False
    ) -> int:
        """Make ``n_blocks`` blocks starting at ``first_block`` resident
        (marking them dirty for writes).

        Returns the number of *dirty* blocks evicted to make room — the
        write-back volume the disk model must charge.  Inserting an already
        resident block refreshes it (and can upgrade clean -> dirty).
        """
        if self.capacity_blocks <= 0:
            # A zero-size cache: everything is an immediate dirty writeback.
            return n_blocks if dirty else 0
        lru = self._lru
        stats = self.stats
        capacity = self.capacity_blocks
        dirty_evicted = 0
        for b in range(first_block, first_block + n_blocks):
            key = (file_id, b)
            if key in lru:
                was_dirty = lru.pop(key)
                lru[key] = was_dirty or dirty
                continue
            lru[key] = dirty
            stats.insertions += 1
            if len(lru) > capacity:
                _old_key, old_dirty = lru.popitem(last=False)
                stats.evictions += 1
                if old_dirty:
                    stats.dirty_evictions += 1
                    dirty_evicted += 1
        return dirty_evicted

    def flush_all(self) -> int:
        """Mark everything clean; returns how many blocks were dirty."""
        n = 0
        for key, d in self._lru.items():
            if d:
                n += 1
                self._lru[key] = False
        return n

    def __repr__(self) -> str:
        return f"<BlockCache {len(self)}/{self.capacity_blocks} blocks>"


class Disk:
    """Stateful per-server disk: head position + buffer cache."""

    def __init__(self, cfg: DiskConfig, cache_cfg: CacheConfig) -> None:
        self.cfg = cfg
        self.cache = BlockCache(cache_cfg)
        #: (file_id, byte offset) the head would be at after the last media
        #: access; None before any access.
        self._head: Optional[Tuple[Hashable, int]] = None
        # -- instrumentation --------------------------------------------
        self.media_reads = 0
        self.media_read_bytes = 0
        self.media_writes = 0
        self.media_write_bytes = 0
        self.positionings = 0
        #: Fault-injection service-time multiplier (see
        #: :class:`repro.faults.DiskStall`): 1.0 = healthy; the I/O daemon
        #: multiplies every disk access by this while a stall window is open.
        self.fault_scale = 1.0

    # ------------------------------------------------------------------
    def drop_cache(self) -> None:
        """Forget every cached page and the head position — the cold state
        an I/O daemon restarts into after a crash.  Dirty pages are lost
        without write-back (their data either reached the byte store before
        the ack, or the client never got an ack and will replay)."""
        stats = self.cache.stats
        self.cache = BlockCache(self.cache.cfg)
        self.cache.stats = stats  # keep cumulative hit/miss accounting
        self._head = None

    # ------------------------------------------------------------------
    def _position(self, file_id: Hashable, offset: int) -> float:
        """Positioning cost to start a media access at ``offset``; free when
        the access continues sequentially from the previous one."""
        if self._head == (file_id, offset):
            return 0.0
        self.positionings += 1
        return self.cfg.positioning_time

    def _media(self, nbytes: int) -> float:
        return nbytes / self.cfg.transfer_rate

    def _memcpy(self, nbytes: int) -> float:
        return nbytes / self.cache.cfg.memory_copy_rate

    # ------------------------------------------------------------------
    def read_time(self, file_id: Hashable, regions: RegionList) -> float:
        """Service time for reading the given regions of one stripe file."""
        runs = regions.coalesced()
        if runs.total_bytes == 0:
            return 0.0
        cache = self.cache
        bs = cache.cfg.block_size
        ra_blocks = max(cache.cfg.readahead // bs, 1)
        t = self._memcpy(runs.total_bytes)  # cache -> iod buffer copy
        for off, ln in runs:
            # A run's blocks are consecutive, so hit/miss runs over a plain
            # integer range (no per-run array building); the warm-cache
            # all-hit case costs just the lookup walk.
            missed = cache.lookup_range(file_id, off // bs, (off + ln - 1) // bs)
            if not missed:
                continue
            # Group consecutive missed blocks into fetch segments.
            seg_start = prev = missed[0]
            for b in missed[1:] + [None]:
                if b is not None and b == prev + 1:
                    prev = b
                    continue
                seg_len = prev - seg_start + 1
                n_fetch = max(seg_len, ra_blocks)  # readahead widening
                fetch_start = seg_start * bs
                fetch_bytes = n_fetch * bs
                t += self._position(file_id, fetch_start)
                t += self._media(fetch_bytes)
                self.media_reads += 1
                self.media_read_bytes += fetch_bytes
                dirty_evicted = cache.insert_range(file_id, seg_start, n_fetch)
                t += self._media(dirty_evicted * bs)
                self._head = (file_id, fetch_start + fetch_bytes)
                seg_start = prev = b
        return t

    def write_time(self, file_id: Hashable, regions: RegionList) -> float:
        """Service time for writing the given regions of one stripe file."""
        runs = regions.coalesced()
        if runs.total_bytes == 0:
            return 0.0
        cache = self.cache
        bs = cache.cfg.block_size
        t = self._memcpy(runs.total_bytes)  # iod buffer -> cache copy
        for off, ln in runs:
            first = off // bs
            last = (off + ln - 1) // bs
            dirty_evicted = cache.insert_range(file_id, first, last - first + 1, dirty=True)
            if dirty_evicted:
                # Write-back of evicted dirty pages: one positioning for the
                # batch plus media transfer.
                t += self.cfg.positioning_time + self._media(dirty_evicted * bs)
                self.media_writes += 1
                self.media_write_bytes += dirty_evicted * bs
                self.positionings += 1
        return t

    def flush_time(self) -> float:
        """Cost of syncing all dirty blocks to media (used at close)."""
        dirty = self.cache.flush_all()
        if dirty == 0:
            return 0.0
        bs = self.cache.cfg.block_size
        self.media_writes += 1
        self.media_write_bytes += dirty * bs
        self.positionings += 1
        self._head = None
        return self.cfg.positioning_time + self._media(dirty * bs)

    def __repr__(self) -> str:
        return f"<Disk media_r={self.media_read_bytes} media_w={self.media_write_bytes}>"
