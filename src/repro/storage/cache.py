"""Server-side buffer cache model (the Linux page cache on an I/O node).

The cache tracks *presence* of fixed-size blocks, not their contents — data
lives in the :class:`~repro.storage.bytestore.ByteStore`.  It answers the
only questions the disk model needs:

* which blocks of an access are resident (hit/miss split),
* how many dirty blocks an insertion evicted (write-back cost).

Replacement is strict LRU via an ordered dict.  The paper's I/O nodes had
512 MB of RAM; the default cache is 256 MB of 4 KiB blocks.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Tuple

from ..config import CacheConfig

__all__ = ["BlockCache", "CacheStats"]


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
