"""Server-side buffer cache model (the Linux page cache on an I/O node).

The cache tracks *presence* of fixed-size blocks, not their contents — data
lives in the :class:`~repro.storage.bytestore.ByteStore`.  It answers the
only questions the disk model needs:

* which blocks of an access are resident (hit/miss split),
* how many dirty blocks an insertion evicted (write-back cost).

Replacement is strict LRU by recency stamps.  Each run of blocks a request
touches (looked up or inserted) takes the next tick of one cache-wide clock
as the stamp of all its blocks, so the least recently used block is the one
with the smallest stamp, the lowest-numbered of its run on a tie (a run's
blocks are touched in ascending order).  Per file, stamps live in sparse
pages of ``_PAGE`` consecutive blocks (0 = not resident) and dirty flags in
one bit mask per page, so testing or touching a run is one slice operation
per page and a one-block run one integer test.

Memory: a page exists only while it holds a resident block, so the state
grows with the blocks touched, never with the largest offset.  A page
costs about 0.75 KiB (its 64 slots, dict and heap entries, and mask), so
the state is at most that per resident block, reached when every resident
block is alone in its page; on the benchmark's workloads, whose stripe
files fill pages densely, it is 20-90 B per resident block.

Eviction: a heap holds one entry per resident page, keyed by a lower bound
on the page's smallest stamp (stamps only grow, so a key stays a lower
bound).  One eviction reads the top page's 64 stamps, after re-keying any
page whose key went stale since it was last read; a re-key costs
``O(_PAGE + log pages)`` and follows a touch of that page, so no eviction
scans every resident block.

The paper's I/O nodes had 512 MB of RAM; the default cache is 256 MB of
4 KiB blocks.
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace
from typing import Dict, Hashable, List, Tuple

from ..config import CacheConfig

__all__ = ["BlockCache", "CacheStats"]

_PAGE_SHIFT = 6
_PAGE = 1 << _PAGE_SHIFT  # blocks per page
_MASK = _PAGE - 1


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
        #: file_id -> {page number -> recency stamp of each of its blocks}.
        self._stamps: Dict[Hashable, Dict[int, List[int]]] = {}
        #: file_id -> {page number -> bit mask of its dirty blocks}, for pages
        #: holding a dirty block.
        self._dirty: Dict[Hashable, Dict[int, int]] = {}
        #: (lower bound on the page's smallest stamp, file_id, page number),
        #: one entry per resident page.
        self._heap: list = []
        self._clock = 0  # the last stamp handed out
        self._resident = 0
        self.stats = CacheStats()

    def __len__(self) -> int:
        return self._resident

    @property
    def dirty_blocks(self) -> int:
        return sum(m.bit_count() for masks in self._dirty.values() for m in masks.values())

    # ------------------------------------------------------------------
    def lookup_range(self, file_id: Hashable, first_block: int, last_block: int) -> list:
        """Hit/miss over the contiguous block range ``[first, last]``.

        Hits are touched (LRU refresh) in ascending block order and every
        block is counted as a hit or a miss.  Returns the *missed* block
        numbers (ascending); misses are NOT inserted — call
        :meth:`insert_range` once the fetch is decided so readahead can
        widen the window first.
        """
        return self.lookup_runs(file_id, [(first_block, last_block)])[1]

    def lookup_runs(
        self, file_id: Hashable, runs: List[Tuple[int, int]], start: int = 0
    ) -> Tuple[int, list]:
        """:meth:`lookup_range` over the block ranges ``(first, last)`` of
        ``runs[start:]`` in order, up to and including the first range that
        misses.  Returns that range's index and missed blocks, or
        ``(len(runs), [])`` when every block hit."""
        pages = self._stamps.get(file_id)
        c = self._clock
        hits = 0
        missed: List[int] = []
        for k in range(start, len(runs)):
            first, last = runs[k]
            c += 1  # one stamp per range; its blocks rank in block order
            if first == last:
                st = pages.get(first >> _PAGE_SHIFT) if pages else None
                i = first & _MASK
                if st is not None and st[i]:
                    st[i] = c
                    hits += 1
                    continue
                missed.append(first)
                break
            b = first
            while b <= last:
                lo = b & _MASK
                n = last - b + 1
                if n > _PAGE - lo:
                    n = _PAGE - lo
                st = pages.get(b >> _PAGE_SHIFT) if pages else None
                if st is None:
                    missed.extend(range(b, b + n))
                else:
                    old = st[lo : lo + n]
                    if 0 in old:
                        missed.extend([b + j for j, s in enumerate(old) if not s])
                        st[lo : lo + n] = [c if s else 0 for s in old]
                        hits += n - old.count(0)
                    else:
                        st[lo : lo + n] = [c] * n
                        hits += n
                b += n
            if missed:
                break
        else:
            k = len(runs)
        self._clock = c
        self.stats.hits += hits
        self.stats.misses += len(missed)
        return k, missed

    def contains(self, file_id: Hashable, block: int) -> bool:
        """Non-mutating membership probe (no LRU touch, no stats)."""
        pages = self._stamps.get(file_id)
        st = pages.get(block >> _PAGE_SHIFT) if pages else None
        return st is not None and st[block & _MASK] != 0

    def insert_range(
        self, file_id: Hashable, first_block: int, n_blocks: int, dirty: bool = False
    ) -> int:
        """Make ``n_blocks`` blocks starting at ``first_block`` resident
        (marking them dirty for writes).

        Returns the number of *dirty* blocks evicted to make room — the
        write-back volume the disk model must charge.  Inserting an already
        resident block refreshes it (and can upgrade clean -> dirty).
        """
        return sum(self.insert_runs(file_id, [(first_block, first_block + n_blocks - 1)], dirty))

    def insert_runs(
        self, file_id: Hashable, runs: List[Tuple[int, int]], dirty: bool = False
    ) -> List[int]:
        """:meth:`insert_range` over the block ranges ``(first, last)`` of
        ``runs`` in order.  Returns the dirty blocks evicted by each range
        that evicted any, in range order."""
        capacity = self.capacity_blocks
        if capacity <= 0:
            # A zero-size cache: everything is an immediate dirty writeback.
            return [last - first + 1 for first, last in runs if last >= first] if dirty else []
        pages = self._stamps.get(file_id)
        if pages is None:
            pages = self._stamps[file_id] = {}
        masks = None
        if dirty:
            masks = self._dirty.get(file_id)
            if masks is None:
                masks = self._dirty[file_id] = {}
        evicted: List[int] = []
        c = self._clock
        new = 0
        for first, last in runs:
            c += 1  # one stamp per range; its blocks rank in block order
            if self._resident + new + last - first + 1 > capacity:
                # The range may not fit: settle the counters, then insert
                # it block by block if it really overflows.
                self._clock = c
                self._resident += new
                self.stats.insertions += new
                new = 0
                if self._resident + self._absent(file_id, first, last) > capacity:
                    n_evicted = self._insert_evicting(file_id, first, last, dirty)
                    if n_evicted:
                        evicted.append(n_evicted)
                    c = self._clock
                    continue
            if first == last:
                pno = first >> _PAGE_SHIFT
                lo = first & _MASK
                st = pages.get(pno)
                if st is None:
                    st = pages[pno] = [0] * _PAGE
                    heappush(self._heap, (c, file_id, pno))
                new += not st[lo]
                st[lo] = c
                if masks is not None:
                    masks[pno] = masks.get(pno, 0) | 1 << lo
                continue
            b = first
            while b <= last:
                pno = b >> _PAGE_SHIFT
                lo = b & _MASK
                n = last - b + 1
                if n > _PAGE - lo:
                    n = _PAGE - lo
                st = pages.get(pno)
                if st is None:
                    st = pages[pno] = [0] * _PAGE
                    heappush(self._heap, (c, file_id, pno))
                new += st[lo : lo + n].count(0)
                st[lo : lo + n] = [c] * n
                if masks is not None:
                    masks[pno] = masks.get(pno, 0) | ((1 << n) - 1) << lo
                b += n
        self._clock = c
        self._resident += new
        self.stats.insertions += new
        return evicted

    def _absent(self, file_id: Hashable, first_block: int, last_block: int) -> int:
        """How many blocks of ``[first, last]`` are not resident."""
        return sum(not self.contains(file_id, b) for b in range(first_block, last_block + 1))

    def _insert_evicting(
        self, file_id: Hashable, first_block: int, last_block: int, dirty: bool
    ) -> int:
        """Insert ``[first, last]`` when the cache overflows on the way:
        block by block in ascending order, evicting the LRU block after each
        new one that does not fit (it may be a block further on in the
        range).  Returns the dirty blocks evicted."""
        stats = self.stats
        dirty_evicted = 0
        for b in range(first_block, last_block + 1):
            pages = self._stamps[file_id]
            pno = b >> _PAGE_SHIFT
            i = b & _MASK
            st = pages.get(pno)
            self._clock += 1
            if st is None:
                st = pages[pno] = [0] * _PAGE
                heappush(self._heap, (self._clock, file_id, pno))
            was_resident = st[i] != 0
            st[i] = self._clock
            if dirty:
                masks = self._dirty[file_id]
                masks[pno] = masks.get(pno, 0) | 1 << i
            if was_resident:
                continue
            self._resident += 1
            stats.insertions += 1
            if self._resident > self.capacity_blocks:
                dirty_evicted += self._evict()
        return dirty_evicted

    def _evict(self) -> int:
        """Drop the least recently used block; returns 1 if it was dirty."""
        heap = self._heap
        while True:
            key, file_id, pno = heap[0]
            st = self._stamps[file_id][pno]
            low = min(filter(None, st))
            if low == key:
                break
            heapreplace(heap, (low, file_id, pno))  # the key was stale
        i = st.index(low)
        st[i] = 0
        rest = min(filter(None, st), default=0)
        if rest:
            heapreplace(heap, (rest, file_id, pno))
        else:
            heappop(heap)
            del self._stamps[file_id][pno]
        self._resident -= 1
        stats = self.stats
        stats.evictions += 1
        masks = self._dirty.get(file_id)
        mask = masks.get(pno, 0) if masks else 0
        if not mask >> i & 1:
            return 0
        mask &= ~(1 << i)
        if mask:
            masks[pno] = mask
        else:
            del masks[pno]
        stats.dirty_evictions += 1
        return 1

    def flush_all(self) -> int:
        """Mark everything clean; returns how many blocks were dirty."""
        n = self.dirty_blocks
        self._dirty = {}
        return n

    def __repr__(self) -> str:
        return f"<BlockCache {len(self)}/{self.capacity_blocks} blocks>"
