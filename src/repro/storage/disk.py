"""Disk service-time model for one I/O node.

A :class:`Disk` combines the mechanical model (:class:`~repro.config.DiskConfig`)
with a :class:`~repro.storage.cache.BlockCache` and answers "how many seconds
does this batch of byte runs cost".  It is deliberately a *time* model — the
actual bytes live in the byte store — so a request costs one pass over its
regions to merge them into runs, then one cache operation per run (per
64-block page a run spans), never O(bytes) and, on the usual all-hit path,
not O(blocks).

Model summary:

* **Reads** always pay a memory-copy for the requested bytes.  Missed block
  segments are fetched from media: one positioning delay per discontiguous
  fetch (skipped when the fetch continues where the head left off — a
  sequential scan seeks once) plus media transfer for a readahead-widened
  window, which then becomes resident.
* **Writes** land in the cache (write-back, like Linux): memory-copy plus
  media transfer for any dirty blocks evicted to make room.  Dirty blocks
  reach media at eviction or at :meth:`Disk.flush_time` (fsync).
"""

from __future__ import annotations

from typing import Hashable, Optional, Tuple

from ..config import CacheConfig, DiskConfig
from ..regions import RegionList
from .cache import BlockCache

__all__ = ["Disk"]

#: Region lists up to this long are merged into runs by one Python walk;
#: longer ones by :meth:`RegionList.coalesced`, whose numpy steps cost tens
#: of microseconds per call but less per region.
_WALK_MAX = 128


def _block_runs(regions: RegionList, block_size: int) -> Tuple[list, int]:
    """Merge ``regions`` into byte runs, as :meth:`RegionList.coalesced`
    does (empty regions dropped, overlapping or touching ones joined), and
    return each run's ``(first, last)`` block, in ascending order, with the
    runs' total bytes."""
    if regions.count <= _WALK_MAX:
        runs = []
        total = 0
        start = end = -1
        for off, ln in zip(regions.offsets.tolist(), regions.lengths.tolist()):
            if not ln:
                continue
            if off > end:
                if end >= 0:
                    runs.append((start // block_size, (end - 1) // block_size))
                    total += end - start
                start = off
                end = off + ln
            elif off >= start:
                if off + ln > end:
                    end = off + ln
            else:
                break  # starts before the current run: unsorted
        else:
            if end >= 0:
                runs.append((start // block_size, (end - 1) // block_size))
                total += end - start
            return runs, total
    r = regions.coalesced()
    firsts = (r.offsets // block_size).tolist()
    lasts = ((r.ends - 1) // block_size).tolist()
    return list(zip(firsts, lasts)), r.total_bytes


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
        cache = self.cache
        bs = cache.cfg.block_size
        runs, total = _block_runs(regions, bs)
        if total == 0:
            return 0.0
        ra_blocks = max(cache.cfg.readahead // bs, 1)
        t = self._memcpy(total)  # cache -> iod buffer copy
        k = 0
        while True:
            # Touch runs up to the first one that misses; all hit: done.
            k, missed = cache.lookup_runs(file_id, runs, k)
            if not missed:
                return t
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
            k += 1

    def write_time(self, file_id: Hashable, regions: RegionList) -> float:
        """Service time for writing the given regions of one stripe file."""
        cache = self.cache
        bs = cache.cfg.block_size
        runs, total = _block_runs(regions, bs)
        if total == 0:
            return 0.0
        t = self._memcpy(total)  # iod buffer -> cache copy
        for dirty_evicted in cache.insert_runs(file_id, runs, dirty=True):
            # Write-back of a run's evicted dirty pages: one positioning
            # for the batch plus media transfer.
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
