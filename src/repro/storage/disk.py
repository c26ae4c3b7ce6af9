"""Disk service-time model for one I/O node.

A :class:`Disk` combines the mechanical model (:class:`~repro.config.DiskConfig`)
with a :class:`~repro.storage.cache.BlockCache` and answers "how many seconds
does this batch of byte runs cost".  It is deliberately a *time* model — the
actual bytes live in the byte store — so the expensive part of a simulation
step is O(number of runs + number of blocks touched), never O(bytes).

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
