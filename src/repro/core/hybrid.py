"""Hybrid list + data-sieving I/O (the paper's Section 5 future work).

    "A combination of the list I/O and data sieving approaches could
    provide a hybrid solution that would be applicable over a larger range
    of access patterns. ... if two noncontiguous regions are close to each
    other, a data sieving operation may take place for just those
    particular regions."

The hybrid clusters file regions whose gaps are at most ``gap_threshold``
bytes into *extents*, then issues the extents through list I/O:

* dense neighborhoods collapse into one region each (fewer regions per
  request and fewer requests — the sieving advantage, without fetching the
  far-apart junk pure sieving would),
* isolated regions stay exact (the list I/O advantage).

Reads fetch extent streams and drop the gap bytes client-side.  Writes on
extents with interior gaps read-modify-write those extents (and therefore
need external serialization under concurrency, like sieving); with
``gap_threshold=0`` writes never RMW and degrade gracefully to pure list
I/O on coalesced regions.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import RegionError
from ..mpi import Communicator
from ..regions import RegionList, build_flat_indices
from ..pvfs.client import PVFSFile
from .base import AccessMethod, validate_transfer

__all__ = ["HybridIO", "cluster_extents"]


def cluster_extents(file_regions: RegionList, gap_threshold: int) -> RegionList:
    """Merge sorted, disjoint regions whose inter-region gap is at most
    ``gap_threshold`` bytes into covering extents."""
    if gap_threshold < 0:
        raise RegionError("gap_threshold must be non-negative")
    r = file_regions.coalesced()
    if r.count <= 1:
        return r
    # Coalesced runs are disjoint and sorted, so their ends are their own
    # running maximum: each cluster ends where its last run does.
    ends = r.ends
    brk = r.offsets[1:] - ends[:-1] > gap_threshold
    starts = np.concatenate((r.offsets[:1], r.offsets[1:][brk]))
    stops = np.concatenate((ends[:-1][brk], ends[-1:]))
    return RegionList._trusted(starts, stops - starts, nonempty=True)


class HybridIO(AccessMethod):
    """List I/O over sieved extents."""

    name = "hybrid"

    def __init__(self, gap_threshold: int = 4096) -> None:
        if gap_threshold < 0:
            raise RegionError("gap_threshold must be non-negative")
        self.gap_threshold = gap_threshold

    # ------------------------------------------------------------------
    def _plan(self, file_regions: RegionList) -> Tuple[RegionList, np.ndarray]:
        if not file_regions.is_sorted():
            raise RegionError("hybrid I/O requires file regions sorted by offset")
        extents = cluster_extents(file_regions, self.gap_threshold)
        # Positions of every requested byte inside the extents' byte stream.
        ext_stream_base = np.concatenate(([0], np.cumsum(extents.lengths)[:-1]))
        return extents, ext_stream_base

    def _region_positions_in_extents(
        self, file_regions: RegionList, extents: RegionList, base: np.ndarray
    ) -> np.ndarray:
        """Flat indices of the requested bytes within the extent stream."""
        r = file_regions.drop_empty()
        which = np.searchsorted(extents.offsets, r.offsets, side="right") - 1
        start_in_stream = base[which] + (r.offsets - extents.offsets[which])
        return build_flat_indices(start_in_stream, r.lengths)

    # ------------------------------------------------------------------
    def read(self, f: PVFSFile, memory, mem_regions, file_regions):
        validate_transfer(memory, mem_regions, file_regions)
        if not file_regions.is_disjoint():
            raise RegionError("hybrid I/O requires disjoint file regions")
        extents, base = self._plan(file_regions)
        ext_stream = yield from f.read_list(extents)
        useful = file_regions.total_bytes
        unpack = self._memcpy_time(f, useful)
        if unpack > 0:
            yield f.client.sim.timeout(unpack)
        if memory is not None and ext_stream is not None:
            idx = self._region_positions_in_extents(file_regions, extents, base)
            self._scatter_memory(memory, mem_regions, ext_stream[idx])
        f.client.scope.add("hybrid_fetched_bytes", extents.total_bytes)
        f.client.scope.add("hybrid_wasted_bytes", extents.total_bytes - useful)

    def write(self, f: PVFSFile, memory, mem_regions, file_regions):
        """RMW only on extents that contain gaps; needs external
        serialization when several clients write one file concurrently."""
        validate_transfer(memory, mem_regions, file_regions)
        if not file_regions.is_disjoint():
            raise RegionError("hybrid I/O requires disjoint file regions")
        extents, base = self._plan(file_regions)
        has_gaps = extents.total_bytes > file_regions.total_bytes
        move = f.client.move_bytes
        if has_gaps:
            ext_stream = yield from f.read_list(extents)
        else:
            ext_stream = (
                np.empty(extents.total_bytes, dtype=np.uint8) if move else None
            )
        pack = self._memcpy_time(f, file_regions.total_bytes)
        if pack > 0:
            yield f.client.sim.timeout(pack)
        if memory is not None and ext_stream is not None:
            idx = self._region_positions_in_extents(file_regions, extents, base)
            ext_stream[idx] = self._gather_memory(memory, mem_regions)
        yield from f.write_list(extents, ext_stream)
        f.client.scope.add("hybrid_rmw_bytes", extents.total_bytes - file_regions.total_bytes if has_gaps else 0)

    def serialized_write(
        self,
        comm: Communicator,
        rank: int,
        f: PVFSFile,
        memory,
        mem_regions: RegionList,
        file_regions: RegionList,
    ):
        """Barrier-serialized variant for concurrent RMW writers."""
        for turn in range(comm.size):
            if turn == rank:
                yield from self.write(f, memory, mem_regions, file_regions)
            yield comm.barrier()
