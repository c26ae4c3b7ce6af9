"""Data sieving I/O (Section 3.2 of the paper, after Thakur et al.).

Reads: move large contiguous windows (the *data sieving buffer*, 32 MB by
default) from file into client memory and extract the wanted regions there,
trading extra bytes on the wire for far fewer I/O requests.

Writes: PVFS has no file locks, so a noncontiguous sieving write must
read-modify-write each window, and concurrent writers must be serialized
externally — the paper does it with an ``MPI_Barrier()`` loop, reproduced
here as :meth:`DataSievingIO.serialized_write`.

The method requires file regions sorted by offset (as ROMIO does for
flattened datatypes); writes additionally require disjoint regions.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import RegionError
from ..mpi import Communicator
from ..regions import RegionList, pair_pieces, split_with_parents
from ..pvfs.client import PVFSFile
from .base import AccessMethod, validate_transfer

__all__ = ["DataSievingIO", "sieve_spans"]


def _window_pieces(regions: RegionList, buffer_size: int):
    """Split sorted, non-empty regions at sieve buffer window boundaries.

    Windows tile the extent in ``buffer_size`` steps from its first byte.
    Returns ``(pieces, parent, first)``: the pieces grouped by window, in
    region order within each window; the index in ``regions`` each piece
    came from; and the position of each non-empty window's first piece.
    Windows holding no piece never appear.
    """
    start = int(regions.offsets[0])
    shifted = regions.shift(-start)
    pieces, parent, window = split_with_parents(shifted, buffer_size)
    if (window[1:] < window[:-1]).any():
        # Overlapping regions: gather each window's pieces, in region order.
        order = np.argsort(window, kind="stable")
        pieces, parent, window = pieces.take(order), parent[order], window[order]
    first = np.concatenate(([0], np.flatnonzero(window[1:] != window[:-1]) + 1))
    if pieces is shifted:  # no region crossed a window edge
        return regions, parent, first
    return pieces.shift(start), parent, first


def sieve_spans(file_regions: RegionList, buffer_size: int):
    """Plan the contiguous windows a sieving transfer will issue.

    Returns ``(spans, useful)``: the trimmed read/write spans (one per
    non-empty buffer window, in file order) and the useful byte count in
    each.  :class:`DataSievingIO` plans its windows with the same
    :func:`_window_pieces`, so the simulator and the analytic model can
    never disagree about request counts.
    """
    if buffer_size <= 0:
        raise RegionError("sieve buffer size must be positive")
    r = file_regions.drop_empty()
    if not r.is_sorted():
        raise RegionError("data sieving requires file regions sorted by offset")
    if r.count == 0:
        return RegionList.empty(), np.empty(0, np.int64)
    pieces, _, first = _window_pieces(r, buffer_size)
    lo = pieces.offsets[first]
    hi = np.maximum.reduceat(pieces.ends, first)
    useful = np.add.reduceat(pieces.lengths, first)
    return RegionList._trusted(lo, hi - lo, nonempty=True), useful


class DataSievingIO(AccessMethod):
    """Buffered noncontiguous access through large contiguous requests."""

    name = "datasieve"

    def __init__(self, buffer_size: Optional[int] = None) -> None:
        #: None -> use the cluster's configured sieve buffer (paper: 32 MB).
        self.buffer_size = buffer_size

    def _buffer(self, f: PVFSFile) -> int:
        b = (
            self.buffer_size
            if self.buffer_size is not None
            else f.client.cluster.config.sieve_buffer_size
        )
        if b <= 0:
            raise RegionError("sieve buffer size must be positive")
        return b

    @staticmethod
    def _check_file_regions(file_regions: RegionList, for_write: bool) -> None:
        if not file_regions.is_sorted():
            raise RegionError(
                "data sieving requires file regions sorted by offset"
            )
        if for_write and not file_regions.is_disjoint():
            raise RegionError("data sieving writes require disjoint file regions")

    # ------------------------------------------------------------------
    def _windows(self, f, mem_regions, file_regions):
        """Yield per-window work: (read_lo, read_hi, piece arrays).

        Pieces are contiguous in both memory and the file; each window's
        read span is trimmed to the pieces it actually contains, and pieces
        crossing a window edge are split.
        """
        mem_off, file_off, lengths = pair_pieces(mem_regions, file_regions)
        if lengths.size == 0:
            return
        paired = RegionList._trusted(file_off, lengths, nonempty=True)
        pieces, parent, first = _window_pieces(paired, self._buffer(f))
        fo, ln = pieces.offsets, pieces.lengths
        mo = mem_off[parent] + (fo - file_off[parent])
        hi = np.maximum.reduceat(pieces.ends, first)
        stops = np.append(first[1:], fo.size)
        for a, b, h in zip(first.tolist(), stops.tolist(), hi.tolist()):
            yield int(fo[a]), h, mo[a:b], fo[a:b], ln[a:b]

    # ------------------------------------------------------------------
    def read(self, f: PVFSFile, memory, mem_regions, file_regions):
        validate_transfer(memory, mem_regions, file_regions)
        self._check_file_regions(file_regions, for_write=False)
        sim = f.client.sim
        useful = 0
        fetched = 0
        for lo, hi, mo, fo, ln in self._windows(f, mem_regions, file_regions):
            data = yield from f.read(lo, hi - lo)
            nbytes = int(ln.sum())
            useful += nbytes
            fetched += hi - lo
            extract = self._memcpy_time(f, nbytes)
            if extract > 0:
                yield sim.timeout(extract)
            if memory is not None and data is not None:
                for m, x, n in zip(mo.tolist(), fo.tolist(), ln.tolist()):
                    memory[m : m + n] = data[x - lo : x - lo + n]
        f.client.scope.add("sieve_fetched_bytes", fetched)
        f.client.scope.add("sieve_wasted_bytes", fetched - useful)

    def write(self, f: PVFSFile, memory, mem_regions, file_regions):
        """Read-modify-write.  UNSAFE under concurrency — wrap with
        :meth:`serialized_write` when several clients target one file."""
        validate_transfer(memory, mem_regions, file_regions)
        self._check_file_regions(file_regions, for_write=True)
        sim = f.client.sim
        move = f.client.move_bytes
        for lo, hi, mo, fo, ln in self._windows(f, mem_regions, file_regions):
            span = hi - lo
            covered = int(ln.sum())
            if covered < span:
                # Holes inside the window: fetch existing bytes first.
                data = yield from f.read(lo, span)
            else:
                data = np.empty(span, dtype=np.uint8) if move else None
            overlay = self._memcpy_time(f, covered)
            if overlay > 0:
                yield sim.timeout(overlay)
            if memory is not None and data is not None:
                for m, x, n in zip(mo.tolist(), fo.tolist(), ln.tolist()):
                    data[x - lo : x - lo + n] = memory[m : m + n]
            yield from f.write(lo, data, length=span)
            f.client.scope.add("sieve_rmw_bytes", span - covered)

    def serialized_write(
        self,
        comm: Communicator,
        rank: int,
        f: PVFSFile,
        memory,
        mem_regions: RegionList,
        file_regions: RegionList,
    ):
        """The paper's barrier loop: in each round exactly one rank writes,
        then everybody synchronizes (Section 4.3.1)."""
        for turn in range(comm.size):
            if turn == rank:
                yield from self.write(f, memory, mem_regions, file_regions)
            yield comm.barrier()
