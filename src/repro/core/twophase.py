"""Two-phase collective I/O as a first-class access method.

:class:`TwoPhaseIO` adapts the ROMIO-style engine in
:mod:`repro.mpiio.twophase` to the paper's transfer interface (memory
regions + file regions), so the experiment harness, sweep specs, figure
drivers, and bench suite can select ``"twophase"`` exactly like
``"multiple"`` or ``"list"``.

Unlike the independent methods, two-phase is *collective*: a transfer is
only defined across all ranks of a communicator (they exchange metadata
and redistribute data over the fabric before any file access happens).
The harness detects ``TwoPhaseIO.collective`` and drives
:meth:`collective_read` / :meth:`collective_write` with the workload's
communicator, which matches each rank's call to the others' (the same
signature as :meth:`~repro.core.DataSievingIO.serialized_write`).

Cost accounting mirrors list I/O on the client side (one pack/unpack of
the transfer volume at the memcpy rate); the exchange traffic and the
aggregators' assembly and file phases are charged by the engine itself.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import RegionError
from ..mpi import Communicator
from ..mpiio import twophase as engine
from ..pvfs.client import PVFSFile
from ..regions import RegionList, gather_runs
from .base import AccessMethod, validate_transfer

__all__ = ["TwoPhaseIO"]


def wire_order(file_regions: RegionList):
    """Sorted, disjoint wire regions + the sort permutation.

    The engine requires each rank's regions sorted by offset and
    non-overlapping (clip/stream arithmetic); the transfer interface
    promises neither.  Returns ``(regions, order)`` where ``order`` maps
    sorted position -> original region index, or raises
    :class:`~repro.errors.RegionError` on overlapping regions.
    """
    regions = file_regions.drop_empty()
    if regions.is_sorted():
        order = np.arange(regions.count)
    else:
        order = np.argsort(regions.offsets, kind="stable")
        regions = RegionList._trusted(regions.offsets[order], regions.lengths[order], nonempty=True)
    if not regions.is_disjoint():
        raise RegionError("two-phase collective I/O needs disjoint file regions per rank")
    return regions, order


class TwoPhaseIO(AccessMethod):
    """ROMIO-style two-phase collective I/O (aggregators + file domains)."""

    name = "twophase"
    #: Marks this method as collective: the harness must supply a
    #: communicator and call ``collective_read/write``.
    collective = True

    def __init__(
        self, cb_nodes: Optional[int] = None, cb_buffer: Optional[int] = None
    ) -> None:
        if cb_nodes is not None and cb_nodes < 1:
            raise engine.MPIIOError("cb_nodes must be >= 1")
        if cb_buffer is not None and cb_buffer < 1:
            raise engine.MPIIOError("cb_buffer must be a positive byte count")
        self.cb_nodes = cb_nodes
        self.cb_buffer = cb_buffer

    # -- the independent interface is deliberately unsupported -----------
    def read(self, f, memory, mem_regions, file_regions):
        raise engine.MPIIOError(
            "two-phase I/O is collective; use collective_read with a communicator"
        )

    def write(self, f, memory, mem_regions, file_regions):
        raise engine.MPIIOError(
            "two-phase I/O is collective; use collective_write with a communicator"
        )

    # -- collective interface --------------------------------------------
    def collective_write(
        self,
        comm: Communicator,
        rank: int,
        f: PVFSFile,
        memory: Optional[np.ndarray],
        mem_regions: RegionList,
        file_regions: RegionList,
    ):
        """Simulation process: memory regions -> file regions, collectively."""
        validate_transfer(memory, mem_regions, file_regions)
        regions, order = wire_order(file_regions)
        stream = self._gather_memory(memory, mem_regions)
        if stream is not None:
            stream = _permute_stream(stream, file_regions.drop_empty(), order)
        pack = self._memcpy_time(f, file_regions.total_bytes)
        if pack > 0:
            yield f.client.sim.timeout(pack)
        yield from engine.collective_write(
            f, comm, rank, regions, stream, cb_nodes=self.cb_nodes, cb_buffer=self.cb_buffer
        )

    def collective_read(
        self,
        comm: Communicator,
        rank: int,
        f: PVFSFile,
        memory: Optional[np.ndarray],
        mem_regions: RegionList,
        file_regions: RegionList,
    ):
        """Simulation process: file regions -> memory regions, collectively."""
        validate_transfer(memory, mem_regions, file_regions)
        regions, order = wire_order(file_regions)
        stream = yield from engine.collective_read(
            f, comm, rank, regions, cb_nodes=self.cb_nodes, cb_buffer=self.cb_buffer
        )
        if stream is not None:
            stream = _unpermute_stream(stream, regions, order)
        self._scatter_memory(memory, mem_regions, stream)

    def __repr__(self) -> str:
        return f"<TwoPhaseIO cb_nodes={self.cb_nodes} cb_buffer={self.cb_buffer}>"


def _starts_of(regions: RegionList) -> np.ndarray:
    if regions.count == 0:
        return np.zeros(0, np.int64)
    return np.concatenate(([0], np.cumsum(regions.lengths)[:-1]))


def _permute_stream(stream, regions: RegionList, order: np.ndarray):
    """Reorder a file-region-order byte stream into sorted-region order."""
    if _is_identity(order):
        return stream
    starts = _starts_of(regions)
    return gather_runs(stream, starts[order], regions.lengths[order])


def _unpermute_stream(stream, sorted_regions: RegionList, order: np.ndarray):
    """Reorder a sorted-region-order byte stream back to file-region order."""
    if _is_identity(order):
        return stream
    starts = _starts_of(sorted_regions)
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size, dtype=order.dtype)
    return gather_runs(stream, starts[inverse], sorted_regions.lengths[inverse])


def _is_identity(order: np.ndarray) -> bool:
    return bool((order == np.arange(order.size, dtype=order.dtype)).all())
