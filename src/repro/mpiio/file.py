"""MPI-IO on top of simulated PVFS: independent and two-phase collective I/O.

This is the ROMIO layer the paper positions itself under (references [11]
and [12]): applications describe noncontiguous file access with views
built from MPI datatypes, and the library turns them into file-system
requests.

* **Independent** operations (:meth:`MPIFile.read_at` /
  :meth:`MPIFile.write_at`) flatten the view and go straight through PVFS
  list I/O — what ROMIO gained when PVFS grew the paper's interface.
* **Collective** operations (:meth:`MPIFile.read_at_all` /
  :meth:`MPIFile.write_at_all`) implement *two-phase I/O*: ranks exchange
  access metadata, the aggregate byte range is partitioned into per-rank
  file domains, data is redistributed between compute nodes over the
  simulated network, and each aggregator performs one large, (nearly)
  contiguous file access for its domain.  On checkpoint-style patterns
  (e.g. FLASH) this collapses thousands of tiny interleaved requests per
  rank into one streaming request per aggregator.

The aggregator-selection, file-domain, and exchange machinery lives in
:mod:`repro.mpiio.twophase`, which the first-class
:class:`repro.core.TwoPhaseIO` access method shares.

All operations are simulation processes; collectives must be entered by
every rank of the communicator in the same order (MPI semantics).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..datatypes import BYTE, Datatype
from ..mpi import Communicator
from ..pvfs.client import PVFSFile
from .twophase import MPIIOError, collective_read, collective_write, select_aggregators
from .view import FileView

__all__ = ["MPIIOError", "MPIFile", "open_one"]


class MPIFile:
    """One rank's handle on a shared file, with a view and collectives."""

    def __init__(
        self,
        pvfs_file: PVFSFile,
        comm: Communicator,
        rank: int,
        cb_nodes: Optional[int] = None,
        cb_buffer: Optional[int] = None,
    ) -> None:
        self.f = pvfs_file
        self.comm = comm
        self.rank = rank
        self.view = FileView()
        #: Number of collective-buffering aggregators (ROMIO's ``cb_nodes``
        #: hint).  Default: every rank aggregates.  Must be identical on
        #: all ranks of the communicator.
        self.cb_nodes = len(select_aggregators(comm.size, cb_nodes))
        #: Collective buffer size in bytes (ROMIO's ``cb_buffer_size``
        #: hint): each aggregator covers its domain in windows of at most
        #: this many bytes per exchange round.  ``None`` = unbounded (one
        #: round).  Must be identical on all ranks.
        if cb_buffer is not None and cb_buffer < 1:
            raise MPIIOError("cb_buffer must be a positive byte count")
        self.cb_buffer = cb_buffer

    # ------------------------------------------------------------------
    def set_view(self, disp: int = 0, filetype: Datatype = BYTE) -> None:
        """Install a view.  Purely local (ROMIO flattens lazily), so this
        is a plain call, not a simulation process."""
        self.view = FileView(disp=disp, filetype=filetype)

    # ------------------------------------------------------------------
    # Independent operations
    # ------------------------------------------------------------------
    def read_at(self, offset: int, nbytes: int):
        """Independent read (process); returns the packed view stream."""
        data = yield from self.f.read_list(self.view.regions_for(offset, nbytes))
        return data

    def write_at(self, offset: int, data: Optional[np.ndarray], nbytes: Optional[int] = None):
        """Independent write (process) of the packed view stream ``data``
        (``None`` on timing-only clusters, which then need ``nbytes``)."""
        n = int(data.size if data is not None else nbytes)
        yield from self.f.write_list(self.view.regions_for(offset, n), data)

    # ------------------------------------------------------------------
    # Two-phase collective operations (engine: repro.mpiio.twophase)
    # ------------------------------------------------------------------
    def write_at_all(self, offset: int, data: Optional[np.ndarray], nbytes: Optional[int] = None):
        """Collective write via two-phase I/O (process).

        Every rank of the communicator must call this; ranks may write
        disjoint parts (a rank may also contribute zero bytes by passing
        an empty transfer).
        """
        n = int(data.size if data is not None else (nbytes or 0))
        my_regions = self.view.regions_for(offset, n)
        yield from collective_write(
            self.f,
            self.comm,
            self.rank,
            my_regions,
            data,
            cb_nodes=self.cb_nodes,
            cb_buffer=self.cb_buffer,
        )

    def read_at_all(self, offset: int, nbytes: int):
        """Collective read via two-phase I/O (process); returns the packed
        view stream for this rank."""
        my_regions = self.view.regions_for(offset, nbytes)
        out = yield from collective_read(
            self.f,
            self.comm,
            self.rank,
            my_regions,
            cb_nodes=self.cb_nodes,
            cb_buffer=self.cb_buffer,
        )
        return out

    # ------------------------------------------------------------------
    def close(self):
        yield from self.f.close()

    def __repr__(self) -> str:
        return f"<MPIFile rank={self.rank} {self.f.path} view={self.view}>"


def open_one(
    comm: Communicator,
    client,
    path: str,
    *,
    create: bool = True,
    cb_nodes: Optional[int] = None,
    cb_buffer: Optional[int] = None,
):
    """Open ``path`` on one rank as an :class:`MPIFile` over ``comm``
    (process).  ``cb_nodes`` sets the number of collective-buffering
    aggregators and ``cb_buffer`` the collective buffer size in bytes (both
    must match on all ranks)."""
    f = yield from client.open(path, create=create)
    return MPIFile(f, comm, client.index, cb_nodes=cb_nodes, cb_buffer=cb_buffer)
