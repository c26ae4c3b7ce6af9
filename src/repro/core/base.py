"""The access-method interface shared by multiple / sieving / list I/O.

An :class:`AccessMethod` performs one noncontiguous transfer between a
client memory buffer and an open PVFS file, described exactly as in the
paper's interface (Section 3.3): a list of memory regions and a list of
file regions whose flattened byte streams correspond 1:1.

Methods are simulation processes::

    method = ListIO()
    yield from method.read(f, memory, mem_regions, file_regions)

``memory`` may be ``None`` on timing-only clusters (``move_bytes=False``);
methods then skip real data movement but charge identical simulated time.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from ..errors import RegionError
from ..regions import RegionList, gather_runs, scatter_runs
from ..pvfs.client import PVFSFile

__all__ = ["AccessMethod", "validate_transfer"]


def validate_transfer(
    memory: Optional[np.ndarray],
    mem_regions: RegionList,
    file_regions: RegionList,
) -> None:
    """Check the paper's interface contract for one transfer."""
    if mem_regions.total_bytes != file_regions.total_bytes:
        raise RegionError(
            f"memory regions describe {mem_regions.total_bytes} B but file "
            f"regions describe {file_regions.total_bytes} B"
        )
    if memory is not None and mem_regions.count:
        end = mem_regions.extent[1]
        if end > memory.size:
            raise RegionError(
                f"memory regions extend to byte {end} but the buffer holds "
                f"only {memory.size}"
            )


class AccessMethod(ABC):
    """Base class: one noncontiguous read/write strategy."""

    #: Short name used in experiment tables ("multiple", "datasieve", ...).
    name: str = "base"

    @abstractmethod
    def read(
        self,
        f: PVFSFile,
        memory: Optional[np.ndarray],
        mem_regions: RegionList,
        file_regions: RegionList,
    ):
        """Simulation process: file regions -> memory regions."""

    @abstractmethod
    def write(
        self,
        f: PVFSFile,
        memory: Optional[np.ndarray],
        mem_regions: RegionList,
        file_regions: RegionList,
    ):
        """Simulation process: memory regions -> file regions."""

    # -- shared helpers --------------------------------------------------
    @staticmethod
    def _memcpy_time(f: PVFSFile, nbytes: int) -> float:
        """Client-side pack/unpack cost for ``nbytes`` of data movement."""
        return nbytes / f.client.costs.memcpy_rate

    @staticmethod
    def _gather_memory(memory: Optional[np.ndarray], mem_regions: RegionList):
        """Memory regions -> contiguous stream (None stays None)."""
        if memory is None:
            return None
        return gather_runs(memory, mem_regions.offsets, mem_regions.lengths)

    @staticmethod
    def _scatter_memory(
        memory: Optional[np.ndarray], mem_regions: RegionList, stream
    ) -> None:
        """Contiguous stream -> memory regions (no-op when timing-only)."""
        if memory is None or stream is None:
            return
        scatter_runs(memory, mem_regions.offsets, mem_regions.lengths, stream)

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"
