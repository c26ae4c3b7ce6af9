"""Datatype (vector) I/O — the paper's second Section 5 extension.

    "Support for I/O requests that use an approach similar to MPI
    datatypes, for example, would describe these patterns with vector
    datatypes.  This would eliminate the linear relationship between the
    number of contiguous regions and the number of I/O requests."

:class:`VectorIO` expresses a *regular* file access (constant region length
and constant stride — an MPI ``Create_vector``) as a single compact
descriptor, so the whole transfer is ONE logical request no matter how many
regions it touches.  The I/O servers still pay their per-region service
cost (they must build the iovec either way); what disappears is the
per-request overhead and the trailing-data volume — exactly the drawback
of list I/O that the paper calls out.

Irregular patterns are rejected with :class:`~repro.errors.RegionError`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import RegionError
from ..regions import RegionList
from ..pvfs.client import PVFSFile
from .base import AccessMethod, validate_transfer

__all__ = ["VectorIO", "as_vector"]

#: A vector descriptor is (file offset, count, blocklen, stride): two
#: 16-byte trailing-data slots.
VECTOR_DESCRIPTOR_SLOTS = 2


def as_vector(regions: RegionList) -> Optional[Tuple[int, int, int, int]]:
    """Recognize ``regions`` as (start, count, blocklen, stride), or None.

    A single region is the degenerate vector (count=1).  Requires uniform
    lengths and uniform positive stride.
    """
    r = regions.drop_empty()
    if r.count == 0:
        return None
    lengths = np.unique(r.lengths)
    if lengths.size != 1:
        return None
    blocklen = int(lengths[0])
    if r.count == 1:
        return (int(r.offsets[0]), 1, blocklen, blocklen)
    strides = np.unique(np.diff(r.offsets))
    if strides.size != 1 or strides[0] <= 0:
        return None
    return (int(r.offsets[0]), r.count, blocklen, int(strides[0]))


def _require_vector(file_regions: RegionList) -> None:
    if as_vector(file_regions) is None:
        raise RegionError(
            "VectorIO requires a regular (constant length, constant stride) "
            "file access pattern"
        )


class VectorIO(AccessMethod):
    """One-request noncontiguous access for strided patterns."""

    name = "vector"

    def read(self, f: PVFSFile, memory, mem_regions, file_regions):
        validate_transfer(memory, mem_regions, file_regions)
        _require_vector(file_regions)
        stream = yield from f.read_list(file_regions, descriptor_slots=VECTOR_DESCRIPTOR_SLOTS)
        unpack = self._memcpy_time(f, file_regions.total_bytes)
        if unpack > 0:
            yield f.client.sim.timeout(unpack)
        self._scatter_memory(memory, mem_regions, stream)

    def write(self, f: PVFSFile, memory, mem_regions, file_regions):
        validate_transfer(memory, mem_regions, file_regions)
        _require_vector(file_regions)
        stream = self._gather_memory(memory, mem_regions)
        pack = self._memcpy_time(f, file_regions.total_bytes)
        if pack > 0:
            yield f.client.sim.timeout(pack)
        yield from f.write_list(file_regions, stream, descriptor_slots=VECTOR_DESCRIPTOR_SLOTS)
