"""MPI-IO file views: mapping view-stream positions to file regions.

An MPI-IO view is ``(disp, filetype)``: the visible bytes of the file are
the data bytes of successive ``filetype`` instances tiled from byte
``disp``, and offsets count bytes of that visible stream (the etype is
always a byte).  ``FileView.regions_for`` turns "``nbytes`` starting at
stream byte ``off``" into the file :class:`~repro.regions.RegionList` the
PVFS client consumes — ROMIO's flattening + indexing, vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datatypes import BYTE, Datatype, DatatypeError
from ..regions import RegionList

__all__ = ["FileView"]


@dataclass(frozen=True)
class FileView:
    """One rank's window onto a file."""

    disp: int = 0
    filetype: Datatype = BYTE

    def __post_init__(self) -> None:
        if self.disp < 0:
            raise DatatypeError("displacement must be non-negative")
        if self.filetype.size == 0:
            raise DatatypeError("filetype must contain data")
        self.filetype.check_tiling()

    def regions_for(self, offset: int, nbytes: int) -> RegionList:
        """File regions of ``nbytes`` of view stream starting at stream
        byte ``offset``."""
        if offset < 0 or nbytes < 0:
            raise DatatypeError("offset and nbytes must be non-negative")
        if nbytes == 0:
            return RegionList.empty()
        fsize = self.filetype.size
        first_instance = offset // fsize
        last_instance = (offset + nbytes - 1) // fsize
        count = last_instance - first_instance + 1
        tiled = self.filetype.flatten(
            count, displacement=self.disp + first_instance * self.filetype.extent
        )
        skip = offset - first_instance * fsize
        return tiled.byte_slice(skip, nbytes)

    def __repr__(self) -> str:
        return (
            f"<FileView disp={self.disp} "
            f"filetype size={self.filetype.size}/extent={self.filetype.extent}>"
        )
