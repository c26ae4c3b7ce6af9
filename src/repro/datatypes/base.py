"""MPI-style derived datatypes with vectorized flattening.

The paper closes by pointing at MPI datatypes as the way to describe
noncontiguous access compactly (Section 5), and its interface reference
[12] is ROMIO's flattening machinery.  This package implements the core of
that machinery: a datatype is a *typemap* — a recipe of (offset, length)
byte regions within its extent — and flattening a ``count`` of them at a
``displacement`` yields the :class:`~repro.regions.RegionList` the rest of
pvfs-sim consumes.

The constructors are the ones MPI-IO file views here are built from:

* :data:`BYTE`, the predefined byte (:class:`Predefined` names others)
* :class:`Contiguous` — ``MPI_Type_contiguous``
* :class:`Resized` — ``MPI_Type_create_resized``

``Resized(Contiguous(BYTE, chunk), chunk * ranks)`` is figure 18's
interleaved checkpoint view.  Types are immutable and compose;
flattening is vectorized (numpy broadcasting over the component typemap)
and coalesces adjacent regions, matching ROMIO's flattened representation.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import ReproError
from ..regions import RegionList

__all__ = ["DatatypeError", "Datatype", "Predefined", "BYTE", "Contiguous", "Resized"]


class DatatypeError(ReproError):
    """Invalid datatype construction or use."""


class Datatype:
    """Base class: a typemap of byte regions within an extent.

    Subclasses must provide :attr:`size` (bytes of actual data),
    :attr:`extent` (span the type occupies, for repetition), and
    :meth:`_typemap` returning the (offsets, lengths) arrays of one
    instance relative to its start.
    """

    __slots__ = ("_cached_map",)

    #: bytes of real data per instance
    size: int
    #: bytes from one instance's start to the next (repetition stride)
    extent: int

    def _typemap(self) -> Tuple[np.ndarray, np.ndarray]:  # pragma: no cover
        raise NotImplementedError

    # ------------------------------------------------------------------
    def typemap(self) -> Tuple[np.ndarray, np.ndarray]:
        """Coalesced (offsets, lengths) of one instance (cached)."""
        cached = getattr(self, "_cached_map", None)
        if cached is None:
            off, ln = self._typemap()
            r = RegionList(off, ln)
            if not r.is_disjoint():
                raise DatatypeError("typemap regions overlap")
            c = r.coalesced()
            cached = (c.offsets, c.lengths)
            self._cached_map = cached
        return cached

    @property
    def region_count(self) -> int:
        """Contiguous pieces per instance (after coalescing)."""
        return int(self.typemap()[0].size)

    def check_tiling(self) -> None:
        """Refuse to tile a type whose instances would overlap or interleave:
        one instance's data, first byte to last, spans more than ``extent``."""
        off, ln = self.typemap()
        span = int(off[-1] + ln[-1] - off[0]) if off.size else 0
        if span > self.extent:
            raise DatatypeError(
                f"{self!r}: an instance's data spans {span} B, more than its extent"
            )

    def flatten(self, count: int = 1, displacement: int = 0) -> RegionList:
        """Regions of ``count`` consecutive instances starting at byte
        ``displacement`` — the input to ``pvfs_read_list`` et al."""
        if count < 0:
            raise DatatypeError("count must be non-negative")
        off, ln = self.typemap()
        if count == 0 or off.size == 0:
            return RegionList.empty()
        if count > 1:
            self.check_tiling()
        reps = displacement + self.extent * np.arange(count, dtype=np.int64)
        all_off = (reps[:, None] + off[None, :]).ravel()
        all_len = np.broadcast_to(ln, (count, ln.size)).ravel()
        return RegionList(all_off, all_len).coalesced()

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} size={self.size} extent={self.extent} "
            f"regions={self.region_count}>"
        )


class Predefined(Datatype):
    """A named fixed-width base type."""

    __slots__ = ("name", "size", "extent")

    def __init__(self, name: str, nbytes: int) -> None:
        if nbytes <= 0:
            raise DatatypeError("predefined type must have positive size")
        self.name = name
        self.size = nbytes
        self.extent = nbytes

    def _typemap(self):
        return (np.zeros(1, np.int64), np.array([self.size], np.int64))

    def __repr__(self) -> str:
        return f"<{self.name}>"


BYTE = Predefined("BYTE", 1)


class Contiguous(Datatype):
    """``count`` back-to-back instances of ``base``."""

    __slots__ = ("base", "count", "size", "extent")

    def __init__(self, base: Datatype, count: int) -> None:
        if count < 0:
            raise DatatypeError("count must be non-negative")
        self.base = base
        self.count = count
        self.size = base.size * count
        self.extent = base.extent * count

    def _typemap(self):
        r = self.base.flatten(self.count)
        return (r.offsets, r.lengths)


class Resized(Datatype):
    """Override a type's extent (``MPI_Type_create_resized``)."""

    __slots__ = ("base", "size", "extent")

    def __init__(self, base: Datatype, extent: int) -> None:
        if extent < 0:
            raise DatatypeError("extent must be non-negative")
        self.base = base
        self.size = base.size
        self.extent = extent

    def _typemap(self):
        off, ln = self.base.typemap()
        return off.copy(), ln.copy()
