"""Region algebra: vectorized (offset, length) list manipulation.

Noncontiguous I/O requests — in the paper's ``pvfs_read_list`` interface and
everywhere inside the simulator — are described by parallel arrays of byte
offsets and byte lengths.  This module provides an immutable, numpy-backed
:class:`RegionList` and the vectorized operations every other subsystem
builds on:

* validation / normalization (sort, drop empties, coalesce adjacent),
* splitting at fixed boundaries (striping),
* clipping to an extent (data sieving windows),
* pairing two equal-volume lists into matched copy pieces (memory<->file
  data movement),
* moving real bytes run by run (:func:`gather_runs`, :func:`scatter_runs`,
  which take run starts from :func:`stream_positions`).

The region algebra is O(n log n) or better in the number of regions and
vectorized over the region arrays.  Operations whose input is already
sorted are linear merges rather than general set operations:
:func:`pair_pieces` merges the two lists' strictly increasing breakpoints
(no hash-based union), and :meth:`RegionList.coalesced`, once its input is
sorted, reads each run's end from the running maximum of the region ends.

Byte movement loops over runs in Python instead, one slice copy per run: a
run costs one interpreter step plus a memcpy, while a per-byte fancy index
(:func:`build_flat_indices`, kept as the tests' reference) holds eight
bytes of int64 per data byte and makes several full passes over them.
Only runs of a few bytes each are cheaper by index.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple

import numpy as np

from .errors import RegionError

__all__ = [
    "RegionList",
    "pair_pieces",
    "build_flat_indices",
    "gather_runs",
    "scatter_runs",
    "split_with_parents",
    "stream_positions",
]


def _as_int64(a) -> np.ndarray:
    arr = np.asarray(a, dtype=np.int64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise RegionError(f"region arrays must be 1-D, got shape {arr.shape}")
    return arr


class RegionList:
    """An immutable list of byte regions, stored as parallel int64 arrays.

    Regions may be unsorted and may overlap — some operations require (and
    check) sortedness or disjointness and say so in their docstrings.
    Zero-length regions are permitted on construction (the paper's interface
    does not forbid them) but are removed by :meth:`normalized`.
    """

    __slots__ = ("offsets", "lengths", "count", "_tb", "_ne")

    def __init__(self, offsets, lengths) -> None:
        off = _as_int64(offsets)
        ln = _as_int64(lengths)
        if off.shape != ln.shape:
            raise RegionError(
                f"offsets ({off.shape}) and lengths ({ln.shape}) must have equal shape"
            )
        if off.size and (off < 0).any():
            raise RegionError("region offsets must be non-negative")
        if ln.size and (ln < 0).any():
            raise RegionError("region lengths must be non-negative")
        off.setflags(write=False)
        ln.setflags(write=False)
        self.offsets = off
        self.lengths = ln
        #: Number of regions (zero-length ones included).
        self.count = off.size
        self._tb = None  # cached total_bytes (immutable => safe)
        self._ne = None  # cached "no zero-length regions" flag

    @classmethod
    def _trusted(
        cls, offsets: np.ndarray, lengths: np.ndarray, nonempty=None
    ) -> "RegionList":
        """Construct from already-validated 1-D int64 arrays.

        Internal constructor for derived lists (splits, clips, slices):
        every transformation below produces arrays that satisfy the public
        ``__init__`` invariants by construction, so re-running the dtype /
        shape / sign checks on each of the thousands of derived lists a
        simulated request creates is pure overhead.  ``nonempty`` preseeds
        the :meth:`drop_empty` cache when the producer knows no
        zero-length region can appear.
        """
        r = object.__new__(cls)
        offsets.setflags(write=False)
        lengths.setflags(write=False)
        r.offsets = offsets
        r.lengths = lengths
        r.count = offsets.size
        r._tb = None
        r._ne = nonempty
        return r

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "RegionList":
        return cls(np.empty(0, np.int64), np.empty(0, np.int64))

    @classmethod
    def single(cls, offset: int, length: int) -> "RegionList":
        # The "multiple I/O" method builds one of these per contiguous
        # call, so skip the generic list->array validation pipeline.
        if offset < 0:
            raise RegionError("region offsets must be non-negative")
        if length < 0:
            raise RegionError("region lengths must be non-negative")
        return cls._trusted(
            np.array([offset], np.int64), np.array([length], np.int64)
        )

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[int, int]]) -> "RegionList":
        pairs = list(pairs)
        if not pairs:
            return cls.empty()
        off, ln = zip(*pairs)
        return cls(off, ln)

    @classmethod
    def contiguous(cls, start: int, total: int, piece: int) -> "RegionList":
        """Adjacent pieces of size ``piece`` covering ``total`` bytes from
        ``start`` (last piece may be short).  Useful for building strided
        test patterns."""
        if total <= 0:
            return cls.empty()
        if piece <= 0:
            raise RegionError("piece size must be positive")
        n = -(-total // piece)
        off = start + piece * np.arange(n, dtype=np.int64)
        ln = np.full(n, piece, dtype=np.int64)
        ln[-1] = total - piece * (n - 1)
        return cls(off, ln)

    @classmethod
    def strided(cls, start: int, count: int, length: int, stride: int) -> "RegionList":
        """``count`` regions of ``length`` bytes, ``stride`` bytes apart
        (an MPI vector datatype flattened)."""
        if count < 0:
            raise RegionError("count must be non-negative")
        if count and length < 0:
            raise RegionError("length must be non-negative")
        off = np.asarray(start + stride * np.arange(count, dtype=np.int64), np.int64)
        # An arithmetic sequence is smallest at one of its ends.
        if count and min(off[0], off[-1]) < 0:
            raise RegionError("region offsets must be non-negative")
        ln = np.full(count, length, dtype=np.int64)
        return cls._trusted(off, ln, nonempty=bool(length > 0))

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        tb = self._tb
        if tb is None:
            tb = int(self.lengths.sum()) if self.lengths.size else 0
            self._tb = tb
        return tb

    @property
    def ends(self) -> np.ndarray:
        """Exclusive end offsets of every region."""
        return self.offsets + self.lengths

    @property
    def extent(self) -> Tuple[int, int]:
        """``(start, end)`` of the smallest contiguous window covering all
        non-empty regions; ``(0, 0)`` for an empty/all-empty list."""
        mask = self.lengths > 0
        if not mask.any():
            return (0, 0)
        return (int(self.offsets[mask].min()), int(self.ends[mask].max()))

    def is_sorted(self) -> bool:
        if self.count <= 1:
            return True
        return bool((self.offsets[1:] >= self.offsets[:-1]).all())

    def is_disjoint(self) -> bool:
        """True when no two non-empty regions overlap (adjacency is fine)."""
        r = self.drop_empty().sorted()
        return r.count <= 1 or bool((r.offsets[1:] >= r.ends[:-1]).all())

    # ------------------------------------------------------------------
    # Transformations (all return new RegionLists)
    # ------------------------------------------------------------------
    def drop_empty(self) -> "RegionList":
        if self._ne:
            return self
        mask = self.lengths > 0
        if mask.all():
            self._ne = True
            return self
        return RegionList._trusted(
            self.offsets[mask], self.lengths[mask], nonempty=True
        )

    def sorted(self) -> "RegionList":
        if self.is_sorted():
            return self
        order = np.argsort(self.offsets, kind="stable")
        return RegionList._trusted(
            self.offsets[order], self.lengths[order], nonempty=self._ne
        )

    def shift(self, delta: int) -> "RegionList":
        """Translate all offsets by ``delta`` (must not go negative)."""
        if self.count == 0:
            return self
        off = self.offsets + int(delta)
        if (off < 0).any():
            raise RegionError("shift would produce a negative offset")
        return RegionList._trusted(off, self.lengths, nonempty=self._ne)

    def coalesced(self) -> "RegionList":
        """Merge adjacent/overlapping regions.  Sorts and drops empties
        first; overlapping regions merge into their union."""
        return self._merged(0)

    def _merged(self, gap: int) -> "RegionList":
        """Sorted runs covering the non-empty regions, where a run takes in
        every region that starts at most ``gap >= 0`` bytes past the end of
        the regions before it (``gap=0``: :meth:`coalesced`)."""
        r = self.drop_empty().sorted()
        if r.count <= 1:
            return r
        ends = r.ends
        np.maximum.accumulate(ends, out=ends)
        # A new run starts where the offset passes the running max end by
        # more than the gap, and the run before it ends at that running max.
        brk = r.offsets[1:] - ends[:-1] > gap
        if brk.all():
            return r  # every region is a run of its own
        starts = np.concatenate((r.offsets[:1], r.offsets[1:][brk]))
        run_ends = np.concatenate((ends[:-1][brk], ends[-1:]))
        return RegionList._trusted(starts, run_ends - starts, nonempty=True)

    def concat(self, other: "RegionList") -> "RegionList":
        return RegionList(
            np.concatenate([self.offsets, other.offsets]),
            np.concatenate([self.lengths, other.lengths]),
        )

    def take(self, index) -> "RegionList":
        """Fancy-select a subset of regions."""
        return RegionList(self.offsets[index], self.lengths[index])

    def slice_regions(self, start: int, stop: int) -> "RegionList":
        """Regions ``start:stop`` (by position, not byte offset)."""
        return RegionList._trusted(
            self.offsets[start:stop], self.lengths[start:stop], nonempty=self._ne
        )

    def split_at_boundaries(self, boundary: int) -> "RegionList":
        """Split every region at multiples of ``boundary`` bytes.

        This is the striping primitive: after splitting, no region crosses a
        ``boundary`` multiple, so each piece lives on exactly one stripe
        unit.  Preserves byte order; see :func:`split_with_parents`.
        """
        return split_with_parents(self, boundary)[0]

    def clip(self, window_start: int, window_end: int) -> "RegionList":
        """Intersect every region with ``[window_start, window_end)``,
        dropping regions that fall entirely outside.  Preserves order."""
        if window_end < window_start:
            raise RegionError("clip window end precedes start")
        r = self.drop_empty()
        if r.count == 0:
            return r
        start = np.maximum(r.offsets, window_start)
        end = np.minimum(r.ends, window_end)
        mask = end > start
        return RegionList._trusted(start[mask], (end - start)[mask], nonempty=True)

    def byte_slice(self, skip: int, take: int) -> "RegionList":
        """The sub-list covering bytes ``[skip, skip + take)`` of this
        list's flattened byte stream (regions cut as needed).

        This is the stream-addressing primitive behind MPI-IO file views:
        a view position selects bytes *of the typemap stream*, not file
        offsets.  Fully vectorized.
        """
        if skip < 0 or take < 0:
            raise RegionError("skip and take must be non-negative")
        r = self.drop_empty()
        total = r.total_bytes
        if skip + take > total:
            raise RegionError(
                f"byte_slice [{skip}, {skip + take}) exceeds stream of {total} B"
            )
        if take == 0 or r.count == 0:
            return RegionList.empty()
        cum = np.cumsum(r.lengths)
        first = int(np.searchsorted(cum, skip, side="right"))
        last = int(np.searchsorted(cum, skip + take, side="left"))
        off = r.offsets[first : last + 1].copy()
        ln = r.lengths[first : last + 1].copy()
        start_of_first = int(cum[first - 1]) if first else 0
        head_trim = skip - start_of_first
        off[0] += head_trim
        ln[0] -= head_trim
        consumed = int(ln.sum())
        ln[-1] -= consumed - take
        return RegionList(off, ln)

    def chunks_of(self, max_regions: int) -> Iterable["RegionList"]:
        """Successive sub-lists of at most ``max_regions`` regions.

        This is exactly the paper's list I/O request splitting: "I/O
        requests that contain more file regions than the trailing data limit
        are broken up into several list I/O requests" (Section 3.3).
        """
        if max_regions <= 0:
            raise RegionError("max_regions must be positive")
        count = self.count
        if count <= max_regions:
            # Whole list fits in one request — the overwhelmingly common
            # case on the service path; avoid re-slicing the arrays.
            return (self,) if count else ()
        return (
            self.slice_regions(start, start + max_regions)
            for start in range(0, count, max_regions)
        )

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        for o, l in zip(self.offsets.tolist(), self.lengths.tolist()):
            yield (o, l)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RegionList):
            return NotImplemented
        return bool(
            np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.lengths, other.lengths)
        )

    def __hash__(self):  # immutable value type
        return hash((self.offsets.tobytes(), self.lengths.tobytes()))

    def __repr__(self) -> str:
        if self.count <= 6:
            body = ", ".join(f"({o}:+{l})" for o, l in self)
        else:
            head = ", ".join(f"({o}:+{l})" for o, l in self.slice_regions(0, 3))
            tail = ", ".join(f"({o}:+{l})" for o, l in self.slice_regions(-2, self.count))
            body = f"{head}, ..., {tail}"
        return f"RegionList<{self.count} regions, {self.total_bytes} B>[{body}]"


def pair_pieces(a: RegionList, b: RegionList) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair two equal-volume region lists into matched copy pieces.

    Given a memory region list ``a`` and a file region list ``b`` describing
    the *same byte stream* (as in the paper's list interface, where the k-th
    byte of the flattened memory regions corresponds to the k-th byte of the
    flattened file regions), return arrays ``(a_offsets, b_offsets,
    lengths)`` of contiguous pieces such that copying piece-by-piece realizes
    the full noncontiguous transfer.

    When one side is a single run (a contiguous buffer, as in every
    artificial-benchmark pattern), the pieces are the other side's regions
    and the run's offsets advance by the exclusive prefix sum of their
    lengths.  Otherwise :func:`_merge_pieces` merges the two lists'
    breakpoints.
    """
    a = a.drop_empty()
    b = b.drop_empty()
    if a.total_bytes != b.total_bytes:
        raise RegionError(
            f"region lists describe different volumes: {a.total_bytes} vs {b.total_bytes}"
        )
    if a.total_bytes == 0:
        z = np.empty(0, np.int64)
        return z, z.copy(), z.copy()
    if a.count == 1 or b.count == 1:
        run, other = (a, b) if a.count == 1 else (b, a)
        lengths = other.lengths
        run_off = run.offsets[0] + (np.cumsum(lengths) - lengths)
        if run is a:
            return run_off, other.offsets, lengths
        return other.offsets, run_off, lengths
    return _merge_pieces(a, b)


def _merge_pieces(a: RegionList, b: RegionList) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`pair_pieces` for two non-empty, equal-volume lists without
    zero-length regions, by linear merge: piece boundaries are the union of
    both lists' cumulative length breakpoints, which strictly increase to
    the same total, so the shorter breakpoint list is merged into the
    longer one."""
    cum_a = np.cumsum(a.lengths)
    cum_b = np.cumsum(b.lengths)
    swap = cum_a.size > cum_b.size
    small, large = (cum_b, cum_a) if swap else (cum_a, cum_b)
    # Every small breakpoint is <= the shared total, so pos stays in range.
    pos = np.searchsorted(large, small)
    new = large[pos] != small
    piece_end = np.insert(large, pos[new], small[new])  # sorted piece end positions
    piece_start = np.concatenate(([0], piece_end[:-1]))
    piece_len = piece_end - piece_start
    # Source region for each piece: how many of that list's breakpoints
    # precede it in the merge.  small[j] lands at pos[j] plus the number of
    # new breakpoints inserted before it.
    in_small = np.zeros(piece_end.size, dtype=bool)
    in_small[pos + np.cumsum(new) - new] = True
    in_large = np.ones(piece_end.size, dtype=bool)
    in_large[in_small] = ~new
    i_small = np.cumsum(in_small) - in_small
    i_large = np.cumsum(in_large) - in_large
    ia, ib = (i_large, i_small) if swap else (i_small, i_large)
    base_a = np.concatenate(([0], cum_a[:-1]))
    base_b = np.concatenate(([0], cum_b[:-1]))
    a_off = a.offsets[ia] + (piece_start - base_a[ia])
    b_off = b.offsets[ib] + (piece_start - base_b[ib])
    return a_off, b_off, piece_len


def split_with_parents(
    regions: RegionList, boundary: int
) -> Tuple[RegionList, np.ndarray, np.ndarray]:
    """Like :meth:`RegionList.split_at_boundaries`, additionally returning
    each piece's originating region index and its ``boundary`` unit
    (``offset // boundary``).

    Data sieving's planner needs both: parents to map each piece back to
    its region, and units to group the pieces by buffer window.  Only the
    regions that cross a boundary are cut.
    """
    if boundary <= 0:
        raise RegionError("boundary must be positive")
    r = regions.drop_empty()
    if r.count == 0:
        return r, np.empty(0, np.int64), np.empty(0, np.int64)
    first_unit = r.offsets // boundary
    per = r.ends
    per -= 1
    per //= boundary
    per -= first_unit  # boundaries crossed
    cross = np.flatnonzero(per != 0)
    if cross.size == 0:
        return r, np.arange(r.count, dtype=np.int64), first_unit
    per += 1  # pieces
    offsets = np.repeat(r.offsets, per)
    lengths = np.repeat(r.lengths, per)
    parent = np.repeat(np.arange(r.count, dtype=np.int64), per)
    unit = np.repeat(first_unit, per)
    # Piece j of a crossing region lies in unit first_unit + j; every
    # other region is its own one piece.
    k = per[cross]
    head = np.cumsum(k) - k
    j = np.arange(int(head[-1] + k[-1])) - np.repeat(head, k)
    # Where each crossing region's pieces land: after its own index, shifted
    # by the extra pieces of the crossing regions before it.
    at = np.repeat(cross + (head - np.arange(cross.size)), k) + j
    unit[at] += j
    start = np.maximum(offsets[at], unit[at] * boundary)
    lengths[at] = np.minimum(offsets[at] + lengths[at], (unit[at] + 1) * boundary) - start
    offsets[at] = start
    return RegionList._trusted(offsets, lengths, nonempty=True), parent, unit


def _run_arrays(offsets, lengths) -> Tuple[np.ndarray, np.ndarray]:
    offsets = _as_int64(offsets)
    lengths = _as_int64(lengths)
    if offsets.shape != lengths.shape:
        raise RegionError("offsets and lengths must have equal shape")
    return offsets, lengths


def stream_positions(regions: RegionList, pieces: RegionList) -> np.ndarray:
    """Where each of ``pieces`` starts in the byte stream of ``regions``.

    ``regions`` must be sorted and disjoint, and every piece must lie inside
    one of them: the pieces of a ``regions.clip``, or the regions that a
    coalesced or clustered list covers.  The result is the ``offsets``
    argument that moves the pieces' bytes out of (:func:`gather_runs`) or
    into (:func:`scatter_runs`) that stream.
    """
    if pieces.count == 0:
        return np.empty(0, np.int64)
    starts = np.concatenate(([0], np.cumsum(regions.lengths)[:-1]))
    idx = np.searchsorted(regions.ends, pieces.offsets, side="right")
    return starts[idx] + (pieces.offsets - regions.offsets[idx])


def gather_runs(src: np.ndarray, offsets, lengths) -> np.ndarray:
    """A new array holding each run ``src[offsets[i] : offsets[i] +
    lengths[i]]``, in order.  Lengths must be non-negative.

    The result never shares memory with ``src``, even for a single run, so
    the caller may hand it on while ``src`` is reused (a replicated write's
    background copies still read their payload after the write returns).
    """
    offsets, lengths = _run_arrays(offsets, lengths)
    out = np.empty(int(lengths.sum()), dtype=src.dtype)
    pos = 0
    for off, ln in zip(offsets.tolist(), lengths.tolist()):
        out[pos : pos + ln] = src[off : off + ln]
        pos += ln
    return out


def scatter_runs(dst: np.ndarray, offsets, lengths, src: np.ndarray) -> None:
    """Write the stream ``src`` into ``dst`` run by run: its first
    ``lengths[0]`` elements to ``dst[offsets[0]:]``, the next ``lengths[1]``
    to ``dst[offsets[1]:]``, and so on.  Lengths must be non-negative."""
    offsets, lengths = _run_arrays(offsets, lengths)
    pos = 0
    for off, ln in zip(offsets.tolist(), lengths.tolist()):
        dst[off : off + ln] = src[pos : pos + ln]
        pos += ln


def build_flat_indices(offsets: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat element indices covering every region, in order.

    ``build_flat_indices([5, 20], [3, 2]) == [5, 6, 7, 20, 21]``.  The
    per-byte reference for :func:`gather_runs` and :func:`scatter_runs`:
    ``src[idx]`` and ``dst[idx] = stream`` are what they compute.
    """
    offsets, lengths = _run_arrays(offsets, lengths)
    mask = lengths > 0
    offsets, lengths = offsets[mask], lengths[mask]
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, np.int64)
    reg = np.repeat(np.arange(offsets.size, dtype=np.int64), lengths)
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    within = np.arange(total, dtype=np.int64) - starts[reg]
    return offsets[reg] + within
