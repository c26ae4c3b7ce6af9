"""Request-plan compilation: what each method puts on the wire.

The analytic model and the live simulator must agree on *what* a method
does (how many logical requests, which file bytes move, what trailing data
each message carries) and differ only in *how time is charged* (closed-form
bounds vs discrete events).  A :class:`RankPlan` captures the "what" for
one rank: the file regions accessed, each region's logical request id, and
the bookkeeping needed for wire sizing.

Compilation mirrors the access methods exactly:

* ``multiple`` — one request per memory/file piece pair,
* ``list`` — requests of up to ``list_io_max_regions`` regions,
* ``datasieve`` — one contiguous request per buffer window (plus a
  read-modify-write pre-read phase and external serialization for writes),
* ``hybrid`` — list requests over gap-clustered extents (RMW when extents
  contain gaps),
* ``vector`` — a single descriptor-described request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..config import ClusterConfig
from ..core.datasieve import sieve_spans
from ..core.hybrid import cluster_extents
from ..errors import ModelError
from ..regions import RegionList, pair_pieces

__all__ = ["RankPlan", "compile_rank_plan"]


@dataclass
class RankPlan:
    """One rank's compiled transfer for one method."""

    method: str
    kind: str  # "read" | "write"
    #: File regions accessed on the wire, in request order (includes sieving
    #: waste — gaps inside fetched windows); none is zero-length (checked
    #: on construction).
    regions: RegionList
    #: Logical request id of every region (non-decreasing, 0-based; checked
    #: on construction, and the model's message grouping relies on it).
    chunk_of_region: np.ndarray
    #: Application-useful bytes of the transfer.
    useful_bytes: int
    #: Trailing-data sizing: "per_region" (one 16-byte slot per described
    #: region) or "descriptor" (2 slots regardless of count).
    wire_mode: str = "per_region"
    #: Client-side pack/unpack volume (bytes through memcpy).
    pack_bytes: int = 0
    #: Read phase executed before a read-modify-write write phase.
    pre_read: Optional["RankPlan"] = None
    #: Whether concurrent ranks must serialize this plan (sieving writes).
    serialized: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("read", "write"):
            raise ModelError(f"bad kind {self.kind!r}")
        if self.wire_mode not in ("per_region", "descriptor"):
            raise ModelError(f"bad wire_mode {self.wire_mode!r}")
        chunks = self.chunk_of_region
        if len(chunks) != self.regions.count:
            raise ModelError("chunk_of_region must parallel regions")
        if chunks.size and (chunks[0] < 0 or (chunks[1:] < chunks[:-1]).any()):
            raise ModelError("chunk_of_region must be non-negative and non-decreasing")
        if self.regions.drop_empty() is not self.regions:
            raise ModelError("a plan's regions must not be zero-length")

    @property
    def n_requests(self) -> int:
        if self.chunk_of_region.size == 0:
            return 0
        return int(self.chunk_of_region[-1]) + 1

    @property
    def moved_bytes(self) -> int:
        """Bytes of file data crossing the wire (waste included)."""
        return self.regions.total_bytes

    @property
    def wasted_bytes(self) -> int:
        return self.moved_bytes - self.useful_bytes

    def phases(self):
        """Execution phases in order (RMW pre-read first when present)."""
        return ([self.pre_read] if self.pre_read is not None else []) + [self]


def _plan_multiple(kind, mem_regions, file_regions) -> RankPlan:
    _, file_off, lengths = pair_pieces(mem_regions, file_regions)
    regions = RegionList(file_off, lengths)
    return RankPlan(
        method="multiple",
        kind=kind,
        regions=regions,
        chunk_of_region=np.arange(regions.count, dtype=np.int64),
        useful_bytes=regions.total_bytes,
        pack_bytes=0,
    )


def _plan_list(kind, mem_regions, file_regions, cap, split_memory) -> RankPlan:
    if split_memory:
        _, file_off, lengths = pair_pieces(mem_regions, file_regions)
        regions = RegionList(file_off, lengths)
    else:
        regions = file_regions.drop_empty()
    return RankPlan(
        method="list",
        kind=kind,
        regions=regions,
        chunk_of_region=np.arange(regions.count, dtype=np.int64) // cap,
        useful_bytes=regions.total_bytes,
        pack_bytes=regions.total_bytes,
    )


def _plan_vector(kind, file_regions) -> RankPlan:
    regions = file_regions.drop_empty()
    return RankPlan(
        method="vector",
        kind=kind,
        regions=regions,
        chunk_of_region=np.zeros(regions.count, dtype=np.int64),
        useful_bytes=regions.total_bytes,
        wire_mode="descriptor",
        pack_bytes=regions.total_bytes,
    )


def _plan_sieve(kind, file_regions, buffer_size) -> RankPlan:
    spans, useful_per_span = sieve_spans(file_regions, buffer_size)
    useful = int(useful_per_span.sum())
    chunks = np.arange(spans.count, dtype=np.int64)
    if kind == "read":
        return RankPlan(
            method="datasieve",
            kind="read",
            regions=spans,
            chunk_of_region=chunks,
            useful_bytes=useful,
            pack_bytes=useful,
        )
    # Write: read-modify-write of every window that has holes, then write
    # the full spans back; all of it serialized across ranks.
    holes = spans.lengths > useful_per_span
    pre_spans = spans.take(np.flatnonzero(holes))
    pre = None
    if pre_spans.count:
        pre = RankPlan(
            method="datasieve",
            kind="read",
            regions=pre_spans,
            chunk_of_region=np.arange(pre_spans.count, dtype=np.int64),
            useful_bytes=int(useful_per_span[holes].sum()),
            pack_bytes=0,
        )
    return RankPlan(
        method="datasieve",
        kind="write",
        regions=spans,
        chunk_of_region=chunks,
        useful_bytes=useful,
        pack_bytes=useful,
        pre_read=pre,
        serialized=True,
    )


def _plan_hybrid(kind, file_regions, gap_threshold, cap) -> RankPlan:
    extents = cluster_extents(file_regions, gap_threshold)
    useful = file_regions.drop_empty().total_bytes
    chunks = np.arange(extents.count, dtype=np.int64) // cap
    if kind == "read":
        return RankPlan(
            method="hybrid",
            kind="read",
            regions=extents,
            chunk_of_region=chunks,
            useful_bytes=useful,
            pack_bytes=useful,
        )
    pre = None
    serialized = False
    if extents.total_bytes > useful:  # gaps inside extents -> RMW
        pre = RankPlan(
            method="hybrid",
            kind="read",
            regions=extents,
            chunk_of_region=chunks.copy(),
            useful_bytes=useful,
            pack_bytes=0,
        )
        serialized = True
    return RankPlan(
        method="hybrid",
        kind="write",
        regions=extents,
        chunk_of_region=chunks,
        useful_bytes=useful,
        pack_bytes=useful,
        pre_read=pre,
        serialized=serialized,
    )


def compile_rank_plan(
    method: str,
    kind: str,
    mem_regions: RegionList,
    file_regions: RegionList,
    config: ClusterConfig,
    *,
    sieve_buffer: Optional[int] = None,
    gap_threshold: int = 4096,
    split_memory_regions: bool = True,
) -> RankPlan:
    """Compile one rank's transfer into a :class:`RankPlan`."""
    if kind not in ("read", "write"):
        raise ModelError(f"bad kind {kind!r}")
    if method == "multiple":
        return _plan_multiple(kind, mem_regions, file_regions)
    if method == "list":
        return _plan_list(
            kind,
            mem_regions,
            file_regions,
            config.list_io_max_regions,
            split_memory_regions,
        )
    if method == "vector":
        return _plan_vector(kind, file_regions)
    if method == "datasieve":
        return _plan_sieve(kind, file_regions, sieve_buffer or config.sieve_buffer_size)
    if method == "hybrid":
        return _plan_hybrid(kind, file_regions, gap_threshold, config.list_io_max_regions)
    raise ModelError(f"unknown method {method!r}")
