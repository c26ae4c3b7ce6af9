"""Reference pattern builders: the region-by-region code the factories replaced.

These are the pattern factories as the simulator shipped them before each
rank's regions were built with whole-array operations: ``random_fragments``
with one numpy draw and one pair of Python lists per fragment,
``block_block`` cutting strided rows with ``subdivide``, and ``strided``
scanning every offset's sign through the public ``RegionList``
constructor.  They are kept verbatim (as functions rather than methods) so
``tests/test_patterns_reference.py`` can require the factories to build
equal regions, file sizes and names; the simulator does not use them.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import PatternError, RegionError
from repro.patterns import Pattern, RankAccess
from repro.regions import RegionList

__all__ = ["strided", "subdivide", "block_block", "random_fragments"]


def strided(start: int, count: int, length: int, stride: int) -> RegionList:
    """``count`` regions of ``length`` bytes, ``stride`` bytes apart
    (an MPI vector datatype flattened)."""
    if count < 0:
        raise RegionError("count must be non-negative")
    if count and length < 0:
        raise RegionError("length must be non-negative")
    off = start + stride * np.arange(count, dtype=np.int64)
    ln = np.full(count, length, dtype=np.int64)
    return RegionList(off, ln)


def subdivide(self: RegionList, piece_size: int) -> RegionList:
    """Split every region into adjacent pieces of ``piece_size`` bytes
    (measured from each region's start; final piece may be short).

    This is how the artificial benchmark "increases the number of
    accesses ... while preserving the aggregate data size" (paper
    Section 4.2.1): the same bytes, fragmented into more regions.
    """
    if piece_size <= 0:
        raise RegionError("piece_size must be positive")
    r = self.drop_empty()
    if r.count == 0:
        return r
    pieces_per = -(-r.lengths // piece_size)
    if (pieces_per == 1).all():
        return r
    n_pieces = int(pieces_per.sum())
    reg_idx = np.repeat(np.arange(r.count, dtype=np.int64), pieces_per)
    firsts = np.zeros(n_pieces, dtype=np.int64)
    firsts[np.cumsum(pieces_per)[:-1]] = pieces_per[:-1]
    j = np.arange(n_pieces, dtype=np.int64) - np.cumsum(firsts)
    start = r.offsets[reg_idx] + j * piece_size
    end = np.minimum(start + piece_size, r.ends[reg_idx])
    return RegionList._trusted(start, end - start, nonempty=True)


def block_block(
    total_bytes: int,
    n_clients: int,
    accesses_per_client: int,
) -> Pattern:
    """Build the block-block pattern.

    ``n_clients`` must be a perfect square ``q**2`` (the paper uses 4, 9,
    16).  The array side rounds down to the nearest multiple of ``q`` and
    the access count to the nearest feasible fragmentation (at least one
    access per row run) — the paper's grids, e.g. 1 GiB over 9 clients,
    are not exactly realizable either.  The pattern's ``file_size`` and
    region counts report the actual geometry.
    """
    q = math.isqrt(n_clients)
    if q * q != n_clients:
        raise PatternError(f"n_clients={n_clients} is not a perfect square")
    if total_bytes <= 0 or accesses_per_client <= 0:
        raise PatternError("total_bytes and accesses_per_client must be positive")
    N = (math.isqrt(total_bytes) // q) * q
    if N < q:
        raise PatternError(
            f"total_bytes={total_bytes} too small for a {q}x{q} decomposition"
        )
    total_bytes = N * N
    side = N // q  # block side in bytes == rows per client == run length
    pieces_per_row = max(round(accesses_per_client / side), 1)
    piece = -(-side // pieces_per_row)  # ceil: last piece of a row is short
    accesses = []
    for rank in range(n_clients):
        i, j = divmod(rank, q)
        row0 = i * side
        col0 = j * side
        rows = strided(start=row0 * N + col0, count=side, length=side, stride=N)
        file_regions = subdivide(rows, piece)
        mem_regions = RegionList.single(0, side * side)
        accesses.append(
            RankAccess(rank=rank, mem_regions=mem_regions, file_regions=file_regions)
        )
    return Pattern(
        name=f"block-block[{q}x{q}, {accesses_per_client} accesses]",
        accesses=tuple(accesses),
        file_size=total_bytes,
    )


def random_fragments(
    n_clients: int,
    fragments_per_client: int,
    min_size: int = 8,
    max_size: int = 4096,
    min_gap: int = 0,
    max_gap: int = 8192,
    seed: int = 0,
) -> Pattern:
    """Log-uniform random fragment sizes and gaps; clients get disjoint
    interleaved slots so the pattern is always safely writable in
    parallel.  Deterministic for a given seed."""
    if n_clients <= 0 or fragments_per_client <= 0:
        raise PatternError("all counts must be positive")
    if not (0 < min_size <= max_size):
        raise PatternError("need 0 < min_size <= max_size")
    if not (0 <= min_gap <= max_gap):
        raise PatternError("need 0 <= min_gap <= max_gap")
    rng = np.random.default_rng(seed)

    def log_uniform(lo, hi, n):
        if lo == hi:
            return np.full(n, lo, dtype=np.int64)
        return np.exp(
            rng.uniform(np.log(lo), np.log(hi), n)
        ).astype(np.int64).clip(lo, hi)

    accesses = []
    cursor = 0
    # Build a global interleaved schedule: round-robin one fragment per
    # client per round, with random sizes/gaps.
    offs = [[] for _ in range(n_clients)]
    lens = [[] for _ in range(n_clients)]
    for _round in range(fragments_per_client):
        for c in range(n_clients):
            size = int(log_uniform(min_size, max_size, 1)[0])
            gap = int(rng.integers(min_gap, max_gap + 1))
            offs[c].append(cursor)
            lens[c].append(size)
            cursor += size + gap
    for c in range(n_clients):
        file_regions = RegionList(offs[c], lens[c])
        accesses.append(
            RankAccess(
                rank=c,
                mem_regions=RegionList.single(0, file_regions.total_bytes),
                file_regions=file_regions,
            )
        )
    return Pattern(
        name=f"random[seed={seed}]",
        accesses=tuple(accesses),
        file_size=cursor,
    )
