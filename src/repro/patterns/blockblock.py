"""Two-dimensional block-block access (paper Figure 8, Section 4.2.1).

A square global 2-D byte array (side ``N``, row-major in one file) is
partitioned into a ``q x q`` grid of blocks, one per client (so the client
count must be a perfect square — the paper uses 4, 9, 16).  Client
``(i, j)`` owns rows ``i*N/q .. (i+1)*N/q`` restricted to columns
``j*N/q .. (j+1)*N/q``: per row one run of ``N/q`` bytes, ``N/q`` runs in
total, each separated by a full row stride.

The benchmark's "number of accesses" further subdivides each row run into
equal pieces (the same bytes, fragmented harder), matching how the paper
sweeps accesses at constant volume.  Note the key locality property the
paper calls out: a client's runs advance through the file in
``N``-byte strides, so with stripe size ≪ N each client keeps hitting the
*same few I/O servers* — the cause of the list I/O upturn in Figure 11.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import PatternError
from ..regions import RegionList
from .base import Pattern, RankAccess

__all__ = ["block_block"]


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
    # Every row splits at the same columns, into ceil(side / piece) pieces
    # (fewer than requested when side / pieces_per_row rounds up: side 10
    # in 6 pieces is 5 pieces of 2), so all ranks share one lengths array.
    cuts = np.arange(0, side, piece, dtype=np.int64)
    row_lengths = np.minimum(cuts + piece, side) - cuts
    lengths = np.tile(row_lengths, side)
    lengths.setflags(write=False)
    row_steps = N * np.arange(side, dtype=np.int64)
    mem_regions = RegionList.single(0, side * side)
    accesses = []
    for rank in range(n_clients):
        i, j = divmod(rank, q)
        starts = (i * side * N + j * side) + row_steps
        offsets = (starts[:, None] + cuts[None, :]).ravel()
        file_regions = RegionList._trusted(offsets, lengths, nonempty=True)
        accesses.append(
            RankAccess(rank=rank, mem_regions=mem_regions, file_regions=file_regions)
        )
    return Pattern(
        name=f"block-block[{q}x{q}, {accesses_per_client} accesses]",
        accesses=tuple(accesses),
        file_size=total_bytes,
    )
