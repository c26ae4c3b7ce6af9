"""One-dimensional cyclic access (paper Figure 7, Section 4.2.1).

A global 2-D array is stored row-major in one file and every processor
owns an equal share of columns: flattened to 1-D, rank ``c`` of ``P``
accesses blocks of ``b`` bytes at offsets ``c*b, (P+c)*b, (2P+c)*b, ...``.
The benchmark fixes the aggregate volume (1 GiB in the paper) and varies
the *number of accesses per client*; the block size is whatever keeps the
volume constant:

    b = total_bytes / (n_clients * accesses_per_client)

Each client's memory side is one contiguous buffer.
"""

from __future__ import annotations

from ..errors import PatternError
from ..regions import RegionList
from .base import Pattern, RankAccess

__all__ = ["one_dim_cyclic"]


def one_dim_cyclic(
    total_bytes: int,
    n_clients: int,
    accesses_per_client: int,
) -> Pattern:
    """Build the 1-D cyclic pattern.

    When ``total_bytes`` does not divide evenly (the paper's own grid —
    1 GiB over 9 clients x 800,000 accesses is about 149 bytes/access —
    cannot be exact either), the block size rounds down and the aggregate
    shrinks to ``block * n_clients * accesses_per_client`` bytes; the
    pattern's ``file_size`` reports the actual value.
    """
    if total_bytes <= 0:
        raise PatternError("total_bytes must be positive")
    if n_clients <= 0 or accesses_per_client <= 0:
        raise PatternError("n_clients and accesses_per_client must be positive")
    n_blocks = n_clients * accesses_per_client
    block = total_bytes // n_blocks
    if block < 1:
        raise PatternError(
            f"total_bytes={total_bytes} too small for {n_clients} clients x "
            f"{accesses_per_client} accesses (needs at least 1 byte each)"
        )
    total_bytes = block * n_blocks
    stride = n_clients * block
    # Rank c's regions are rank 0's moved by c blocks: every rank shares
    # one lengths array.
    regions = RegionList.strided(start=0, count=accesses_per_client, length=block, stride=stride)
    accesses = []
    for c in range(n_clients):
        file_regions = regions.shift(c * block)
        mem_regions = RegionList.single(0, accesses_per_client * block)
        accesses.append(RankAccess(rank=c, mem_regions=mem_regions, file_regions=file_regions))
    return Pattern(
        name=f"1d-cyclic[{n_clients}x{accesses_per_client}]",
        accesses=tuple(accesses),
        file_size=total_bytes,
    )
