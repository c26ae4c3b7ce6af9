"""Synthetic workload generator.

The paper's workload references ([1][4][7][10]) characterize scientific
I/O as many small requests with varying spatial density.  This module
generates parameterized patterns in that family, for sweeps the paper's
fixed benchmarks cannot express (the crossover explorer, fault-injection
tests, randomized correctness tests):

* :func:`uniform_fragments` — fixed-size fragments at a chosen packing
  density, interleaved or partitioned across clients;
* :func:`random_fragments` — log-uniform region sizes and gaps from a
  seeded RNG (deterministic per seed).
"""

from __future__ import annotations

import numpy as np

from ..errors import PatternError
from ..regions import RegionList
from .base import Pattern, RankAccess

__all__ = ["uniform_fragments", "random_fragments"]


def uniform_fragments(
    n_clients: int,
    fragments_per_client: int,
    fragment_size: int,
    density: float = 1.0,
    layout: str = "interleaved",
) -> Pattern:
    """Fixed-size fragments at packing density ``density``.

    ``layout="interleaved"`` cycles clients like the paper's 1-D cyclic
    pattern; ``"partitioned"`` gives each client its own contiguous zone
    (block-like).  ``density`` is fragment bytes over footprint bytes
    within one client's stream (1.0 = back-to-back).
    """
    if n_clients <= 0 or fragments_per_client <= 0 or fragment_size <= 0:
        raise PatternError("all counts must be positive")
    if not 0 < density <= 1:
        raise PatternError("density must be in (0, 1]")
    if layout not in ("interleaved", "partitioned"):
        raise PatternError(f"unknown layout {layout!r}")
    slot = max(round(fragment_size / density), fragment_size)
    accesses = []
    # Each rank's regions are rank 0's moved to its start, so every rank
    # shares one lengths array.
    if layout == "interleaved":
        stride = slot * n_clients
        regions = RegionList.strided(0, fragments_per_client, fragment_size, stride)
        for c in range(n_clients):
            file_regions = regions.shift(c * slot)
            accesses.append(
                RankAccess(
                    rank=c,
                    mem_regions=RegionList.single(0, file_regions.total_bytes),
                    file_regions=file_regions,
                )
            )
        file_size = stride * fragments_per_client
    else:
        zone = slot * fragments_per_client
        regions = RegionList.strided(0, fragments_per_client, fragment_size, slot)
        for c in range(n_clients):
            file_regions = regions.shift(c * zone)
            accesses.append(
                RankAccess(
                    rank=c,
                    mem_regions=RegionList.single(0, file_regions.total_bytes),
                    file_regions=file_regions,
                )
            )
        file_size = zone * n_clients
    return Pattern(
        name=f"uniform[{layout}, {fragment_size}B @ {density:.0%}]",
        accesses=tuple(accesses),
        file_size=file_size,
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
    # One draw loop in the order of the global interleaved schedule (round
    # robin, one fragment per client per round): per fragment a log-uniform
    # size, unless every size is ``min_size``, then a gap.  Everything else
    # is whole-array.
    n = n_clients * fragments_per_client
    uniform, integers, stop = rng.uniform, rng.integers, max_gap + 1
    if min_size == max_size:
        sizes = np.full(n, min_size, dtype=np.int64)
        gaps = [integers(min_gap, stop) for _ in range(n)]
    else:
        lo, hi = np.log(min_size), np.log(max_size)
        logs, gaps = [], []
        for _ in range(n):
            logs.append(uniform(lo, hi))
            gaps.append(integers(min_gap, stop))
        sizes = np.exp(np.array(logs)).astype(np.int64).clip(min_size, max_size)
    steps = sizes + np.array(gaps, dtype=np.int64)
    ends = np.cumsum(steps)
    # Every step is positive, so the ends only fall where int64 wrapped.
    if not (ends[1:] > ends[:-1]).all():
        raise OverflowError("fragment offsets exceed the int64 range")
    # Rank c's fragments are every n_clients-th of the schedule.
    offsets = np.ascontiguousarray((ends - steps).reshape(-1, n_clients).T)
    lengths = np.ascontiguousarray(sizes.reshape(-1, n_clients).T)
    accesses = []
    for c in range(n_clients):
        file_regions = RegionList._trusted(offsets[c], lengths[c], nonempty=True)
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
        file_size=int(ends[-1]),
    )
