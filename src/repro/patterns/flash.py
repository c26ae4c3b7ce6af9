"""FLASH I/O checkpoint pattern (paper Figures 13/14, Section 4.3.1).

Memory (per processor): ``n_blocks`` FLASH blocks, each an
``nxb x nyb x nzb`` cube of elements surrounded by ``n_guard`` guard cells
on every side; every element holds ``n_vars`` double-precision variables
stored contiguously (variable index fastest).  The checkpoint writes the
*inner* elements of every block for every variable — so each contiguous
memory region is a single 8-byte double.

File: variable-major.  All of variable 0, then variable 1, ...; within a
variable, ``n_blocks`` block slots; within a block slot, one
``nxb*nyb*nzb*8``-byte chunk per processor:

    offset(v, b, p) = ((v * n_blocks + b) * n_procs + p) * chunk_bytes

With the paper's defaults this gives, per processor, 983,040 8-byte memory
regions (the multiple I/O request count), 1,920 file regions of 4,096 bytes
(-> 30 list I/O requests at the 64-region cap), and 7.5 MiB of data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PatternError
from ..regions import RegionList
from .base import Pattern, RankAccess

__all__ = ["FlashConfig", "flash_io"]

_DOUBLE = 8  # sizeof(double)


@dataclass(frozen=True)
class FlashConfig:
    """FLASH mesh parameters.  Defaults are the paper's (Section 4.3.1)."""

    n_blocks: int = 80
    nxb: int = 8
    nyb: int = 8
    nzb: int = 8
    n_vars: int = 24
    n_guard: int = 4

    def __post_init__(self) -> None:
        for f in ("n_blocks", "nxb", "nyb", "nzb", "n_vars"):
            if getattr(self, f) <= 0:
                raise PatternError(f"{f} must be positive")
        if self.n_guard < 0:
            raise PatternError("n_guard must be non-negative")

    @classmethod
    def scaled(cls, factor: int = 4) -> "FlashConfig":
        """A reduced mesh for fast simulation (same structure, fewer
        elements): factor 4 -> 20 blocks of 4^3 elements."""
        if factor < 1:
            raise PatternError("factor must be >= 1")
        return cls(
            n_blocks=max(cls.n_blocks // factor, 1),
            nxb=max(cls.nxb // 2, 1) if factor > 1 else cls.nxb,
            nyb=max(cls.nyb // 2, 1) if factor > 1 else cls.nyb,
            nzb=max(cls.nzb // 2, 1) if factor > 1 else cls.nzb,
            n_vars=cls.n_vars,
            n_guard=min(cls.n_guard, 2) if factor > 1 else cls.n_guard,
        )

    @property
    def inner_elements(self) -> int:
        return self.nxb * self.nyb * self.nzb

    @property
    def chunk_bytes(self) -> int:
        """One (variable, block, proc) file chunk."""
        return self.inner_elements * _DOUBLE

    @property
    def checkpoint_bytes_per_proc(self) -> int:
        return self.n_blocks * self.n_vars * self.chunk_bytes

    @property
    def mem_regions_per_proc(self) -> int:
        """The paper's multiple-I/O request count per processor."""
        return self.n_blocks * self.inner_elements * self.n_vars

    @property
    def file_regions_per_proc(self) -> int:
        return self.n_blocks * self.n_vars

    @property
    def padded_dims(self):
        g = self.n_guard
        return (self.nxb + 2 * g, self.nyb + 2 * g, self.nzb + 2 * g)

    @property
    def block_footprint_bytes(self) -> int:
        px, py, pz = self.padded_dims
        return px * py * pz * self.n_vars * _DOUBLE


def _rank_memory_regions(cfg: FlashConfig) -> RegionList:
    """Memory offsets of every checkpointed double, in file-stream order
    (variable-major, then block, then z, y, x element order)."""
    px, py, pz = cfg.padded_dims
    g = cfg.n_guard
    # offsets of inner elements within one padded block (element index)
    x = np.arange(cfg.nxb, dtype=np.int64) + g
    y = np.arange(cfg.nyb, dtype=np.int64) + g
    z = np.arange(cfg.nzb, dtype=np.int64) + g
    # element linear index: x fastest (C row-major over (z, y, x))
    elem = (
        z[:, None, None] * (py * px) + y[None, :, None] * px + x[None, None, :]
    ).ravel()  # shape (inner_elements,), stream order z,y,x
    elem_byte = elem * (cfg.n_vars * _DOUBLE)
    block_base = np.arange(cfg.n_blocks, dtype=np.int64) * cfg.block_footprint_bytes
    var_byte = np.arange(cfg.n_vars, dtype=np.int64) * _DOUBLE
    # stream order: v-major, then block, then element
    offsets = (
        var_byte[:, None, None] + block_base[None, :, None] + elem_byte[None, None, :]
    ).ravel()
    lengths = np.full(offsets.size, _DOUBLE, dtype=np.int64)
    # Non-negative aranges times sizes: valid by construction.
    return RegionList._trusted(offsets, lengths, nonempty=True)


def flash_io(
    n_procs: int,
    cfg: FlashConfig | None = None,
) -> Pattern:
    """Build the FLASH checkpoint-write pattern for ``n_procs`` clients."""
    if n_procs <= 0:
        raise PatternError("n_procs must be positive")
    cfg = cfg or FlashConfig()
    mem = _rank_memory_regions(cfg)  # identical layout on every proc
    chunk = cfg.chunk_bytes
    accesses = []
    vb = np.arange(cfg.n_vars * cfg.n_blocks, dtype=np.int64)  # v-major (v*B + b)
    lengths = np.full(vb.size, chunk, dtype=np.int64)  # shared by every proc
    for p in range(n_procs):
        file_off = (vb * n_procs + p) * chunk
        file_regions = RegionList._trusted(file_off, lengths, nonempty=True)
        accesses.append(
            RankAccess(rank=p, mem_regions=mem, file_regions=file_regions)
        )
    return Pattern(
        name=f"flash-io[{n_procs} procs, {cfg.n_blocks} blocks]",
        accesses=tuple(accesses),
        file_size=n_procs * cfg.checkpoint_bytes_per_proc,
    )
