"""Byte containers backing the I/O servers' local file systems.

Every I/O daemon owns one store holding the *contents* of its stripe files,
so the simulator moves real data and the test suite can verify end-to-end
correctness of every access method.  Storage is sparse (chunked) so a file
with data only at large offsets does not allocate the gap.  A timing-only
cluster (``move_bytes=False``) gives its daemons no store at all.
"""

from __future__ import annotations

from typing import Dict, Hashable

import numpy as np

from ..errors import StorageError
from ..regions import RegionList

__all__ = ["ByteStore"]

# One default stripe unit (``StripeParams.stripe_size``).  An I/O daemon's
# stripe file grows one stripe unit at a time, so a larger chunk would mostly
# hold zeros that stay allocated for as long as the cluster lives.
_DEFAULT_CHUNK = 16 * 1024


class ByteStore:
    """Sparse byte storage: ``file_id -> {chunk_index -> uint8[chunk]}``.

    Unallocated bytes read back as zero, matching the semantics of a hole in
    a POSIX file.
    """

    def __init__(self, chunk_size: int = _DEFAULT_CHUNK) -> None:
        if chunk_size <= 0:
            raise StorageError("chunk_size must be positive")
        self.chunk_size = chunk_size
        self._files: Dict[Hashable, Dict[int, np.ndarray]] = {}

    # ------------------------------------------------------------------
    def _chunks(self, file_id: Hashable) -> Dict[int, np.ndarray]:
        return self._files.setdefault(file_id, {})

    def allocated_bytes(self, file_id: Hashable) -> int:
        return len(self._files.get(file_id, {})) * self.chunk_size

    # ------------------------------------------------------------------
    def write(self, file_id: Hashable, regions: RegionList, data: np.ndarray) -> None:
        """Scatter ``data`` (uint8, length == regions.total_bytes) into the
        file at the given regions, in region order."""
        data = np.asarray(data, dtype=np.uint8)
        if data.ndim != 1 or data.size != regions.total_bytes:
            raise StorageError(
                f"data size {data.size} does not match region volume {regions.total_bytes}"
            )
        chunks = self._chunks(file_id)
        cs = self.chunk_size
        pos = 0
        for off, ln in regions:
            if ln == 0:
                continue
            end = off + ln
            c0, c1 = off // cs, (end - 1) // cs
            for c in range(c0, c1 + 1):
                chunk = chunks.get(c)
                if chunk is None:
                    chunk = chunks[c] = np.zeros(cs, dtype=np.uint8)
                lo = max(off, c * cs)
                hi = min(end, (c + 1) * cs)
                n = hi - lo
                chunk[lo - c * cs : hi - c * cs] = data[pos : pos + n]
                pos += n

    def read(self, file_id: Hashable, regions: RegionList) -> np.ndarray:
        """Gather the regions' bytes (in region order) into a new array."""
        out = np.zeros(regions.total_bytes, dtype=np.uint8)
        chunks = self._files.get(file_id)
        if not chunks:
            return out
        cs = self.chunk_size
        pos = 0
        for off, ln in regions:
            if ln == 0:
                continue
            end = off + ln
            c0, c1 = off // cs, (end - 1) // cs
            for c in range(c0, c1 + 1):
                lo = max(off, c * cs)
                hi = min(end, (c + 1) * cs)
                n = hi - lo
                chunk = chunks.get(c)
                if chunk is not None:
                    out[pos : pos + n] = chunk[lo - c * cs : hi - c * cs]
                pos += n
        return out

    def __repr__(self) -> str:
        return f"<ByteStore files={len(self._files)} chunk={self.chunk_size}>"
