"""Access-pattern base types.

A :class:`Pattern` describes one benchmark workload: for every rank
(client) a pair of region lists — memory and file — whose flattened byte
streams correspond, exactly the paper's list-interface contract.  Pattern
generators are pure functions of their parameters: no simulation state, so
both the live simulator and the analytic model consume the same objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


from ..errors import PatternError
from ..regions import RegionList

__all__ = ["RankAccess", "Pattern"]


@dataclass(frozen=True)
class RankAccess:
    """One rank's transfer description."""

    rank: int
    mem_regions: RegionList
    file_regions: RegionList

    def __post_init__(self) -> None:
        if self.mem_regions.total_bytes != self.file_regions.total_bytes:
            raise PatternError(
                f"rank {self.rank}: memory volume {self.mem_regions.total_bytes} "
                f"!= file volume {self.file_regions.total_bytes}"
            )

    @property
    def nbytes(self) -> int:
        return self.file_regions.total_bytes

    @property
    def n_file_regions(self) -> int:
        return self.file_regions.count


@dataclass(frozen=True)
class Pattern:
    """A complete multi-rank workload pattern."""

    name: str
    accesses: Tuple[RankAccess, ...]
    file_size: int

    def __post_init__(self) -> None:
        if not self.accesses:
            raise PatternError("pattern needs at least one rank")
        ranks = [a.rank for a in self.accesses]
        if ranks != list(range(len(ranks))):
            raise PatternError("rank accesses must be dense and ordered from 0")

    @property
    def n_ranks(self) -> int:
        return len(self.accesses)

    @property
    def total_bytes(self) -> int:
        return sum(a.nbytes for a in self.accesses)

    @property
    def total_file_regions(self) -> int:
        return sum(a.n_file_regions for a in self.accesses)

    def rank(self, r: int) -> RankAccess:
        return self.accesses[r]

    def verify_disjoint_across_ranks(self) -> bool:
        """True when no two ranks' file regions overlap (required for a
        race-free parallel write)."""
        combined = RegionList.empty()
        for a in self.accesses:
            combined = combined.concat(a.file_regions)
        return combined.is_disjoint()

    def verify_covers_file(self) -> bool:
        """True when the ranks' regions exactly tile ``[0, file_size)``."""
        combined = RegionList.empty()
        for a in self.accesses:
            combined = combined.concat(a.file_regions)
        c = combined.coalesced()
        return c.count == 1 and c.offsets[0] == 0 and c.lengths[0] == self.file_size

    def __repr__(self) -> str:
        return (
            f"<Pattern {self.name} ranks={self.n_ranks} "
            f"bytes={self.total_bytes} regions={self.total_file_regions}>"
        )
