"""Tiled visualization read pattern (paper Figure 16, Section 4.4.1).

A large frame is stored row-major in one file; an array of displays shows
it, one compute node per display ("tile").  Neighbouring tiles overlap so
edges can be blended, which makes each tile's file view noncontiguous: one
run of ``tile_width * bytes_per_pixel`` per display row.

Paper parameters: 3x2 displays, each 1024x768 at 24-bit colour, 270-pixel
horizontal and 128-pixel vertical overlap -> a 2532x1408 frame of about
10.2 MB; each of the 6 clients reads 768 rows (768 file regions -> 12 list
I/O requests at the 64-region cap) into contiguous memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PatternError
from ..regions import RegionList
from .base import Pattern, RankAccess

__all__ = ["TiledConfig", "tiled_visualization"]


@dataclass(frozen=True)
class TiledConfig:
    """Display-wall geometry.  Defaults are the paper's (Section 4.4.1)."""

    tiles_x: int = 3
    tiles_y: int = 2
    tile_width: int = 1024  # pixels
    tile_height: int = 768  # pixels
    overlap_x: int = 270  # pixels
    overlap_y: int = 128  # pixels
    bytes_per_pixel: int = 3  # 24-bit colour

    def __post_init__(self) -> None:
        for f in ("tiles_x", "tiles_y", "tile_width", "tile_height", "bytes_per_pixel"):
            if getattr(self, f) <= 0:
                raise PatternError(f"{f} must be positive")
        if self.overlap_x < 0 or self.overlap_y < 0:
            raise PatternError("overlaps must be non-negative")
        if self.overlap_x >= self.tile_width or self.overlap_y >= self.tile_height:
            raise PatternError("overlap must be smaller than the tile")

    @property
    def frame_width(self) -> int:
        return self.tiles_x * self.tile_width - (self.tiles_x - 1) * self.overlap_x

    @property
    def frame_height(self) -> int:
        return self.tiles_y * self.tile_height - (self.tiles_y - 1) * self.overlap_y

    @property
    def file_size(self) -> int:
        return self.frame_width * self.frame_height * self.bytes_per_pixel

    @property
    def n_tiles(self) -> int:
        return self.tiles_x * self.tiles_y

    @property
    def regions_per_tile(self) -> int:
        return self.tile_height

    @property
    def tile_bytes(self) -> int:
        return self.tile_width * self.tile_height * self.bytes_per_pixel


def tiled_visualization(cfg: TiledConfig | None = None) -> Pattern:
    """Build the tiled-visualization read pattern (one rank per tile,
    row-major tile order)."""
    cfg = cfg or TiledConfig()
    bpp = cfg.bytes_per_pixel
    row_bytes = cfg.frame_width * bpp
    run = cfg.tile_width * bpp
    # Each tile's regions are tile 0's moved to its corner, so every tile
    # shares one lengths array.
    rows = RegionList.strided(start=0, count=cfg.tile_height, length=run, stride=row_bytes)
    accesses = []
    for rank in range(cfg.n_tiles):
        ty, tx = divmod(rank, cfg.tiles_x)
        x0 = tx * (cfg.tile_width - cfg.overlap_x)
        y0 = ty * (cfg.tile_height - cfg.overlap_y)
        file_regions = rows.shift(y0 * row_bytes + x0 * bpp)
        mem_regions = RegionList.single(0, cfg.tile_bytes)
        accesses.append(
            RankAccess(rank=rank, mem_regions=mem_regions, file_regions=file_regions)
        )
    return Pattern(
        name=f"tiled-vis[{cfg.tiles_x}x{cfg.tiles_y}]",
        accesses=tuple(accesses),
        file_size=cfg.file_size,
    )
