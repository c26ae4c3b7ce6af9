"""Tests for the benchmark access patterns."""

import pytest

from repro.errors import PatternError
from repro.patterns import (
    FlashConfig,
    TiledConfig,
    block_block,
    flash_io,
    one_dim_cyclic,
    tiled_visualization,
)
from repro.patterns.base import Pattern, RankAccess
from repro.regions import RegionList
from repro.units import MiB


class TestBase:
    def test_rank_access_volume_check(self):
        with pytest.raises(PatternError):
            RankAccess(0, RegionList.single(0, 10), RegionList.single(0, 20))

    def test_pattern_rank_ordering_check(self):
        a0 = RankAccess(0, RegionList.single(0, 4), RegionList.single(0, 4))
        with pytest.raises(PatternError):
            Pattern("x", (a0, a0), file_size=8)  # duplicate rank 0

    def test_pattern_needs_ranks(self):
        with pytest.raises(PatternError):
            Pattern("x", (), file_size=0)


class TestCyclic:
    def test_block_size_derivation(self):
        p = one_dim_cyclic(total_bytes=1024, n_clients=4, accesses_per_client=8)
        a = p.rank(0)
        assert a.n_file_regions == 8
        assert a.nbytes == 256
        assert a.file_regions.lengths[0] == 32  # 1024 / (4*8)

    def test_interleaving(self):
        p = one_dim_cyclic(total_bytes=64, n_clients=4, accesses_per_client=2)
        # block = 8; rank 1 gets offsets 8, 40
        assert list(p.rank(1).file_regions.offsets) == [8, 40]

    def test_covers_file_disjointly(self):
        p = one_dim_cyclic(total_bytes=4096, n_clients=8, accesses_per_client=16)
        assert p.verify_disjoint_across_ranks()
        assert p.verify_covers_file()

    def test_more_accesses_same_bytes(self):
        p1 = one_dim_cyclic(1 * MiB, 8, 64)
        p2 = one_dim_cyclic(1 * MiB, 8, 512)
        assert p1.total_bytes == p2.total_bytes
        assert p2.total_file_regions == 8 * p1.total_file_regions

    def test_paper_access_size_formula(self):
        # Paper: (1 GiB)/(clients)/(accesses) bytes per access.
        p = one_dim_cyclic(2**30, 16, 4096)
        assert p.rank(0).file_regions.lengths[0] == 2**30 // 16 // 4096

    def test_indivisible_rounds_down(self):
        # 100 B over 3 clients x 7 accesses -> 4 B blocks, 84 B aggregate.
        p = one_dim_cyclic(total_bytes=100, n_clients=3, accesses_per_client=7)
        assert p.file_size == 84
        assert p.rank(0).file_regions.lengths[0] == 4
        assert p.verify_covers_file()

    def test_bad_params(self):
        with pytest.raises(PatternError):
            one_dim_cyclic(0, 4, 4)
        with pytest.raises(PatternError):
            one_dim_cyclic(64, 0, 4)
        with pytest.raises(PatternError):
            one_dim_cyclic(10, 4, 4)  # under 1 byte per access


class TestBlockBlock:
    def test_grid_partition(self):
        # 4 clients on a 16x16-byte array: 8x8 blocks.
        p = block_block(total_bytes=256, n_clients=4, accesses_per_client=8)
        a = p.rank(0)  # top-left block
        assert a.nbytes == 64
        assert list(a.file_regions.offsets[:2]) == [0, 16]
        b = p.rank(1)  # top-right block starts at column 8
        assert b.file_regions.offsets[0] == 8

    def test_covers_file_disjointly(self):
        p = block_block(total_bytes=4096, n_clients=16, accesses_per_client=16)
        assert p.verify_disjoint_across_ranks()
        assert p.verify_covers_file()

    def test_access_subdivision(self):
        base = block_block(total_bytes=4096, n_clients=4, accesses_per_client=32)
        fine = block_block(total_bytes=4096, n_clients=4, accesses_per_client=128)
        assert fine.total_bytes == base.total_bytes
        assert fine.rank(0).n_file_regions == 4 * base.rank(0).n_file_regions
        # finer accesses are quarters of rows
        assert fine.rank(0).file_regions.lengths[0] * 4 == base.rank(0).file_regions.lengths[0]

    def test_non_square_clients_rejected(self):
        with pytest.raises(PatternError):
            block_block(4096, 8, 64)

    def test_non_square_bytes_round_down(self):
        # isqrt(1000)=31 -> side rounds to 30 -> 900 B array.
        p = block_block(1000, 4, 15)
        assert p.file_size == 900
        assert p.verify_covers_file()

    def test_access_granularity_rounds(self):
        # 33 accesses over 32 rows -> 1 piece/row -> 32 actual accesses.
        p = block_block(total_bytes=4096, n_clients=4, accesses_per_client=33)
        assert p.rank(0).n_file_regions == 32

    def test_too_small_rejected(self):
        with pytest.raises(PatternError):
            block_block(total_bytes=1, n_clients=4, accesses_per_client=1)

    def test_each_client_touches_few_servers(self):
        """The paper's Figure 11 explanation: block-block clients hit only a
        fraction of the I/O servers."""
        from repro.config import StripeParams
        from repro.pvfs.striping import map_regions

        # Paper scale: 1 GiB array (32768x32768), 16 clients, stripe 16 KiB,
        # 8 servers.  A row is 2 stripe units, so a client's rows step
        # through servers 2 at a time -> only 4 of 8 servers per client.
        p = block_block(total_bytes=2**30, n_clients=16, accesses_per_client=8192)
        sp = StripeParams(stripe_size=16384)
        servers_used = [
            len(map_regions(p.rank(r).file_regions, sp, 8)) for r in (0, 5)
        ]
        assert max(servers_used) <= 4  # far fewer than 8

        # By contrast the cyclic pattern spreads every client over all 8.
        pc = one_dim_cyclic(2**30, 16, 2**17)
        cyc = [len(map_regions(pc.rank(r).file_regions, sp, 8)) for r in (0, 5)]
        assert min(cyc) == 8


class TestFlash:
    def test_paper_counts(self):
        cfg = FlashConfig()
        assert cfg.mem_regions_per_proc == 983_040  # paper's multiple I/O count
        assert cfg.file_regions_per_proc == 1920
        assert cfg.checkpoint_bytes_per_proc == 7_864_320  # 7.5 MiB
        assert cfg.chunk_bytes == 4096

    def test_pattern_structure(self):
        cfg = FlashConfig(n_blocks=2, nxb=2, nyb=2, nzb=2, n_vars=3, n_guard=1)
        p = flash_io(2, cfg)
        a = p.rank(0)
        assert a.n_file_regions == 2 * 3
        assert a.mem_regions.count == 2 * 8 * 3
        assert (a.mem_regions.lengths == 8).all()
        assert a.nbytes == cfg.checkpoint_bytes_per_proc
        assert p.file_size == 2 * cfg.checkpoint_bytes_per_proc

    def test_memory_regions_respect_guard_cells(self):
        cfg = FlashConfig(n_blocks=1, nxb=2, nyb=2, nzb=2, n_vars=1, n_guard=1)
        p = flash_io(1, cfg)
        offs = p.rank(0).mem_regions.offsets
        # padded block is 4x4x4; inner elements are at (1..2)^3
        expected_first = (1 * 16 + 1 * 4 + 1) * 8  # element (z=1,y=1,x=1)
        assert offs[0] == expected_first
        inner = [(z * 16 + y * 4 + x) * 8 for z in (1, 2) for y in (1, 2) for x in (1, 2)]
        assert list(offs) == inner  # C order, one double per region

    def test_variable_interleaving_in_memory(self):
        cfg = FlashConfig(n_blocks=1, nxb=1, nyb=1, nzb=1, n_vars=4, n_guard=0)
        p = flash_io(1, cfg)
        # one element, 4 vars -> memory regions at 8-byte steps
        assert list(p.rank(0).mem_regions.offsets) == [0, 8, 16, 24]

    def test_file_layout_variable_major(self):
        cfg = FlashConfig(n_blocks=2, nxb=1, nyb=1, nzb=1, n_vars=2, n_guard=0)
        p = flash_io(2, cfg)
        # chunk = 8 B; offset(v, b, p) = ((v*2 + b)*2 + p) * 8
        assert list(p.rank(0).file_regions.offsets) == [0, 16, 32, 48]
        assert list(p.rank(1).file_regions.offsets) == [8, 24, 40, 56]

    def test_disjoint_and_covering(self):
        cfg = FlashConfig(n_blocks=2, nxb=2, nyb=2, nzb=2, n_vars=2, n_guard=1)
        p = flash_io(3, cfg)
        assert p.verify_disjoint_across_ranks()
        assert p.verify_covers_file()

    def test_scaled_config_shrinks(self):
        s = FlashConfig.scaled(4)
        assert s.n_blocks < FlashConfig.n_blocks
        assert s.checkpoint_bytes_per_proc < FlashConfig().checkpoint_bytes_per_proc
        assert s.n_vars == 24  # structure preserved

    def test_memory_regions_are_disjoint(self):
        cfg = FlashConfig(n_blocks=2, nxb=2, nyb=2, nzb=2, n_vars=3, n_guard=1)
        p = flash_io(1, cfg)
        assert p.rank(0).mem_regions.is_disjoint()

    def test_validation(self):
        with pytest.raises(PatternError):
            FlashConfig(n_blocks=0)
        with pytest.raises(PatternError):
            flash_io(0)


class TestTiled:
    def test_paper_geometry(self):
        cfg = TiledConfig()
        assert cfg.frame_width == 3 * 1024 - 2 * 270 == 2532
        assert cfg.frame_height == 2 * 768 - 128 == 1408
        assert cfg.file_size == 2532 * 1408 * 3  # ~10.2 MB
        assert 10.0e6 < cfg.file_size < 10.8e6
        assert cfg.regions_per_tile == 768  # paper: 768 -> 12 list requests

    def test_six_ranks(self):
        p = tiled_visualization()
        assert p.n_ranks == 6
        for r in range(6):
            assert p.rank(r).n_file_regions == 768
            assert p.rank(r).nbytes == 1024 * 768 * 3

    def test_tile_origins(self):
        cfg = TiledConfig()
        p = tiled_visualization(cfg)
        row = cfg.frame_width * 3
        # rank 1 = second tile in top row: x0 = 1024-270 = 754
        assert p.rank(1).file_regions.offsets[0] == 754 * 3
        # rank 3 = first tile of bottom row: y0 = 768-128 = 640
        assert p.rank(3).file_regions.offsets[0] == 640 * row

    def test_overlap_makes_ranks_share_bytes(self):
        p = tiled_visualization()
        combined = p.rank(0).file_regions.concat(p.rank(1).file_regions)
        assert not combined.is_disjoint()  # overlap pixels are read twice

    def test_regions_stay_in_file(self):
        cfg = TiledConfig()
        p = tiled_visualization(cfg)
        for r in range(p.n_ranks):
            assert p.rank(r).file_regions.extent[1] <= cfg.file_size

    def test_validation(self):
        with pytest.raises(PatternError):
            TiledConfig(overlap_x=1024)
        with pytest.raises(PatternError):
            TiledConfig(tiles_x=0)
