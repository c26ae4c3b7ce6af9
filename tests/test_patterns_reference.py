"""The whole-array pattern factories against the region-by-region reference.

:mod:`tests.patterns_reference` holds the ``random_fragments``,
``block_block`` (with ``subdivide``) and ``strided`` that the pattern layer
replaced.  Every test builds the same input both ways and requires equal
regions, rank by rank, the same ``file_size`` and name, or the same error.
The new lists must also be what the public constructor would accept:
read-only, contiguous int64 arrays with no negative offset.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import PatternError, RegionError
from repro.patterns import (
    FlashConfig,
    TiledConfig,
    block_block,
    flash_io,
    one_dim_cyclic,
    random_fragments,
    tiled_visualization,
    uniform_fragments,
)
from repro.regions import RegionList

from . import patterns_reference as ref


def assert_valid(r: RegionList) -> None:
    for a in (r.offsets, r.lengths):
        assert a.dtype == np.int64 and a.ndim == 1
        assert a.flags.c_contiguous and not a.flags.writeable
    assert r == RegionList(r.offsets.copy(), r.lengths.copy())


def assert_same(new, old) -> None:
    assert new.name == old.name
    assert new.file_size == old.file_size and type(new.file_size) is int
    assert new.n_ranks == old.n_ranks
    for a, b in zip(new.accesses, old.accesses):
        assert a.rank == b.rank
        assert a.file_regions == b.file_regions
        assert a.mem_regions == b.mem_regions
        assert_valid(a.file_regions)
        assert_valid(a.mem_regions)


def same_error(build_new, build_old, error):
    with pytest.raises(error) as old:
        build_old()
    with pytest.raises(error, match=f"^{re.escape(str(old.value))}$"):
        build_new()


# ---------------------------------------------------------------------------
# random_fragments
# ---------------------------------------------------------------------------
@st.composite
def random_args(draw):
    min_size = draw(st.integers(1, 4096))
    max_size = draw(st.one_of(st.just(min_size), st.integers(min_size, 1 << 20)))
    min_gap = draw(st.integers(0, 4096))
    max_gap = draw(st.one_of(st.just(min_gap), st.integers(min_gap, 1 << 20)))
    return (
        draw(st.integers(1, 16)),
        draw(st.integers(1, 40)),
        min_size,
        max_size,
        min_gap,
        max_gap,
        draw(st.integers(0, 2**63)),
    )


class TestRandomFragments:
    @settings(max_examples=150, deadline=None)
    @given(random_args())
    @example((4, 10, 64, 64, 128, 128, 0))  # no size drawn, every gap fixed
    @example((3, 7, 100, 100, 0, 50, 1))  # no size drawn
    @example((5, 9, 8, 4096, 7, 7, 2))  # every gap fixed
    @example((1, 1, 1, 1, 0, 0, 0))
    def test_matches_reference(self, args):
        assert_same(random_fragments(*args), ref.random_fragments(*args))

    @pytest.mark.parametrize("seed", [0, 17, 2**31 - 1])
    def test_benchmark_sized_schedule(self, seed):
        # 12,000 fragments: sizes exponentiated as one long array must equal
        # the reference's one-element exponentials.
        args = (4, 3000, 16, 4096, 0, 4096, seed)
        assert_same(random_fragments(*args), ref.random_fragments(*args))

    def test_default_arguments(self):
        assert_same(random_fragments(16, 50), ref.random_fragments(16, 50))

    @pytest.mark.parametrize(
        "args",
        [(0, 5), (2, 0), (2, 5, 0), (2, 5, 10, 9), (2, 5, 8, 16, -1), (2, 5, 8, 16, 9, 8)],
    )
    def test_same_errors(self, args):
        same_error(
            lambda: random_fragments(*args), lambda: ref.random_fragments(*args), PatternError
        )

    def test_offsets_past_int64_raise(self):
        args = (2, 3, 1, 1, 2**62, 2**62, 0)
        with pytest.raises(OverflowError):
            ref.random_fragments(*args)
        with pytest.raises(OverflowError):
            random_fragments(*args)


# ---------------------------------------------------------------------------
# block_block
# ---------------------------------------------------------------------------
@st.composite
def block_args(draw):
    q = draw(st.integers(1, 4))
    # Totals need not be squares: the array side rounds down.
    return draw(st.integers(q * q, 400_000)), q * q, draw(st.integers(1, 6000))


class TestBlockBlock:
    @settings(max_examples=150, deadline=None)
    @given(block_args())
    @example((100, 1, 60))  # side 10 asked for 6 pieces per row
    @example((7, 4, 1))  # side 1
    @example((1 << 20, 16, 1))  # one access per row
    def test_matches_reference(self, args):
        assert_same(block_block(*args), ref.block_block(*args))

    def test_row_splits_into_fewer_pieces_than_requested(self):
        # side 10, 6 pieces asked: pieces of ceil(10 / 6) = 2 bytes, so 5.
        p = block_block(100, 1, 60)
        regions = p.rank(0).file_regions
        assert regions.count == 50
        assert set(regions.lengths.tolist()) == {2}
        assert_same(p, ref.block_block(100, 1, 60))

    def test_short_last_piece(self):
        # side 10 in 3 pieces: 4 + 4 + 2 bytes per row.
        p = block_block(400, 4, 30)
        assert p.rank(3).file_regions.lengths[:3].tolist() == [4, 4, 2]
        assert_same(p, ref.block_block(400, 4, 30))

    def test_ranks_share_one_lengths_array(self):
        p = block_block(1 << 16, 16, 500)
        first = p.rank(0).file_regions.lengths
        assert all(a.file_regions.lengths is first for a in p.accesses)

    def test_paper_scale_point(self):
        # One figure 11 grid point: 1 GiB over 9 clients, 50k accesses each.
        assert_same(block_block(1 << 30, 9, 50_000), ref.block_block(1 << 30, 9, 50_000))

    @pytest.mark.parametrize("args", [(1 << 20, 2, 10), (1 << 20, 4, 0), (0, 4, 10), (3, 4, 10)])
    def test_same_errors(self, args):
        same_error(lambda: block_block(*args), lambda: ref.block_block(*args), PatternError)


# ---------------------------------------------------------------------------
# RegionList.strided
# ---------------------------------------------------------------------------
class TestStrided:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(-1000, 10**12),
        st.integers(0, 200),
        st.integers(0, 10**6),
        st.integers(-10**6, 10**9),
    )
    @example(10, 4, 1, -3)  # negative stride that stays at or above 0
    @example(0, 5, 0, 10)  # zero-length regions
    def test_matches_reference(self, start, count, length, stride):
        try:
            old = ref.strided(start, count, length, stride)
        except RegionError as exc:
            with pytest.raises(RegionError, match=f"^{re.escape(str(exc))}$"):
                RegionList.strided(start, count, length, stride)
            return
        new = RegionList.strided(start, count, length, stride)
        assert new == old
        assert new.drop_empty() == old.drop_empty()
        assert_valid(new)

    @pytest.mark.parametrize(
        "args",
        [
            (-1, 3, 4, 10),  # negative start
            (10, 5, 1, -3),  # negative stride crossing 0: 10, 7, 4, 1, -2
            (0, 3, -1, 10),  # negative length
            (0, -1, 4, 10),  # negative count
        ],
    )
    def test_errors(self, args):
        same_error(lambda: RegionList.strided(*args), lambda: ref.strided(*args), RegionError)

    def test_empty_with_negative_length(self):
        assert RegionList.strided(0, 0, -5, 10) == ref.strided(0, 0, -5, 10)


# ---------------------------------------------------------------------------
# strided patterns: rank by rank equal to their own strided list, with one
# lengths array shared by every rank
# ---------------------------------------------------------------------------
def assert_strided_ranks(pattern, starts, count, length, stride) -> None:
    assert pattern.n_ranks == len(starts)
    for access, start in zip(pattern.accesses, starts):
        assert access.file_regions == ref.strided(start, count, length, stride)
        assert_valid(access.file_regions)
        assert access.file_regions.lengths is pattern.accesses[0].file_regions.lengths


class TestStridedPatterns:
    @given(st.integers(1, 16), st.integers(1, 300), st.integers(1, 1 << 20))
    def test_one_dim_cyclic(self, n, accesses, total):
        try:
            pattern = one_dim_cyclic(total, n, accesses)
        except PatternError:
            assert total < n * accesses
            return
        block = total // (n * accesses)
        assert_strided_ranks(pattern, [c * block for c in range(n)], accesses, block, n * block)

    @given(
        st.integers(1, 8),
        st.integers(1, 200),
        st.integers(1, 5000),
        st.floats(0.05, 1.0),
        st.sampled_from(["interleaved", "partitioned"]),
    )
    def test_uniform_fragments(self, n, count, size, density, layout):
        pattern = uniform_fragments(n, count, size, density=density, layout=layout)
        slot = max(round(size / density), size)
        if layout == "interleaved":
            starts, stride = [c * slot for c in range(n)], slot * n
        else:
            starts, stride = [c * slot * count for c in range(n)], slot
        assert_strided_ranks(pattern, starts, count, size, stride)

    @given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 30), st.integers(0, 20))
    def test_tiled_visualization(self, tiles_x, tiles_y, overlap_x, overlap_y):
        cfg = TiledConfig(
            tiles_x=tiles_x,
            tiles_y=tiles_y,
            tile_width=40,
            tile_height=24,
            overlap_x=overlap_x,
            overlap_y=overlap_y,
            bytes_per_pixel=3,
        )
        row = cfg.frame_width * 3
        starts = [
            (r // tiles_x) * (24 - overlap_y) * row + (r % tiles_x) * (40 - overlap_x) * 3
            for r in range(cfg.n_tiles)
        ]
        assert_strided_ranks(tiled_visualization(cfg), starts, 24, 40 * 3, row)


# ---------------------------------------------------------------------------
# flash_io: trusted lists the public constructor accepts
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "n_procs, cfg",
    [
        (1, FlashConfig.scaled()),
        (4, FlashConfig(n_blocks=3, nxb=2, nyb=3, nzb=4, n_vars=5, n_guard=0)),
    ],
)
def test_flash_regions_are_valid(n_procs, cfg):
    p = flash_io(n_procs, cfg)
    for a in p.accesses:
        assert_valid(a.file_regions)
        assert_valid(a.mem_regions)
        assert (a.mem_regions.lengths == 8).all()
        assert (a.file_regions.lengths == cfg.chunk_bytes).all()
    assert p.verify_covers_file()
