"""Tests for the region algebra (repro.regions)."""

import numpy as np
import pytest

from repro.errors import RegionError
from repro.regions import RegionList, build_flat_indices, gather_runs, pair_pieces, scatter_runs

from .patterns_reference import subdivide


class TestConstruction:
    def test_empty(self):
        r = RegionList.empty()
        assert r.count == 0
        assert r.total_bytes == 0
        assert r.extent == (0, 0)

    def test_single(self):
        r = RegionList.single(10, 5)
        assert r.count == 1
        assert r.total_bytes == 5
        assert r.extent == (10, 15)

    def test_from_pairs(self):
        r = RegionList.from_pairs([(0, 4), (10, 2)])
        assert list(r) == [(0, 4), (10, 2)]

    def test_from_pairs_empty(self):
        assert RegionList.from_pairs([]).count == 0

    def test_rejects_negative_offset(self):
        with pytest.raises(RegionError):
            RegionList([-1], [4])

    def test_rejects_negative_length(self):
        with pytest.raises(RegionError):
            RegionList([0], [-4])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(RegionError):
            RegionList([0, 1], [4])

    def test_rejects_2d(self):
        with pytest.raises(RegionError):
            RegionList([[0, 1]], [[4, 4]])

    def test_contiguous_constructor(self):
        r = RegionList.contiguous(100, 10, 4)
        assert list(r) == [(100, 4), (104, 4), (108, 2)]
        assert r.total_bytes == 10

    def test_contiguous_zero_total(self):
        assert RegionList.contiguous(0, 0, 4).count == 0

    def test_contiguous_bad_piece(self):
        with pytest.raises(RegionError):
            RegionList.contiguous(0, 10, 0)

    def test_strided_constructor(self):
        r = RegionList.strided(start=5, count=3, length=2, stride=10)
        assert list(r) == [(5, 2), (15, 2), (25, 2)]

    def test_arrays_are_readonly(self):
        r = RegionList([0], [4])
        with pytest.raises(ValueError):
            r.offsets[0] = 7


class TestProperties:
    def test_extent_ignores_empty_regions(self):
        r = RegionList([100, 5, 50], [0, 10, 5])
        assert r.extent == (5, 55)

    def test_is_sorted(self):
        assert RegionList([0, 5, 9], [1, 1, 1]).is_sorted()
        assert not RegionList([5, 0], [1, 1]).is_sorted()
        assert RegionList.empty().is_sorted()

    def test_is_disjoint(self):
        assert RegionList([0, 10], [5, 5]).is_disjoint()
        assert RegionList([0, 5], [5, 5]).is_disjoint()  # adjacency is fine
        assert not RegionList([0, 4], [5, 5]).is_disjoint()
        assert RegionList([10, 0], [5, 5]).is_disjoint()  # unsorted input


class TestTransforms:
    def test_sorted(self):
        r = RegionList([9, 0, 5], [1, 2, 3]).sorted()
        assert list(r) == [(0, 2), (5, 3), (9, 1)]

    def test_shift(self):
        r = RegionList([10, 20], [5, 5]).shift(-10)
        assert list(r) == [(0, 5), (10, 5)]
        with pytest.raises(RegionError):
            RegionList([10], [5]).shift(-11)

    def test_coalesced_merges_adjacent(self):
        r = RegionList([0, 4, 10], [4, 4, 2]).coalesced()
        assert list(r) == [(0, 8), (10, 2)]

    def test_coalesced_merges_overlapping(self):
        r = RegionList([0, 2, 20], [5, 10, 1]).coalesced()
        assert list(r) == [(0, 12), (20, 1)]

    def test_coalesced_handles_contained_region(self):
        r = RegionList([0, 2], [100, 5]).coalesced()
        assert list(r) == [(0, 100)]

    def test_coalesced_sorts_and_drops_empty(self):
        r = RegionList([50, 0, 10], [1, 0, 2]).coalesced()
        assert list(r) == [(10, 2), (50, 1)]

    def test_clip(self):
        r = RegionList([0, 10, 20], [5, 5, 5]).clip(3, 22)
        assert list(r) == [(3, 2), (10, 5), (20, 2)]

    def test_clip_drops_outside(self):
        r = RegionList([0, 100], [5, 5]).clip(10, 50)
        assert r.count == 0

    def test_clip_bad_window(self):
        with pytest.raises(RegionError):
            RegionList([0], [5]).clip(10, 5)

    def test_concat_and_take(self):
        r = RegionList([0], [1]).concat(RegionList([10], [2]))
        assert list(r) == [(0, 1), (10, 2)]
        assert list(r.take([1])) == [(10, 2)]


class TestSplitAtBoundaries:
    def test_no_crossing_is_identity(self):
        r = RegionList([0, 16], [8, 8])
        assert r.split_at_boundaries(16) == r

    def test_single_region_crossing_once(self):
        r = RegionList([10], [10]).split_at_boundaries(16)
        assert list(r) == [(10, 6), (16, 4)]

    def test_region_spanning_many_units(self):
        r = RegionList([5], [40]).split_at_boundaries(16)
        assert list(r) == [(5, 11), (16, 16), (32, 13)]

    def test_mixed(self):
        r = RegionList([0, 30], [4, 10]).split_at_boundaries(16)
        assert list(r) == [(0, 4), (30, 2), (32, 8)]

    def test_preserves_total_bytes(self):
        rng = np.random.default_rng(42)
        off = np.sort(rng.integers(0, 10000, 100)) * 3
        ln = rng.integers(1, 200, 100)
        r = RegionList(off, ln)
        s = r.split_at_boundaries(64)
        assert s.total_bytes == r.total_bytes
        # every piece within one unit
        assert ((s.offsets // 64) == ((s.ends - 1) // 64)).all()

    def test_bad_boundary(self):
        with pytest.raises(RegionError):
            RegionList([0], [5]).split_at_boundaries(0)


class TestSubdivide:
    """``subdivide`` left ``RegionList`` with the whole-array ``block_block``;
    it lives on in the reference that ``block_block`` is checked against
    (``tests/patterns_reference.py``), and these tests pin that oracle."""

    def test_exact_pieces(self):
        r = subdivide(RegionList([0, 100], [8, 8]), 4)
        assert list(r) == [(0, 4), (4, 4), (100, 4), (104, 4)]

    def test_short_tail(self):
        r = subdivide(RegionList([10], [10]), 4)
        assert list(r) == [(10, 4), (14, 4), (18, 2)]

    def test_noop_when_pieces_big_enough(self):
        r = RegionList([0, 100], [8, 8])
        assert subdivide(r, 8) == r
        assert subdivide(r, 100) == r

    def test_preserves_bytes_and_coverage(self):
        r = RegionList.strided(3, 20, 57, 100)
        s = subdivide(r, 13)
        assert s.total_bytes == r.total_bytes
        assert s.coalesced() == r.coalesced()

    def test_bad_piece_size(self):
        with pytest.raises(RegionError):
            subdivide(RegionList([0], [8]), 0)

    def test_empty(self):
        assert subdivide(RegionList.empty(), 4).count == 0


class TestChunksOf:
    def test_exact_split(self):
        r = RegionList.contiguous(0, 128, 1)  # 128 one-byte regions
        groups = list(r.chunks_of(64))
        assert len(groups) == 2
        assert all(g.count == 64 for g in groups)

    def test_remainder(self):
        r = RegionList.contiguous(0, 130, 1)
        groups = list(r.chunks_of(64))
        assert [g.count for g in groups] == [64, 64, 2]

    def test_paper_flash_request_count(self):
        # Paper 4.3.1: 80 blocks * 24 variables = 1920 regions -> 30 requests.
        r = RegionList.contiguous(0, 1920 * 4096, 4096)
        assert len(list(r.chunks_of(64))) == 30

    def test_paper_tiled_request_count(self):
        # Paper 4.4.1: 768 file regions -> 768/64 = 12 list I/O requests.
        r = RegionList.contiguous(0, 768 * 100, 100)
        assert len(list(r.chunks_of(64))) == 12

    def test_bad_max(self):
        with pytest.raises(RegionError):
            list(RegionList([0], [5]).chunks_of(0))


class TestByteSlice:
    def test_whole_stream(self):
        r = RegionList([0, 100], [10, 10])
        assert r.byte_slice(0, 20) == r

    def test_inside_one_region(self):
        r = RegionList([100], [50])
        assert list(r.byte_slice(10, 5)) == [(110, 5)]

    def test_across_regions(self):
        r = RegionList([0, 100, 200], [10, 10, 10])
        assert list(r.byte_slice(5, 15)) == [(5, 5), (100, 10)]

    def test_exact_region_boundaries(self):
        r = RegionList([0, 100], [10, 10])
        assert list(r.byte_slice(10, 10)) == [(100, 10)]

    def test_zero_take(self):
        r = RegionList([0], [10])
        assert r.byte_slice(3, 0).count == 0

    def test_out_of_range(self):
        r = RegionList([0], [10])
        with pytest.raises(RegionError):
            r.byte_slice(5, 6)
        with pytest.raises(RegionError):
            r.byte_slice(-1, 2)

    def test_matches_flat_indices(self):
        rng = np.random.default_rng(3)
        r = RegionList(np.arange(20) * 50, rng.integers(1, 30, 20))
        flat = build_flat_indices(r.offsets, r.lengths)
        for skip, take in [(0, 5), (17, 100), (100, 0), (3, int(r.total_bytes) - 3)]:
            s = r.byte_slice(skip, take)
            np.testing.assert_array_equal(
                build_flat_indices(s.offsets, s.lengths), flat[skip : skip + take]
            )


class TestPairPieces:
    def test_identical_lists(self):
        a = RegionList([0, 10], [5, 5])
        ao, bo, ln = pair_pieces(a, a)
        assert ln.sum() == 10
        np.testing.assert_array_equal(ao, bo)

    def test_contig_memory_noncontig_file(self):
        mem = RegionList.single(0, 6)
        fil = RegionList([10, 20, 30], [2, 2, 2])
        ao, bo, ln = pair_pieces(mem, fil)
        assert list(ao) == [0, 2, 4]
        assert list(bo) == [10, 20, 30]
        assert list(ln) == [2, 2, 2]

    def test_misaligned_boundaries(self):
        a = RegionList([0, 100], [3, 3])
        b = RegionList([50, 60, 70], [2, 2, 2])
        ao, bo, ln = pair_pieces(a, b)
        assert ln.sum() == 6
        # piece boundaries at union of {3,6} and {2,4,6} -> {2,3,4,6}
        assert list(ln) == [2, 1, 1, 2]
        assert list(ao) == [0, 2, 100, 101]
        assert list(bo) == [50, 60, 61, 70]

    def test_volume_mismatch(self):
        with pytest.raises(RegionError):
            pair_pieces(RegionList([0], [5]), RegionList([0], [6]))

    def test_empty(self):
        ao, bo, ln = pair_pieces(RegionList.empty(), RegionList.empty())
        assert len(ln) == 0

    def test_roundtrip_copy_semantics(self):
        rng = np.random.default_rng(7)
        # random equal-volume lists
        la = rng.integers(1, 9, 20)
        lb_parts = []
        rem = int(la.sum())
        while rem > 0:
            t = int(rng.integers(1, min(9, rem) + 1))
            lb_parts.append(t)
            rem -= t
        lb = np.array(lb_parts)
        a = RegionList(np.arange(20) * 10, la)
        b = RegionList(np.arange(len(lb)) * 12, lb)
        ao, bo, ln = pair_pieces(a, b)
        src = rng.integers(0, 256, 1000).astype(np.uint8)
        via_pieces = np.zeros(1000, np.uint8)
        for x, y, n in zip(ao, bo, ln):
            via_pieces[y : y + n] = src[x : x + n]
        # reference: flatten both byte streams
        ia = build_flat_indices(a.offsets, a.lengths)
        ib = build_flat_indices(b.offsets, b.lengths)
        ref = np.zeros(1000, np.uint8)
        ref[ib] = src[ia]
        np.testing.assert_array_equal(via_pieces, ref)


class TestBuildFlatIndices:
    def test_basic(self):
        idx = build_flat_indices(np.array([5, 20]), np.array([3, 2]))
        assert list(idx) == [5, 6, 7, 20, 21]

    def test_skips_empty(self):
        idx = build_flat_indices(np.array([5, 9, 20]), np.array([2, 0, 1]))
        assert list(idx) == [5, 6, 20]

    def test_all_empty(self):
        assert build_flat_indices(np.array([1]), np.array([0])).size == 0

    def test_gather_scatter_roundtrip(self):
        buf = np.arange(100, dtype=np.uint8)
        idx = build_flat_indices(np.array([10, 50]), np.array([4, 4]))
        gathered = buf[idx]
        out = np.zeros(100, np.uint8)
        out[idx] = gathered
        np.testing.assert_array_equal(out[10:14], buf[10:14])
        np.testing.assert_array_equal(out[50:54], buf[50:54])
        assert out[:10].sum() == 0


class TestDunder:
    def test_eq_and_hash(self):
        a = RegionList([0, 5], [2, 2])
        b = RegionList([0, 5], [2, 2])
        c = RegionList([0, 5], [2, 3])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert a != "nope"

    def test_len_iter(self):
        r = RegionList([0, 5], [2, 2])
        assert len(r) == 2
        assert list(iter(r)) == [(0, 2), (5, 2)]

    def test_repr_small_and_large(self):
        small = repr(RegionList([0], [4]))
        assert "1 regions" in small
        big = repr(RegionList.contiguous(0, 100, 1))
        assert "..." in big


class TestRunCopies:
    def test_unequal_shapes_are_rejected(self):
        buf = np.zeros(16, np.uint8)
        with pytest.raises(RegionError):
            gather_runs(buf, [0, 4], [2])
        with pytest.raises(RegionError):
            scatter_runs(buf, [0], [2, 2], np.zeros(4, np.uint8))
