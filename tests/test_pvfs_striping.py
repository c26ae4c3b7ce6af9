"""Tests for PVFS striping (repro.pvfs.striping)."""

import numpy as np

from repro.config import StripeParams
from repro.regions import RegionList, build_flat_indices
from repro.pvfs.striping import map_regions


def by_server(slices):
    return {sl.server: sl for sl in slices}


class TestServerForOffset:
    """Which server stores a byte: the one slice a 1-byte request maps to."""

    @staticmethod
    def server(offset, sp, n_iods):
        (sl,) = map_regions(RegionList.single(offset, 1), sp, n_iods)
        return sl.server

    def test_round_robin(self):
        sp = StripeParams(stripe_size=100)
        assert [self.server(o, sp, 4) for o in (0, 100, 200, 300, 400)] == [0, 1, 2, 3, 0]

    def test_within_unit_same_server(self):
        sp = StripeParams(stripe_size=100)
        assert self.server(0, sp, 4) == self.server(99, sp, 4)

    def test_base_shift(self):
        sp = StripeParams(stripe_size=100, base=2)
        assert self.server(0, sp, 4) == 2
        assert self.server(200, sp, 4) == 0  # wraps

    def test_pcount_subset(self):
        sp = StripeParams(stripe_size=100, pcount=2)
        servers = {self.server(o, sp, 8) for o in range(0, 1000, 100)}
        assert servers == {0, 1}


class TestMapRegions:
    def test_empty(self):
        assert map_regions(RegionList.empty(), StripeParams(), 8) == ()

    def test_single_region_one_unit(self):
        sp = StripeParams(stripe_size=100)
        slices = map_regions(RegionList.single(250, 30), sp, 4)
        assert len(slices) == 1
        sl = slices[0]
        assert sl.server == 2
        # third unit maps to physical unit 0 on server 2, offset 50 within it
        assert list(sl.physical) == [(50, 30)]
        assert list(sl.stream_offsets) == [0]

    def test_region_spanning_servers(self):
        sp = StripeParams(stripe_size=100)
        slices = map_regions(RegionList.single(50, 200), sp, 4)
        # bytes 50-99 on srv0, 100-199 on srv1, 200-249 on srv2
        assert [sl.server for sl in slices] == [0, 1, 2]
        s0, s1, s2 = slices
        assert list(s0.physical) == [(50, 50)]
        assert list(s1.physical) == [(0, 100)]
        assert list(s1.stream_offsets) == [50]
        assert list(s2.physical) == [(0, 50)]
        assert list(s2.stream_offsets) == [150]

    def test_physical_offsets_wrap_rounds(self):
        sp = StripeParams(stripe_size=100)
        # unit 4 (offsets 400-499) is server 0's second unit -> phys 100.
        slices = map_regions(RegionList.single(400, 10), sp, 4)
        assert list(by_server(slices)[0].physical) == [(100, 10)]

    def test_total_bytes_preserved(self):
        sp = StripeParams(stripe_size=64)
        r = RegionList.strided(start=3, count=50, length=20, stride=37)
        slices = map_regions(r, sp, 8)
        assert sum(sl.physical.total_bytes for sl in slices) == r.total_bytes

    def test_stream_offsets_partition_the_stream(self):
        sp = StripeParams(stripe_size=64)
        r = RegionList.strided(start=0, count=30, length=50, stride=97)
        slices = map_regions(r, sp, 4)
        covered = np.concatenate(
            [build_flat_indices(sl.stream_offsets, sl.physical.lengths) for sl in slices]
        )
        covered.sort()
        np.testing.assert_array_equal(covered, np.arange(r.total_bytes))

    def test_pcount_and_base(self):
        sp = StripeParams(stripe_size=10, base=1, pcount=2)
        slices = map_regions(RegionList.single(0, 40), sp, 8)
        assert sorted(sl.server for sl in slices) == [1, 2]

    def test_small_regions_far_apart_single_server_each(self):
        sp = StripeParams(stripe_size=16384)
        # paper-style: 149-byte accesses -> each one entirely on one server
        r = RegionList.strided(start=0, count=64, length=149, stride=16384 * 8)
        slices = map_regions(r, sp, 8)
        assert len(slices) == 1  # stride is 8 units -> always server 0
        assert slices[0].physical.count == 64

    def test_iteration_order_and_repr(self):
        sp = StripeParams(stripe_size=10, base=2)
        slices = map_regions(RegionList.single(0, 40), sp, 4)
        assert [sl.server for sl in slices] == [0, 1, 2, 3]  # ascending, not stream order
        slices = map_regions(RegionList.from_pairs([(25, 10), (0, 5)]), sp, 4)
        assert [sl.server for sl in slices] == [0, 1, 2]
