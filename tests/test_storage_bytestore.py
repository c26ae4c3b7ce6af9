"""Tests for ByteStore."""

import numpy as np
import pytest

from repro.config import ClusterConfig
from repro.errors import StorageError
from repro.pvfs import Cluster
from repro.regions import RegionList
from repro.storage import ByteStore


class TestByteStore:
    def test_roundtrip_single_region(self):
        store = ByteStore()
        data = np.arange(100, dtype=np.uint8)
        store.write("f", RegionList.single(1000, 100), data)
        out = store.read("f", RegionList.single(1000, 100))
        np.testing.assert_array_equal(out, data)

    def test_holes_read_as_zero(self):
        store = ByteStore()
        store.write("f", RegionList.single(10, 4), np.full(4, 7, np.uint8))
        out = store.read("f", RegionList.single(0, 20))
        assert out[:10].sum() == 0
        assert (out[10:14] == 7).all()
        assert out[14:].sum() == 0

    def test_unknown_file_reads_zeros(self):
        store = ByteStore()
        out = store.read("ghost", RegionList.single(0, 8))
        assert (out == 0).all()

    def test_write_crossing_chunk_boundary(self):
        store = ByteStore(chunk_size=16)
        data = np.arange(40, dtype=np.uint8)
        store.write("f", RegionList.single(10, 40), data)
        out = store.read("f", RegionList.single(10, 40))
        np.testing.assert_array_equal(out, data)

    def test_multi_region_order_is_stream_order(self):
        store = ByteStore(chunk_size=16)
        regions = RegionList([30, 0], [2, 2])  # intentionally unsorted
        store.write("f", regions, np.array([1, 2, 3, 4], np.uint8))
        assert list(store.read("f", RegionList.single(30, 2))) == [1, 2]
        assert list(store.read("f", RegionList.single(0, 2))) == [3, 4]

    def test_read_multi_region_concatenates(self):
        store = ByteStore()
        store.write("f", RegionList.single(0, 6), np.arange(6, dtype=np.uint8))
        out = store.read("f", RegionList([4, 0], [2, 2]))
        assert list(out) == [4, 5, 0, 1]

    def test_size_mismatch_rejected(self):
        store = ByteStore()
        with pytest.raises(StorageError):
            store.write("f", RegionList.single(0, 4), np.zeros(3, np.uint8))

    def test_overwrite(self):
        store = ByteStore()
        store.write("f", RegionList.single(0, 4), np.full(4, 1, np.uint8))
        store.write("f", RegionList.single(2, 4), np.full(4, 9, np.uint8))
        assert list(store.read("f", RegionList.single(0, 6))) == [1, 1, 9, 9, 9, 9]

    def test_zero_length_regions_ignored(self):
        store = ByteStore()
        store.write("f", RegionList([0, 5], [0, 2]), np.array([3, 4], np.uint8))
        assert list(store.read("f", RegionList.single(5, 2))) == [3, 4]

    def test_counters(self):
        # A daemon's counters record the bytes its store writes and reads.
        cluster = Cluster.build(ClusterConfig(n_clients=1, n_iods=1))

        def wl(client):
            f = yield from client.open("/f", create=True)
            yield from f.write(0, np.ones(4, np.uint8))
            back = yield from f.read(0, 2)
            yield from f.close()
            return back

        res = cluster.run_workload(wl)
        np.testing.assert_array_equal(res.client_returns[0], np.ones(2, np.uint8))
        assert cluster.counters["iod.0.write_bytes"] == 4
        assert cluster.counters["iod.0.read_bytes"] == 2

    def test_sparse_allocation(self):
        store = ByteStore(chunk_size=1024)
        store.write("f", RegionList.single(10 * 1024 * 1024, 8), np.ones(8, np.uint8))
        assert store.allocated_bytes("f") == 1024  # one chunk, not 10 MB

    def test_bad_chunk_size(self):
        with pytest.raises(StorageError):
            ByteStore(chunk_size=0)
