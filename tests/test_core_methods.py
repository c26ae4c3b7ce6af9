"""Tests for the access methods (repro.core): correctness and accounting."""

import numpy as np
import pytest

from repro.config import ClusterConfig, StripeParams
from repro.core import (
    DataSievingIO,
    HybridIO,
    ListIO,
    MultipleIO,
    VectorIO,
    pvfs_read_list,
    pvfs_write_list,
)
from repro.errors import RegionError
from repro.mpi import Communicator
from repro.pvfs import Cluster
from repro.regions import RegionList, build_flat_indices


def make_cluster(**kw) -> Cluster:
    kw.setdefault("n_clients", 2)
    kw.setdefault("n_iods", 4)
    kw.setdefault("stripe", StripeParams(stripe_size=128))
    return Cluster.build(ClusterConfig(**kw))


def run_write_then_read(method_w, method_r, mem_regions, file_regions, seed=3):
    """Write a pattern with one method instance, read back with another;
    returns (written buffer, read-back buffer)."""
    cluster = make_cluster()
    rng = np.random.default_rng(seed)
    buf_size = mem_regions.extent[1] + 8
    src = rng.integers(0, 256, buf_size).astype(np.uint8)
    dst = np.zeros(buf_size, np.uint8)

    def writer(client):
        f = yield from client.open("/x", create=True)
        yield from method_w.write(f, src, mem_regions, file_regions)
        yield from f.close()

    cluster.run_workload(writer, clients=[0])

    def reader(client):
        f = yield from client.open("/x")
        yield from method_r.read(f, dst, mem_regions, file_regions)
        yield from f.close()

    cluster.run_workload(reader, clients=[1])
    return src, dst


def random_pattern(seed=11, n=25):
    """A random disjoint, sorted file pattern with a noncontiguous memory
    side of equal volume."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 60, n)
    gaps = rng.integers(0, 80, n)
    file_off = np.cumsum(gaps + np.concatenate(([0], lengths[:-1]))).astype(np.int64)
    file_regions = RegionList(file_off, lengths)
    # memory: same lengths, strided layout
    mem_off = np.arange(n, dtype=np.int64) * 70
    mem_regions = RegionList(mem_off, lengths)
    assert mem_regions.total_bytes == file_regions.total_bytes
    return mem_regions, file_regions


def strided_pattern(n=25):
    """A regular file pattern (constant length and stride, the only kind
    :class:`VectorIO` takes) with a noncontiguous memory side."""
    file_regions = RegionList.strided(start=13, count=n, length=24, stride=61)
    mem_regions = RegionList.strided(start=0, count=n, length=24, stride=70)
    return mem_regions, file_regions


ALL_METHODS = [MultipleIO(), DataSievingIO(), ListIO(), HybridIO(), VectorIO()]


class TestCrossMethodEquivalence:
    """Every method must realize the exact same transfer semantics."""

    @pytest.mark.parametrize("writer", ALL_METHODS, ids=lambda m: m.name)
    @pytest.mark.parametrize("reader", ALL_METHODS, ids=lambda m: m.name)
    def test_write_with_one_read_with_another(self, writer, reader):
        vector = "vector" in (writer.name, reader.name)
        mem, fil = strided_pattern() if vector else random_pattern()
        src, dst = run_write_then_read(writer, reader, mem, fil)
        idx = build_flat_indices(mem.offsets, mem.lengths)
        np.testing.assert_array_equal(dst[idx], src[idx])

    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.name)
    def test_strided_vector_pattern(self, method):
        mem = RegionList.single(0, 40 * 16)
        fil = RegionList.strided(start=64, count=40, length=16, stride=200)
        src, dst = run_write_then_read(method, method, mem, fil)
        np.testing.assert_array_equal(dst[: 40 * 16], src[: 40 * 16])


class TestVolumeValidation:
    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.name)
    def test_mismatched_volumes_rejected(self, method):
        cluster = make_cluster()

        def wl(client):
            f = yield from client.open("/v", create=True)
            try:
                yield from method.read(
                    f, np.zeros(100, np.uint8), RegionList.single(0, 10), RegionList.single(0, 20)
                )
            except RegionError:
                return "rejected"

        res = cluster.run_workload(wl, clients=[0])
        assert res.client_returns == ["rejected"]

    def test_memory_overrun_rejected(self):
        cluster = make_cluster()

        def wl(client):
            f = yield from client.open("/o", create=True)
            try:
                yield from ListIO().read(
                    f, np.zeros(5, np.uint8), RegionList.single(0, 10), RegionList.single(0, 10)
                )
            except RegionError:
                return "rejected"

        res = cluster.run_workload(wl, clients=[0])
        assert res.client_returns == ["rejected"]


class TestRequestAccounting:
    def count_requests(self, method, mem, fil, kind="read"):
        cluster = make_cluster()

        def wl(client):
            f = yield from client.open("/r", create=True)
            if kind == "read":
                yield from method.read(f, None, mem, fil)
            else:
                yield from method.write(
                    f, np.zeros(mem.extent[1] + 1, np.uint8), mem, fil
                )
            yield from f.close()

        res = cluster.run_workload(wl, clients=[0])
        return int(res.counters["client.0.logical_requests"])

    def test_multiple_is_one_request_per_piece(self):
        mem = RegionList.single(0, 100 * 4)
        fil = RegionList.strided(0, 100, 4, 50)
        assert self.count_requests(MultipleIO(), mem, fil) == 100
        assert MultipleIO.request_count(mem, fil) == 100

    def test_list_is_ceil_over_cap(self):
        mem = RegionList.single(0, 100 * 4)
        fil = RegionList.strided(0, 100, 4, 50)
        assert self.count_requests(ListIO(), mem, fil) == 2  # ceil(100/64)
        assert ListIO.request_count(fil) == 2

    def test_vector_is_single_request(self):
        mem = RegionList.single(0, 100 * 4)
        fil = RegionList.strided(0, 100, 4, 50)
        assert self.count_requests(VectorIO(), mem, fil) == 1

    def test_sieving_requests_depend_on_extent_not_count(self):
        mem_a = RegionList.single(0, 10 * 4)
        fil_a = RegionList.strided(0, 10, 4, 100)
        mem_b = RegionList.single(0, 100 * 4)
        fil_b = RegionList.strided(0, 100, 4, 10)
        # Similar extents (~1000 B) -> same request count despite 10x regions.
        assert self.count_requests(DataSievingIO(), mem_a, fil_a) == self.count_requests(
            DataSievingIO(), mem_b, fil_b
        )

    def test_sieving_splits_by_buffer_size(self):
        mem = RegionList.single(0, 64)
        fil = RegionList.strided(0, 8, 8, 1000)  # extent 7008 B
        n_big = self.count_requests(DataSievingIO(buffer_size=8192), mem, fil)
        n_small = self.count_requests(DataSievingIO(buffer_size=1024), mem, fil)
        assert n_big == 1
        assert n_small == 7

    def test_multiple_counts_max_fragmentation_of_both_sides(self):
        # 2 file regions x mismatched memory cuts -> pieces = union of cuts.
        mem = RegionList([0, 100, 200], [30, 30, 20])
        fil = RegionList([0, 500], [40, 40])
        assert MultipleIO.request_count(mem, fil) == 4

    def test_paper_request_count_formulas(self):
        # FLASH (Section 4.3.1): 1920 file regions -> 30 list requests.
        flash_regions = RegionList.contiguous(0, 1920 * 4096, 4096)
        assert ListIO.request_count(flash_regions, 64) == 30
        # Tiled visualization (Section 4.4.1): 768 regions -> 12 requests.
        tiled = RegionList.contiguous(0, 768 * 1024, 1024)
        assert ListIO.request_count(tiled, 64) == 12


class TestDataSieving:
    def test_requires_sorted_file_regions(self):
        cluster = make_cluster()

        def wl(client):
            f = yield from client.open("/s", create=True)
            try:
                yield from DataSievingIO().read(
                    f, np.zeros(20, np.uint8), RegionList.single(0, 20), RegionList([100, 0], [10, 10])
                )
            except RegionError:
                return "sorted required"

        res = cluster.run_workload(wl, clients=[0])
        assert res.client_returns == ["sorted required"]

    def test_write_requires_disjoint(self):
        cluster = make_cluster()

        def wl(client):
            f = yield from client.open("/d", create=True)
            try:
                yield from DataSievingIO().write(
                    f, np.zeros(20, np.uint8), RegionList.single(0, 20), RegionList([0, 5], [10, 10])
                )
            except RegionError:
                return "disjoint required"

        res = cluster.run_workload(wl, clients=[0])
        assert res.client_returns == ["disjoint required"]

    @pytest.mark.parametrize("buffer_size", [None, 64, 7])
    def test_nested_regions_read_like_multiple_io(self, buffer_size):
        # Sorted but overlapping: the second region lies inside the first,
        # so the sieve window must reach the first region's end.
        cluster = make_cluster()
        data = np.arange(200, dtype=np.uint8)
        fil = RegionList([0, 10], [100, 10])
        mem = RegionList.single(0, 110)

        def wl(client):
            f = yield from client.open("/n", create=True)
            yield from f.write(0, data)
            out = []
            for method in (MultipleIO(), DataSievingIO(buffer_size)):
                buf = np.zeros(110, np.uint8)
                yield from method.read(f, buf, mem, fil)
                out.append(buf)
            yield from f.close()
            return out

        multiple, sieve = cluster.run_workload(wl, clients=[0]).client_returns[0]
        np.testing.assert_array_equal(multiple, np.concatenate((data[:100], data[10:20])))
        np.testing.assert_array_equal(sieve, multiple)

    def test_wasted_bytes_accounted(self):
        cluster = make_cluster()
        fil = RegionList.strided(0, 4, 10, 100)  # 40 useful of 310 extent
        mem = RegionList.single(0, 40)

        def wl(client):
            f = yield from client.open("/w", create=True)
            yield from DataSievingIO().read(f, None, mem, fil)
            yield from f.close()

        res = cluster.run_workload(wl, clients=[0])
        assert res.counters["client.0.sieve_fetched_bytes"] == 310
        assert res.counters["client.0.sieve_wasted_bytes"] == 270

    def test_rmw_write_preserves_gap_bytes(self):
        cluster = make_cluster()
        marker = np.full(400, 5, np.uint8)

        def prefill(client):
            f = yield from client.open("/rmw", create=True)
            yield from f.write(0, marker)
            yield from f.close()

        cluster.run_workload(prefill, clients=[0])
        fil = RegionList.strided(0, 4, 10, 100)
        mem = RegionList.single(0, 40)

        def sieve_write(client):
            f = yield from client.open("/rmw")
            yield from DataSievingIO().write(f, np.full(40, 9, np.uint8), mem, fil)
            yield from f.close()

        cluster.run_workload(sieve_write, clients=[1])

        def check(client):
            f = yield from client.open("/rmw")
            data = yield from f.read(0, 400)
            yield from f.close()
            return data

        data = cluster.run_workload(check, clients=[0]).client_returns[0]
        for i in range(4):
            assert (data[i * 100 : i * 100 + 10] == 9).all()
            assert (data[i * 100 + 10 : (i + 1) * 100] == 5).all()

    def test_serialized_write_many_clients(self):
        cluster = make_cluster(n_clients=3)
        comm = Communicator(cluster.sim, 3)
        # interleaved disjoint patterns, one per rank
        patterns = [RegionList.strided(r * 20, 5, 20, 60) for r in range(3)]

        def wl(client):
            rank = client.index
            f = yield from client.open("/par", create=True)
            fill = np.full(100, rank + 1, np.uint8)
            yield from DataSievingIO().serialized_write(
                comm, rank, f, fill, RegionList.single(0, 100), patterns[rank]
            )
            yield from f.close()

        cluster.run_workload(wl)

        def check(client):
            f = yield from client.open("/par")
            data = yield from f.read(0, 60 * 5)
            yield from f.close()
            return data

        data = cluster.run_workload(check, clients=[0]).client_returns[0]
        for r in range(3):
            idx = build_flat_indices(patterns[r].offsets, patterns[r].lengths)
            assert (data[idx] == r + 1).all()


class TestHybrid:
    def test_cluster_extents(self):
        from repro.core import cluster_extents

        r = RegionList([0, 15, 100], [10, 10, 10])
        assert list(cluster_extents(r, 5)) == [(0, 25), (100, 10)]
        assert list(cluster_extents(r, 0)) == [(0, 10), (15, 10), (100, 10)]
        assert list(cluster_extents(r, 1000)) == [(0, 110)]

    def test_zero_threshold_behaves_like_list(self):
        mem, fil = random_pattern(seed=5)
        src, dst = run_write_then_read(HybridIO(gap_threshold=0), ListIO(), mem, fil)
        idx = build_flat_indices(mem.offsets, mem.lengths)
        np.testing.assert_array_equal(dst[idx], src[idx])

    def test_dense_pattern_issues_fewer_requests(self):
        fil = RegionList.strided(0, 200, 4, 8)  # tiny gaps
        mem = RegionList.single(0, 800)
        cluster = make_cluster()

        def wl_list(client):
            f = yield from client.open("/h1", create=True)
            yield from ListIO().read(f, None, mem, fil)

        n_list = int(
            cluster.run_workload(wl_list, clients=[0]).counters["client.0.logical_requests"]
        )
        cluster2 = make_cluster()

        def wl_hybrid(client):
            f = yield from client.open("/h2", create=True)
            yield from HybridIO(gap_threshold=16).read(f, None, mem, fil)

        n_hybrid = int(
            cluster2.run_workload(wl_hybrid, clients=[0]).counters["client.0.logical_requests"]
        )
        assert n_list == 4  # ceil(200/64)
        assert n_hybrid == 1  # everything clusters into one extent

    def test_hybrid_wasted_accounting(self):
        fil = RegionList([0, 8], [4, 4])  # 4-byte gap clusters at threshold 8
        mem = RegionList.single(0, 8)
        cluster = make_cluster()

        def wl(client):
            f = yield from client.open("/hw", create=True)
            yield from HybridIO(gap_threshold=8).read(f, None, mem, fil)

        res = cluster.run_workload(wl, clients=[0])
        assert res.counters["client.0.hybrid_fetched_bytes"] == 12
        assert res.counters["client.0.hybrid_wasted_bytes"] == 4

    def test_bad_threshold(self):
        with pytest.raises(RegionError):
            HybridIO(gap_threshold=-1)


class TestVectorIO:
    def test_rejects_irregular_without_fallback(self):
        cluster = make_cluster()
        fil = RegionList([0, 10, 35], [5, 5, 5])
        mem = RegionList.single(0, 15)

        def wl(client):
            f = yield from client.open("/vec", create=True)
            try:
                yield from VectorIO().read(f, None, mem, fil)
            except RegionError:
                return "irregular"

        res = cluster.run_workload(wl, clients=[0])
        assert res.client_returns == ["irregular"]

    def test_as_vector_recognition(self):
        from repro.core import as_vector

        assert as_vector(RegionList.strided(7, 5, 3, 10)) == (7, 5, 3, 10)
        assert as_vector(RegionList.single(7, 3)) == (7, 1, 3, 3)
        assert as_vector(RegionList([0, 10], [5, 6])) is None  # ragged lengths
        assert as_vector(RegionList([0, 10, 30], [5, 5, 5])) is None  # ragged stride
        assert as_vector(RegionList.empty()) is None

    def test_vector_wire_cost_below_list(self):
        """A vector request must put fewer bytes on the wire than the
        equivalent list requests (that is its whole point)."""
        fil = RegionList.strided(0, 256, 8, 64)
        mem = RegionList.single(0, 256 * 8)

        def run(method):
            cluster = make_cluster()

            def wl(client):
                f = yield from client.open("/w", create=True)
                yield from method.read(f, None, mem, fil)

            res = cluster.run_workload(wl, clients=[0])
            return res.counters["net.payload_bytes"]

        assert run(VectorIO()) < run(ListIO())


class TestPaperAPI:
    def test_pvfs_read_write_list_roundtrip(self):
        cluster = make_cluster()
        src = np.arange(100, dtype=np.uint8)
        dst = np.zeros(100, np.uint8)

        def wl(client):
            f = yield from client.open("/api", create=True)
            yield from pvfs_write_list(
                f, src, [0, 50], [20, 20], [100, 300], [20, 20]
            )
            yield from pvfs_read_list(
                f, dst, [0, 50], [20, 20], [100, 300], [20, 20]
            )
            yield from f.close()

        cluster.run_workload(wl, clients=[0])
        np.testing.assert_array_equal(dst[0:20], src[0:20])
        np.testing.assert_array_equal(dst[50:70], src[50:70])
        assert dst[20:50].sum() == 0
