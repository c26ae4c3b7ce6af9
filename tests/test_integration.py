"""Integration tests: whole-stack scenarios across modules."""

import numpy as np

from repro.config import ClusterConfig, StripeParams
from repro.core import DataSievingIO, ListIO, MultipleIO, VectorIO
from repro.mpi import Communicator
from repro.patterns import FlashConfig, flash_io, one_dim_cyclic, tiled_visualization
from repro.pvfs import Cluster
from repro.regions import RegionList, build_flat_indices
from repro.units import KiB


def cluster_(**kw) -> Cluster:
    kw.setdefault("n_clients", 4)
    kw.setdefault("n_iods", 4)
    kw.setdefault("stripe", StripeParams(stripe_size=256))
    return Cluster.build(ClusterConfig(**kw))


class TestDeterminism:
    def test_identical_runs_produce_identical_times(self):
        def run():
            cluster = cluster_()

            def wl(client):
                f = yield from client.open(f"/d{client.index}", create=True)
                yield from f.write(0, np.zeros(10_000, np.uint8))
                yield from f.read(0, 10_000)
                yield from f.close()
                return float(client.sim.now)

            return cluster.run_workload(wl).elapsed

        assert run() == run()

    def test_counters_consistent_with_daemon_state(self):
        cluster = cluster_()

        def wl(client):
            f = yield from client.open("/c", create=True)
            yield from f.write_list(
                RegionList.strided(client.index * 64, 10, 8, 1024),
                np.zeros(80, np.uint8),
            )
            yield from f.close()

        res = cluster.run_workload(wl)
        served = sum(iod.requests_served for iod in cluster.iods)
        assert served == res.total_server_messages


class TestConcurrentClients:
    def test_parallel_writers_to_disjoint_regions(self):
        cluster = cluster_()
        n = cluster.config.n_clients

        def wl(client):
            regions = RegionList.strided(client.index * 100, 20, 100, 100 * n)
            payload = np.full(2000, client.index + 1, np.uint8)
            f = yield from client.open("/par", create=True)
            yield from f.write_list(regions, payload)
            yield from f.close()

        cluster.run_workload(wl)

        def check(client):
            f = yield from client.open("/par")
            data = yield from f.read(0, 100 * n * 20)
            yield from f.close()
            return data

        data = cluster.run_workload(check, clients=[0]).client_returns[0]
        for c in range(n):
            idx = build_flat_indices(
                RegionList.strided(c * 100, 20, 100, 100 * n).offsets,
                np.full(20, 100, np.int64),
            )
            assert (data[idx] == c + 1).all()

    def test_mixed_methods_interoperate(self):
        """A file written with list I/O must read identically through every
        other method, concurrently."""
        cluster = cluster_()
        total = 6400
        payload = (np.arange(total) % 199).astype(np.uint8)
        regions = RegionList.strided(0, 64, 100, 100)

        def writer(client):
            f = yield from client.open("/mix", create=True)
            yield from ListIO().write(
                f, payload, RegionList.single(0, total), regions
            )
            yield from f.close()

        cluster.run_workload(writer, clients=[0])
        methods = [MultipleIO(), DataSievingIO(), ListIO(), VectorIO()]
        bufs = [np.zeros(total, np.uint8) for _ in methods]

        def reader(client):
            f = yield from client.open("/mix")
            yield from methods[client.index].read(
                f, bufs[client.index], RegionList.single(0, total), regions
            )
            yield from f.close()

        cluster.run_workload(reader)
        for method, buf in zip(methods, bufs):
            np.testing.assert_array_equal(buf, payload, err_msg=method.name)


class TestFlashEndToEnd:
    def test_checkpoint_bytes_land_in_variable_major_order(self):
        mesh = FlashConfig(n_blocks=2, nxb=2, nyb=2, nzb=2, n_vars=2, n_guard=1)
        pattern = flash_io(2, mesh)
        cluster = cluster_(n_clients=2)
        # each proc fills its padded blocks with (rank+1)
        buf_size = pattern.rank(0).mem_regions.extent[1]

        def wl(client):
            access = pattern.rank(client.index)
            memory = np.full(buf_size, client.index + 1, np.uint8)
            f = yield from client.open("/flash", create=True)
            yield from ListIO().write(
                f, memory, access.mem_regions, access.file_regions
            )
            yield from f.close()

        cluster.run_workload(wl)

        def check(client):
            f = yield from client.open("/flash")
            data = yield from f.read(0, pattern.file_size)
            yield from f.close()
            return data

        data = cluster.run_workload(check, clients=[0]).client_returns[0]
        chunk = mesh.chunk_bytes
        # offset(v, b, p): proc p's chunks hold value p+1
        for vb in range(mesh.n_vars * mesh.n_blocks):
            for p in range(2):
                lo = (vb * 2 + p) * chunk
                assert (data[lo : lo + chunk] == p + 1).all()

    def test_sieving_checkpoint_equivalent_to_list(self):
        mesh = FlashConfig(n_blocks=2, nxb=2, nyb=2, nzb=2, n_vars=3, n_guard=1)
        pattern = flash_io(2, mesh)

        def run(method, serialize):
            cluster = cluster_(n_clients=2)
            comm = Communicator(cluster.sim, 2)
            buf_size = pattern.rank(0).mem_regions.extent[1]

            def wl(client):
                access = pattern.rank(client.index)
                rng = np.random.default_rng(client.index)
                memory = rng.integers(0, 256, buf_size).astype(np.uint8)
                f = yield from client.open("/f", create=True)
                if serialize:
                    yield from method.serialized_write(
                        comm, client.index, f, memory,
                        access.mem_regions, access.file_regions,
                    )
                else:
                    yield from method.write(
                        f, memory, access.mem_regions, access.file_regions
                    )
                yield from f.close()

            cluster.run_workload(wl)

            def check(client):
                f = yield from client.open("/f")
                data = yield from f.read(0, pattern.file_size)
                yield from f.close()
                return data

            return cluster.run_workload(check, clients=[0]).client_returns[0]

        np.testing.assert_array_equal(
            run(ListIO(), False), run(DataSievingIO(), True)
        )


class TestTiledEndToEnd:
    def test_overlapping_tiles_read_shared_pixels(self):
        from repro.patterns import TiledConfig

        geometry = TiledConfig(
            tiles_x=2, tiles_y=1, tile_width=8, tile_height=4,
            overlap_x=2, overlap_y=0, bytes_per_pixel=1,
        )
        pattern = tiled_visualization(geometry)
        cluster = cluster_(n_clients=2)
        frame = (np.arange(geometry.file_size) % 251).astype(np.uint8)

        def prefill(client):
            f = yield from client.open("/frame", create=True)
            yield from f.write(0, frame)
            yield from f.close()

        cluster.run_workload(prefill, clients=[0])
        tiles = [np.zeros(pattern.rank(r).nbytes, np.uint8) for r in range(2)]

        def reader(client):
            access = pattern.rank(client.index)
            f = yield from client.open("/frame")
            yield from ListIO().read(
                f, tiles[client.index], access.mem_regions, access.file_regions
            )
            yield from f.close()

        cluster.run_workload(reader)
        # tile 0 cols 0..8, tile 1 cols 6..14 -> shared cols 6..8
        width = geometry.frame_width
        for row in range(4):
            t0_row = tiles[0][row * 8 : row * 8 + 8]
            t1_row = tiles[1][row * 8 : row * 8 + 8]
            np.testing.assert_array_equal(t0_row, frame[row * width : row * width + 8])
            np.testing.assert_array_equal(
                t0_row[6:8], t1_row[0:2]
            )  # the overlap pixels agree


class TestDescribedRequests:
    def test_described_read_matches_list_read(self):
        cluster = cluster_(n_clients=1)
        regions = RegionList.strided(0, 100, 8, 64)
        payload = (np.arange(800) % 250).astype(np.uint8)

        def wl(client):
            f = yield from client.open("/v", create=True)
            yield from f.write_list(regions, payload)
            via_list = yield from f.read_list(regions)
            via_vec = yield from f.read_list(regions, descriptor_slots=2)
            yield from f.close()
            return via_list, via_vec

        res = cluster.run_workload(wl, clients=[0])
        via_list, via_vec = res.client_returns[0]
        np.testing.assert_array_equal(via_list, via_vec)

    def test_described_request_counts_as_one(self):
        cluster = cluster_(n_clients=1)
        regions = RegionList.strided(0, 1000, 8, 64)

        def wl(client):
            f = yield from client.open("/v1", create=True)
            yield from f.read_list(regions, descriptor_slots=2)
            yield from f.read_list(RegionList.empty(), descriptor_slots=2)  # no request
            yield from f.close()

        cluster.run_workload(wl, clients=[0])
        assert cluster.counters["client.0.logical_requests"] == 1

    def test_described_write_roundtrip(self):
        cluster = cluster_(n_clients=1)
        regions = RegionList.strided(16, 50, 4, 40)
        payload = np.arange(200, dtype=np.uint8)

        def wl(client):
            f = yield from client.open("/v2", create=True)
            yield from f.write_list(regions, payload, descriptor_slots=2)
            got = yield from f.read_list(regions)
            yield from f.close()
            return got

        res = cluster.run_workload(wl, clients=[0])
        np.testing.assert_array_equal(res.client_returns[0], payload)


class TestScalingBehaviour:
    def test_more_servers_speed_up_bulk_reads(self):
        def run(n_iods):
            cluster = Cluster.build(
                ClusterConfig(n_clients=2, n_iods=n_iods, stripe=StripeParams(stripe_size=16 * KiB)),
                move_bytes=False,
            )

            def wl(client):
                f = yield from client.open("/bulk", create=True)
                yield from f.write(0, None, length=4_000_000)
                yield from f.close()

            return cluster.run_workload(wl).elapsed

        assert run(8) < run(1)

    def test_request_counts_scale_with_fragmentation_not_volume(self):
        pattern_coarse = one_dim_cyclic(1 << 20, 4, 128)
        pattern_fine = one_dim_cyclic(1 << 20, 4, 1024)

        def count(pattern):
            cluster = Cluster.build(
                ClusterConfig(n_clients=4), move_bytes=False
            )

            def wl(client):
                a = pattern.rank(client.index)
                f = yield from client.open("/r", create=True)
                yield from ListIO().read(f, None, a.mem_regions, a.file_regions)
                yield from f.close()

            return cluster.run_workload(wl).total_logical_requests

        assert count(pattern_fine) == 8 * count(pattern_coarse)
