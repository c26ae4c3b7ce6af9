"""End-to-end tests of the simulated PVFS deployment."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.config import ClusterConfig, StripeParams
from repro.errors import ConfigError, NoSuchFileError
from repro.pvfs import Cluster
from repro.regions import RegionList
from repro.units import KiB, MiB


def small_cluster(**kw) -> Cluster:
    kw.setdefault("n_clients", 2)
    kw.setdefault("n_iods", 4)
    kw.setdefault("stripe", StripeParams(stripe_size=100))
    return Cluster.build(ClusterConfig(**kw))


class TestOpenClose:
    def test_open_create_and_close(self):
        cluster = small_cluster()

        def wl(client):
            f = yield from client.open("/a", create=True)
            assert f.file_id > 0
            yield from f.close()
            return f.path

        res = cluster.run_workload(wl, clients=[0])
        assert res.client_returns == ["/a"]
        assert res.elapsed > 0
        assert cluster.counters["manager.op.open"] == 1
        assert cluster.counters["manager.op.close"] == 1

    def test_open_missing_raises_in_client(self):
        cluster = small_cluster()

        def wl(client):
            try:
                yield from client.open("/missing")
            except NoSuchFileError:
                return "no file"

        res = cluster.run_workload(wl, clients=[0])
        assert res.client_returns == ["no file"]

    def test_two_clients_share_a_file(self):
        cluster = small_cluster()

        def writer(client):
            f = yield from client.open("/shared", create=True)
            yield from f.write(0, np.arange(50, dtype=np.uint8))
            yield from f.close()

        cluster.run_workload(writer, clients=[0])

        def reader(client):
            f = yield from client.open("/shared")
            data = yield from f.read(0, 50)
            yield from f.close()
            return data

        res = cluster.run_workload(reader, clients=[1])
        np.testing.assert_array_equal(res.client_returns[0], np.arange(50, dtype=np.uint8))


class TestStripeOverrideAndFsync:
    def test_per_file_stripe_params(self):
        cluster = small_cluster()

        def wl(client):
            f = yield from client.open(
                "/fat", create=True, stripe=StripeParams(stripe_size=50, pcount=2)
            )
            yield from f.write(0, np.ones(200, np.uint8))
            yield from f.close()

        cluster.run_workload(wl, clients=[0])
        # 200 bytes at stripe 50 over pcount=2 -> servers 0 and 1 get 100 each
        written = [cluster.counters[f"iod.{i}.write_bytes"] for i in range(4)]
        assert written == [100, 100, 0, 0]

    def test_stripe_override_validated_against_cluster(self):
        cluster = small_cluster()  # 4 iods

        def wl(client):
            try:
                yield from client.open(
                    "/bad", create=True, stripe=StripeParams(pcount=16)
                )
            except Exception as e:
                return type(e).__name__

        res = cluster.run_workload(wl, clients=[0])
        assert res.client_returns == ["ConfigError"]

    def test_fsync_flushes_dirty_server_pages(self):
        cluster = small_cluster()

        def wl(client):
            f = yield from client.open("/sync", create=True)
            yield from f.write(0, np.ones(100_000, np.uint8))
            t0 = client.sim.now
            yield from f.fsync()
            cost = client.sim.now - t0
            yield from f.close()
            return cost

        res = cluster.run_workload(wl, clients=[0])
        assert res.client_returns[0] > 0
        for iod in cluster.iods:
            assert iod.disk.cache.dirty_blocks == 0

    def test_fsync_on_clean_file_is_cheap(self):
        cluster = small_cluster()

        def wl(client):
            f = yield from client.open("/clean", create=True)
            yield from f.fsync()
            t0 = client.sim.now
            yield from f.fsync()  # second sync: nothing dirty
            cost = client.sim.now - t0
            yield from f.close()
            return cost

        res = cluster.run_workload(wl, clients=[0])
        assert res.client_returns[0] < 0.01  # just request round-trips


class TestContiguousIO:
    def test_write_read_roundtrip_across_stripes(self):
        cluster = small_cluster()
        payload = (np.arange(1000) % 251).astype(np.uint8)

        def wl(client):
            f = yield from client.open("/f", create=True)
            yield from f.write(37, payload)
            got = yield from f.read(37, 1000)
            yield from f.close()
            return got

        res = cluster.run_workload(wl, clients=[0])
        np.testing.assert_array_equal(res.client_returns[0], payload)

    def test_data_actually_striped_across_iods(self):
        cluster = small_cluster()
        payload = np.full(400, 7, np.uint8)

        def wl(client):
            f = yield from client.open("/s", create=True)
            yield from f.write(0, payload)
            yield from f.close()

        cluster.run_workload(wl, clients=[0])
        # 400 bytes over 4 servers at stripe 100 -> 100 bytes on each store.
        for i in range(len(cluster.iods)):
            assert cluster.counters[f"iod.{i}.write_bytes"] == 100

    def test_file_size_tracked(self):
        cluster = small_cluster()

        def wl(client):
            f = yield from client.open("/sz", create=True)
            yield from f.write(500, np.ones(10, np.uint8))
            assert f.size == 510
            yield from f.close()

        cluster.run_workload(wl, clients=[0])
        assert cluster.namespace.lookup("/sz").size == 510

    def test_closed_handle_rejected(self):
        cluster = small_cluster()

        def wl(client):
            f = yield from client.open("/c", create=True)
            yield from f.close()
            try:
                yield from f.read(0, 10)
            except Exception as e:
                return type(e).__name__

        res = cluster.run_workload(wl, clients=[0])
        assert res.client_returns == ["FileNotOpenError"]


class TestListIO:
    def test_noncontiguous_roundtrip(self):
        cluster = small_cluster()
        regions = RegionList.strided(start=10, count=20, length=5, stride=37)
        stream = (np.arange(regions.total_bytes) % 200).astype(np.uint8)

        def wl(client):
            f = yield from client.open("/l", create=True)
            yield from f.write_list(regions, stream)
            got = yield from f.read_list(regions)
            yield from f.close()
            return got

        res = cluster.run_workload(wl, clients=[0])
        np.testing.assert_array_equal(res.client_returns[0], stream)

    def test_list_read_copies_bytes_once(self):
        """A 1 MiB read of 16 regions on one client holds the servers'
        pieces and one request-sized result, never a second full copy."""
        cluster = small_cluster(n_clients=1, stripe=StripeParams())
        regions = RegionList.strided(start=0, count=16, length=64 * KiB, stride=96 * KiB)
        stream = (np.arange(regions.total_bytes) % 251).astype(np.uint8)

        def write(client):
            f = yield from client.open("/once", create=True)
            yield from f.write_list(regions, stream)
            yield from f.close()

        def read(client):
            f = yield from client.open("/once")
            got = yield from f.read_list(regions)
            yield from f.close()
            return got

        cluster.run_workload(write)
        tracemalloc.start()
        try:
            res = cluster.run_workload(read)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(res.client_returns[0], stream)
        assert regions.total_bytes == 1 * MiB
        assert peak < 2.5 * MiB

    def test_request_splitting_at_cap(self):
        cluster = small_cluster(list_io_max_regions=8)
        regions = RegionList.strided(start=0, count=20, length=2, stride=10)

        def wl(client):
            f = yield from client.open("/cap", create=True)
            yield from f.read_list(regions)
            yield from f.close()

        cluster.run_workload(wl, clients=[0])
        # 20 regions / cap 8 -> 3 logical requests.
        assert cluster.counters["client.0.logical_requests"] == 3

    def test_list_write_then_contiguous_read_sees_gaps_as_zeros(self):
        cluster = small_cluster()
        regions = RegionList([0, 20], [5, 5])
        stream = np.full(10, 9, np.uint8)

        def wl(client):
            f = yield from client.open("/g", create=True)
            yield from f.write_list(regions, stream)
            got = yield from f.read(0, 25)
            yield from f.close()
            return got

        res = cluster.run_workload(wl, clients=[0])
        got = res.client_returns[0]
        assert (got[0:5] == 9).all()
        assert (got[5:20] == 0).all()
        assert (got[20:25] == 9).all()

    def test_write_list_size_mismatch_rejected(self):
        cluster = small_cluster()

        def wl(client):
            f = yield from client.open("/m", create=True)
            try:
                yield from f.write_list(RegionList.single(0, 10), np.zeros(5, np.uint8))
            except Exception as e:
                return type(e).__name__

        res = cluster.run_workload(wl, clients=[0])
        assert res.client_returns == ["PVFSError"]

    def test_empty_region_list_is_noop(self):
        cluster = small_cluster()

        def wl(client):
            f = yield from client.open("/e", create=True)
            got = yield from f.read_list(RegionList.empty())
            yield from f.close()
            return got

        res = cluster.run_workload(wl, clients=[0])
        assert res.client_returns[0].size == 0
        assert cluster.counters["client.0.logical_requests"] == 0


class TestNonblockingAPI:
    """An operation started with ``sim.process`` is PVFS's nonblocking
    form (``pvfs_iread``/``pvfs_iwrite``): the process is waitable and its
    value is the read data."""

    def test_iread_iwrite_overlap(self):
        """Two nonblocking writes to different servers overlap in time."""

        def serial(client):
            f = yield from client.open("/nb1", create=True)
            yield from f.write(0, np.zeros(100_000, np.uint8))
            yield from f.write(400_000, np.zeros(100_000, np.uint8))
            yield from f.close()

        def overlapped(client):
            f = yield from client.open("/nb2", create=True)
            a = client.sim.process(f.write(0, np.zeros(100_000, np.uint8)))
            b = client.sim.process(f.write(400_000, np.zeros(100_000, np.uint8)))
            yield client.sim.all_of([a, b])
            yield from f.close()

        t_serial = small_cluster().run_workload(serial, clients=[0]).elapsed
        t_overlap = small_cluster().run_workload(overlapped, clients=[0]).elapsed
        assert t_overlap < t_serial

    def test_iread_returns_data(self):
        cluster = small_cluster()

        def wl(client):
            f = yield from client.open("/nb3", create=True)
            yield from f.write(0, np.arange(64, dtype=np.uint8))
            data = yield client.sim.process(f.read(0, 64))
            yield from f.close()
            return data

        res = cluster.run_workload(wl, clients=[0])
        np.testing.assert_array_equal(res.client_returns[0], np.arange(64, dtype=np.uint8))

    def test_iread_list_matches_blocking(self):
        cluster = small_cluster()
        regions = RegionList.strided(0, 16, 8, 40)
        payload = (np.arange(128) % 100).astype(np.uint8)

        def wl(client):
            f = yield from client.open("/nb4", create=True)
            yield client.sim.process(f.write_list(regions, payload))
            blocking = yield from f.read_list(regions)
            nonblocking = yield client.sim.process(f.read_list(regions))
            yield from f.close()
            return blocking, nonblocking

        b, nb = cluster.run_workload(wl, clients=[0]).client_returns[0]
        np.testing.assert_array_equal(b, nb)
        np.testing.assert_array_equal(b, payload)


class TestTimingShape:
    def test_multiple_small_requests_slower_than_one_list_request(self):
        """The paper's core claim at micro scale: N contiguous requests cost
        far more than one list request describing the same N regions."""
        regions = RegionList.strided(start=0, count=64, length=100, stride=400)
        stream = np.zeros(regions.total_bytes, np.uint8)

        def one_at_a_time(client):
            f = yield from client.open("/t", create=True)
            for off, ln in regions:
                yield from f.write(off, stream[:ln])
            yield from f.close()

        def as_list(client):
            f = yield from client.open("/t", create=True)
            yield from f.write_list(regions, stream)
            yield from f.close()

        t_multi = small_cluster().run_workload(one_at_a_time, clients=[0]).elapsed
        t_list = small_cluster().run_workload(as_list, clients=[0]).elapsed
        assert t_multi > 10 * t_list

    def test_more_clients_increase_server_contention(self):
        def wl(client):
            f = yield from client.open(f"/f{client.index}", create=True)
            yield from f.write(0, np.zeros(100_000, np.uint8))
            yield from f.close()

        t1 = small_cluster(n_clients=1).run_workload(wl).elapsed
        t4 = small_cluster(n_clients=4).run_workload(wl).elapsed
        assert t4 > t1  # shared iods and links must show contention

    def test_move_bytes_false_preserves_timing(self):
        regions = RegionList.strided(start=0, count=32, length=50, stride=200)

        def wl_real(client):
            f = yield from client.open("/x", create=True)
            yield from f.write_list(regions, np.zeros(regions.total_bytes, np.uint8))
            yield from f.close()

        def wl_ghost(client):
            f = yield from client.open("/x", create=True)
            yield from f.write_list(regions, None)
            yield from f.close()

        real = Cluster.build(
            ClusterConfig(n_clients=1, n_iods=4, stripe=StripeParams(stripe_size=100))
        ).run_workload(wl_real)
        ghost = Cluster.build(
            ClusterConfig(n_clients=1, n_iods=4, stripe=StripeParams(stripe_size=100)),
            move_bytes=False,
        ).run_workload(wl_ghost)
        assert ghost.elapsed == pytest.approx(real.elapsed)


class TestWorkloadRunner:
    def test_elapsed_is_slowest_client(self):
        cluster = small_cluster(n_clients=2)

        def wl(client):
            f = yield from client.open(f"/w{client.index}", create=True)
            size = 1000 if client.index == 0 else 100_000
            yield from f.write(0, np.zeros(size, np.uint8))
            yield from f.close()
            return client.index

        res = cluster.run_workload(wl)
        assert res.elapsed == max(res.client_times)
        assert res.client_returns == [0, 1]
        assert res.client_times[0] < res.client_times[1]

    def test_subset_of_clients(self):
        cluster = small_cluster(n_clients=2)

        def wl(client):
            f = yield from client.open("/only", create=True)
            yield from f.close()
            return client.index

        res = cluster.run_workload(wl, clients=[1])
        assert res.client_returns == [1]

    def test_empty_selection_rejected(self):
        with pytest.raises(ConfigError):
            small_cluster().run_workload(lambda c: iter(()), clients=[])

    def test_request_accounting_properties(self):
        cluster = small_cluster()
        regions = RegionList.strided(start=0, count=100, length=2, stride=10)

        def wl(client):
            f = yield from client.open("/acc", create=True)
            yield from f.read_list(regions)
            yield from f.close()

        res = cluster.run_workload(wl, clients=[0])
        assert res.total_logical_requests == 2  # 100 regions / cap 64
        assert res.total_server_messages >= res.total_logical_requests


class TestClose:
    @staticmethod
    def _read(cluster):
        regions = RegionList.strided(start=0, count=40, length=50, stride=300)

        def wl(client):
            f = yield from client.open("/c", create=True)
            yield from f.write(0, np.zeros(12_000, np.uint8))
            yield from f.read_list(regions)
            yield from f.close()

        return cluster.run_workload(wl)

    def test_closed_cluster_refuses_run_workload(self):
        cluster = small_cluster()
        self._read(cluster)
        cluster.close()
        with pytest.raises(ConfigError, match="closed cluster"):
            self._read(cluster)

    def test_with_block_closes_and_lets_the_exception_through(self):
        with small_cluster() as cluster:
            self._read(cluster)
        assert cluster.closed
        with pytest.raises(RuntimeError, match="mid-run"):
            with small_cluster() as cluster:
                self._read(cluster)
                raise RuntimeError("mid-run")
        assert cluster.closed

    def test_results_stay_readable_and_close_is_idempotent(self):
        cluster = Cluster.build(ClusterConfig(n_clients=2, n_iods=4), trace=True)
        self._read(cluster)
        before = (
            dict(cluster.counters.items()),
            cluster.sim.events_scheduled,
            cluster.sim.now,
            [iod.requests_served for iod in cluster.iods],
            len(cluster.tracer.spans),
        )
        cluster.close()
        cluster.close()
        after = (
            dict(cluster.counters.items()),
            cluster.sim.events_scheduled,
            cluster.sim.now,
            [iod.requests_served for iod in cluster.iods],
            len(cluster.tracer.spans),
        )
        assert after == before

    @pytest.mark.parametrize("fault", [None, "crash", "link-down"])
    def test_a_closed_cluster_is_freed_by_reference_counting(self, fault):
        from repro.faults import FaultConfig, FaultPlan, IodCrash, LinkDown, RetryPolicy

        cfg = ClusterConfig(n_clients=2, n_iods=4)
        # Failed and timed-out attempts, retries and their exceptions must
        # not tie any part of the cluster into a cycle: daemon 0 dies and
        # comes back, or its link stalls past the request deadline.
        plans = {
            "crash": (IodCrash(iod=0, at=0.002, restart_after=0.05), 1.0),
            "link-down": (LinkDown(node="iod0", at=0.002, duration=0.2), 0.02),
        }
        if fault is not None:
            event, timeout = plans[fault]
            cfg = cfg.with_(
                faults=FaultConfig(
                    plan=FaultPlan((event,)),
                    retry=RetryPolicy(
                        request_timeout=timeout, max_retries=20, backoff_base=0.01
                    ),
                )
            )
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            cluster = Cluster.build(cfg)
            self._read(cluster)
            if fault is not None:
                assert cluster.counters.total("client", ".retries") > 0
            if fault == "link-down":
                assert cluster.counters.total("client", ".timeouts") > 0
            cluster.close()
            parts = [cluster, cluster.sim, *cluster.iods, *cluster.clients]
            refs = [weakref.ref(part) for part in parts]
            del cluster, parts
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            if was_enabled:
                gc.enable()

    def test_a_run_that_raises_leaves_nothing_for_the_collector(self):
        # No with block: close() alone must free a cluster whose workload
        # raised, with the exception's frames still holding the failed run.
        from repro.errors import RetryExhausted
        from repro.faults import FaultConfig, FaultPlan, IodCrash, RetryPolicy

        cfg = ClusterConfig(n_clients=2, n_iods=4).with_(
            faults=FaultConfig(
                plan=FaultPlan((IodCrash(iod=0, at=0.002),)),
                retry=RetryPolicy(request_timeout=0.05, max_retries=2, backoff_base=0.01),
            )
        )
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            cluster = Cluster.build(cfg)
            try:
                self._read(cluster)
            except RetryExhausted:
                pass
            else:
                pytest.fail("the read should exhaust its retries")
            finally:
                cluster.close()
            del cluster
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()

    @pytest.mark.parametrize("replicas", [2, 1])
    def test_a_failover_read_leaves_nothing_for_the_collector(self, replicas):
        # With one copy the read raises RetryExhausted mid-run: its client
        # processes, their in-flight sends and the exception's frames must
        # not keep the cluster alive once the exception is gone.
        from repro.errors import RetryExhausted
        from repro.experiments.chaos import run_failover_scenario
        from repro.experiments.presets import SMOKE

        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            try:
                run_failover_scenario(scale=SMOKE, replicas=replicas)
            except RetryExhausted:
                assert replicas == 1
            else:
                assert replicas == 2
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()
