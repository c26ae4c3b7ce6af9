"""Tests for synthetic workloads, fault injection, and utilization reporting."""

import numpy as np
import pytest

from repro.config import ClusterConfig
from repro.core import ListIO
from repro.errors import PatternError
from repro.patterns import random_fragments, uniform_fragments
from repro.pvfs import Cluster


class TestUniformFragments:
    def test_interleaved_density_one_tiles_file(self):
        p = uniform_fragments(4, 8, 64, density=1.0, layout="interleaved")
        assert p.verify_disjoint_across_ranks()
        assert p.verify_covers_file()

    def test_density_creates_gaps(self):
        p = uniform_fragments(2, 4, 50, density=0.5)
        r = p.rank(0).file_regions
        assert r.lengths[0] == 50
        assert r.offsets[1] - r.offsets[0] == 200  # slot 100 x 2 clients

    def test_partitioned_zones_disjoint(self):
        p = uniform_fragments(3, 5, 10, density=0.25, layout="partitioned")
        assert p.verify_disjoint_across_ranks()
        # client zones don't interleave: extents are ordered
        extents = [p.rank(c).file_regions.extent for c in range(3)]
        for (a0, a1), (b0, b1) in zip(extents, extents[1:]):
            assert a1 <= b0

    def test_validation(self):
        with pytest.raises(PatternError):
            uniform_fragments(0, 1, 1)
        with pytest.raises(PatternError):
            uniform_fragments(1, 1, 1, density=0.0)
        with pytest.raises(PatternError):
            uniform_fragments(1, 1, 1, density=1.5)
        with pytest.raises(PatternError):
            uniform_fragments(1, 1, 1, layout="diagonal")


class TestRandomFragments:
    def test_deterministic_per_seed(self):
        a = random_fragments(3, 10, seed=7)
        b = random_fragments(3, 10, seed=7)
        for r in range(3):
            assert a.rank(r).file_regions == b.rank(r).file_regions

    def test_seeds_differ(self):
        a = random_fragments(2, 10, seed=1)
        b = random_fragments(2, 10, seed=2)
        assert any(
            a.rank(r).file_regions != b.rank(r).file_regions for r in range(2)
        )

    def test_always_disjoint_and_sorted(self):
        for seed in range(5):
            p = random_fragments(4, 12, seed=seed)
            assert p.verify_disjoint_across_ranks()
            for r in range(4):
                assert p.rank(r).file_regions.is_sorted()

    def test_size_bounds_respected(self):
        p = random_fragments(2, 50, min_size=16, max_size=64, seed=3)
        for r in range(2):
            lens = p.rank(r).file_regions.lengths
            assert lens.min() >= 16
            assert lens.max() <= 64

    def test_validation(self):
        with pytest.raises(PatternError):
            random_fragments(0, 1)
        with pytest.raises(PatternError):
            random_fragments(1, 1, min_size=0)
        with pytest.raises(PatternError):
            random_fragments(1, 1, min_gap=5, max_gap=2)

    def test_roundtrip_through_cluster(self):
        p = random_fragments(2, 8, max_size=128, max_gap=256, seed=11)
        cluster = Cluster.build(ClusterConfig(n_clients=2, n_iods=4))

        def wl(client):
            a = p.rank(client.index)
            payload = np.full(a.nbytes, client.index + 1, np.uint8)
            f = yield from client.open("/rand", create=True)
            yield from ListIO().write(f, payload, a.mem_regions, a.file_regions)
            got = yield from f.read_list(a.file_regions)
            yield from f.close()
            return got

        res = cluster.run_workload(wl)
        for r, got in enumerate(res.client_returns):
            assert (got == r + 1).all()


class TestFaultInjection:
    def _elapsed(self, straggler_scale=1.0):
        pattern = uniform_fragments(4, 256, 512, density=1.0)
        cluster = Cluster.build(
            ClusterConfig.chiba_city(n_clients=4), move_bytes=False
        )
        cluster.iods[0].service_scale = straggler_scale

        def wl(client):
            a = pattern.rank(client.index)
            f = yield from client.open("/s", create=True)
            yield from ListIO().read(f, None, a.mem_regions, a.file_regions)
            yield from f.close()

        return cluster.run_workload(wl).elapsed

    def test_straggler_slows_the_whole_run(self):
        healthy = self._elapsed(1.0)
        degraded = self._elapsed(8.0)
        assert degraded > 1.5 * healthy

    def test_straggler_bounded_by_its_share(self):
        """One of 8 servers being 8x slower must not slow the run 8x —
        only that server's share of the work dilates."""
        healthy = self._elapsed(1.0)
        degraded = self._elapsed(8.0)
        assert degraded < 8 * healthy

    def test_fanout_requests_hostage_to_slowest_server(self):
        """List requests wait for ALL involved servers, so a straggler
        hurts a fanned-out request pattern more than one whose requests
        touch single servers."""

        def run(method, scale):
            pattern = uniform_fragments(4, 128, 2048, density=1.0)
            cluster = Cluster.build(
                ClusterConfig.chiba_city(n_clients=4), move_bytes=False
            )
            cluster.iods[0].service_scale = scale

            def wl(client):
                a = pattern.rank(client.index)
                f = yield from client.open("/f", create=True)
                yield from method.read(f, None, a.mem_regions, a.file_regions)
                yield from f.close()

            return cluster.run_workload(wl).elapsed

        slowdown_list = run(ListIO(), 8.0) / run(ListIO(), 1.0)
        assert slowdown_list > 1.2  # the straggler is on the critical path


class TestUtilizationReport:
    """Per-resource utilization, as the bottleneck report gives it."""

    @staticmethod
    def _report(n_iods, wl):
        from repro.obs import ObsSession

        obs = ObsSession()
        cluster = Cluster.build(ClusterConfig(n_clients=2, n_iods=n_iods), move_bytes=False)
        obs.attach(cluster)
        cluster.run_workload(wl)
        return obs.capture(cluster).report()

    def test_report_structure(self):
        def wl(client):
            f = yield from client.open("/u", create=True)
            yield from f.write(0, None, length=500_000)
            yield from f.close()

        report = self._report(4, wl)
        names = {r.name for r in report.resources}
        assert {"iod0.cpu", "iod3.disk", "iod3.nic.rx", "client0.app"} <= names
        assert {q.name for q in report.queues} == {f"iod{i}.inbox" for i in range(4)}
        assert "%" in report.to_markdown()

    def test_busy_servers_show_nonzero_utilization(self):
        def wl(client):
            f = yield from client.open("/b", create=True)
            for _ in range(5):
                # spans both servers' stripe units
                yield from f.write(0, None, length=40_000)
            yield from f.close()

        util = {r.name: r.utilization for r in self._report(2, wl).resources}
        assert util["iod0.cpu"] > 0 and util["iod1.cpu"] > 0
        assert util["iod0.nic.rx"] > 0
