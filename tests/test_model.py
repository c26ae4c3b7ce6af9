"""Tests for the analytic model: plan compilation and prediction."""

import tracemalloc

import numpy as np
import pytest

from repro.config import ClusterConfig
from repro.errors import ModelError
from repro.model import compile_rank_plan, predict_pattern, predict_plans
from repro.model.plan import RankPlan
from repro.patterns import flash_io, one_dim_cyclic, tiled_visualization, FlashConfig
from repro.regions import RegionList
from repro.units import MiB


CFG = ClusterConfig.chiba_city(n_clients=4)


def simple_transfer(n=100, length=8, stride=64):
    fil = RegionList.strided(0, n, length, stride)
    mem = RegionList.single(0, n * length)
    return mem, fil


class TestPlanCompilation:
    def test_multiple_one_chunk_per_piece(self):
        mem, fil = simple_transfer(100)
        plan = compile_rank_plan("multiple", "read", mem, fil, CFG)
        assert plan.n_requests == 100
        assert plan.moved_bytes == fil.total_bytes
        assert plan.wasted_bytes == 0

    def test_list_caps_at_64(self):
        mem, fil = simple_transfer(100)
        plan = compile_rank_plan("list", "read", mem, fil, CFG)
        assert plan.n_requests == 2

    def test_list_memory_split(self):
        # noncontiguous memory finer than file: pieces bound the requests
        fil = RegionList.single(0, 128 * 8)
        mem = RegionList.strided(0, 128, 8, 24)
        plan = compile_rank_plan("list", "write", mem, fil, CFG)
        assert plan.n_requests == 2  # 128 pieces / 64
        plan2 = compile_rank_plan(
            "list", "write", mem, fil, CFG, split_memory_regions=False
        )
        assert plan2.n_requests == 1  # file-side accounting: one region

    def test_vector_single_request(self):
        mem, fil = simple_transfer(1000)
        plan = compile_rank_plan("vector", "read", mem, fil, CFG)
        assert plan.n_requests == 1
        assert plan.wire_mode == "descriptor"

    def test_sieve_read_windows(self):
        mem, fil = simple_transfer(100, length=8, stride=64)  # extent 6344 B
        plan = compile_rank_plan("datasieve", "read", mem, fil, CFG, sieve_buffer=1024)
        assert plan.n_requests == 7  # ceil(6344/1024)
        assert plan.moved_bytes > plan.useful_bytes  # waste counted
        assert not plan.serialized

    def test_sieve_write_is_serialized_rmw(self):
        mem, fil = simple_transfer(100)
        plan = compile_rank_plan("datasieve", "write", mem, fil, CFG, sieve_buffer=1024)
        assert plan.serialized
        assert plan.pre_read is not None
        assert len(plan.phases()) == 2

    def test_sieve_write_dense_needs_no_preread(self):
        fil = RegionList.single(0, 4096)
        mem = RegionList.single(0, 4096)
        plan = compile_rank_plan("datasieve", "write", mem, fil, CFG)
        assert plan.pre_read is None

    def test_hybrid_clusters(self):
        fil = RegionList.strided(0, 100, 8, 16)  # 8-byte gaps
        mem = RegionList.single(0, 800)
        plan = compile_rank_plan("hybrid", "read", mem, fil, CFG, gap_threshold=16)
        assert plan.n_requests == 1  # one extent
        assert plan.moved_bytes > plan.useful_bytes

    def test_unknown_method_rejected(self):
        mem, fil = simple_transfer()
        with pytest.raises(ModelError):
            compile_rank_plan("teleport", "read", mem, fil, CFG)
        with pytest.raises(ModelError):
            compile_rank_plan("list", "erase", mem, fil, CFG)

    def test_plan_validation(self):
        with pytest.raises(ModelError):
            RankPlan(
                method="list",
                kind="read",
                regions=RegionList.single(0, 8),
                chunk_of_region=np.array([0, 0]),
                useful_bytes=8,
            )


class TestPredictions:
    def test_empty_plans_rejected(self):
        with pytest.raises(ModelError):
            predict_plans([], CFG)

    def test_paper_request_counts_flash(self):
        cfg = FlashConfig(n_blocks=4, nxb=2, nyb=2, nzb=2, n_vars=4, n_guard=1)
        pattern = flash_io(2, cfg)
        c = ClusterConfig.chiba_city(n_clients=2)
        pred_multiple = predict_pattern(pattern, "multiple", "write", c)
        assert (
            pred_multiple.n_logical_requests
            == 2 * cfg.mem_regions_per_proc
        )
        pred_sieve = predict_pattern(pattern, "datasieve", "write", c)
        assert pred_sieve.serialized

    def test_ordering_multiple_worst_on_fragmented_reads(self):
        pattern = one_dim_cyclic(4 * MiB, 4, 2048)
        c = ClusterConfig.chiba_city(n_clients=4)
        t = {
            m: predict_pattern(pattern, m, "read", c).elapsed
            for m in ("multiple", "datasieve", "list")
        }
        assert t["list"] < t["datasieve"] < t["multiple"]

    def test_write_turnaround_dominates_multiple(self):
        pattern = one_dim_cyclic(4 * MiB, 4, 2048)
        c = ClusterConfig.chiba_city(n_clients=4)
        read = predict_pattern(pattern, "multiple", "read", c).elapsed
        write = predict_pattern(pattern, "multiple", "write", c).elapsed
        assert write > 10 * read

    def test_two_orders_write_gap(self):
        pattern = one_dim_cyclic(16 * MiB, 8, 8192)
        c = ClusterConfig.chiba_city(n_clients=8)
        multiple = predict_pattern(pattern, "multiple", "write", c).elapsed
        listio = predict_pattern(pattern, "list", "write", c).elapsed
        assert multiple / listio > 20

    def test_sieve_constant_in_accesses(self):
        c = ClusterConfig.chiba_city(n_clients=8)
        t = [
            predict_pattern(one_dim_cyclic(16 * MiB, 8, a), "datasieve", "read", c).elapsed
            for a in (1024, 4096, 16384)
        ]
        assert max(t) / min(t) < 1.3

    def test_sieve_doubles_with_clients(self):
        t8 = predict_pattern(
            one_dim_cyclic(16 * MiB, 8, 2048),
            "datasieve",
            "read",
            ClusterConfig.chiba_city(n_clients=8),
        ).elapsed
        t16 = predict_pattern(
            one_dim_cyclic(16 * MiB, 16, 2048),
            "datasieve",
            "read",
            ClusterConfig.chiba_city(n_clients=16),
        ).elapsed
        assert 1.4 < t16 / t8 < 3.0

    def test_wasted_bytes_property(self):
        pattern = tiled_visualization()
        c = ClusterConfig.chiba_city(n_clients=6)
        pred = predict_pattern(pattern, "datasieve", "read", c)
        assert pred.wasted_bytes > 0
        pred_list = predict_pattern(pattern, "list", "read", c)
        assert pred_list.wasted_bytes == 0

    def test_vector_beats_list_on_many_regions(self):
        pattern = one_dim_cyclic(16 * MiB, 8, 8192)
        c = ClusterConfig.chiba_city(n_clients=8)
        v = predict_pattern(pattern, "vector", "read", c)
        l = predict_pattern(pattern, "list", "read", c)
        assert v.n_logical_requests < l.n_logical_requests
        assert v.elapsed < l.elapsed

    def test_components_exposed(self):
        pattern = one_dim_cyclic(1 * MiB, 4, 256)
        pred = predict_pattern(pattern, "list", "read", CFG)
        assert len(pred.per_server_work) == CFG.n_iods
        assert len(pred.per_client_path) == 4
        assert pred.elapsed >= max(
            pred.server_bound, pred.network_bound
        ) - 1e-12
        assert "Prediction" in repr(pred)


class TestStreaming:
    def test_one_rank_plan_alive_at_a_time(self):
        # predict_pattern prices each rank's plan as it is compiled, so its
        # allocations peak below the arrays of all ranks' plans together.
        pattern = one_dim_cyclic(64 * MiB, 8, 50_000)
        cfg = ClusterConfig.chiba_city(n_clients=8)
        plans = [
            compile_rank_plan("list", "read", a.mem_regions, a.file_regions, cfg)
            for a in pattern.accesses
        ]
        all_plans = sum(
            p.regions.offsets.nbytes + p.regions.lengths.nbytes + p.chunk_of_region.nbytes
            for p in plans
        )
        del plans
        tracemalloc.start()
        try:
            predict_pattern(pattern, "list", "read", cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < all_plans, f"peak {peak} B, all plans {all_plans} B"


class TestModelMatchesDES:
    """Cross-validation: the model must land near the simulator."""

    @pytest.mark.parametrize(
        "method,kind,lo,hi",
        [
            ("multiple", "read", 0.4, 1.6),
            ("multiple", "write", 0.6, 1.5),
            ("list", "read", 0.5, 1.8),
            ("list", "write", 0.6, 1.5),
            ("datasieve", "read", 0.4, 1.6),
        ],
    )
    def test_cyclic_agreement(self, method, kind, lo, hi):
        from repro.core import METHODS
        from repro.pvfs import Cluster

        pattern = one_dim_cyclic(2 * MiB, 4, 512)
        cfg = ClusterConfig.chiba_city(n_clients=4)
        cluster = Cluster.build(cfg, move_bytes=False)
        m = METHODS[method]()

        def wl(client):
            a = pattern.rank(client.index)
            f = yield from client.open("/x", create=True)
            if kind == "read":
                yield from m.read(f, None, a.mem_regions, a.file_regions)
            else:
                yield from m.write(f, None, a.mem_regions, a.file_regions)
            yield from f.close()

        des = cluster.run_workload(wl).elapsed
        pred = predict_pattern(pattern, method, kind, cfg).elapsed
        assert lo <= pred / des <= hi, f"model/DES ratio {pred / des:.2f}"
