"""Two-phase collective I/O: the first-class ``twophase`` method.

Covers the ISSUE-10 acceptance surface: byte-identical file contents vs
the independent ``multiple`` method on random noncontiguous patterns
(property-based), jobs1 == jobs4 determinism through the sweep engine,
the aggregator/file-domain/round helpers, the analytic model, and the
wire codec round-trip of the new ``cb_buffer`` spec field.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ClusterConfig
from repro.core import METHODS, TwoPhaseIO
from repro.errors import RegionError
from repro.mpi import Communicator
from repro.mpiio.twophase import (
    MPIIOError,
    partition_file_domains,
    round_count,
    round_window,
    select_aggregators,
)
from repro.patterns import block_block, one_dim_cyclic
from repro.pvfs import Cluster
from repro.regions import RegionList, build_flat_indices
from repro.sweep import PointSpec, run_sweep
from repro.sweep.spec import MpiioSpec


# ---------------------------------------------------------------------------
# helpers: drive one collective transfer on a byte-moving cluster
# ---------------------------------------------------------------------------
def _contiguous_mem(file_regions: RegionList) -> RegionList:
    lengths = file_regions.lengths
    starts = np.concatenate(([0], np.cumsum(lengths)[:-1])) if lengths.size else lengths
    return RegionList(starts, lengths)


def _run_write(method_name, rank_regions, opts=None):
    """Write each rank's regions with random bytes; return the logical
    file contents (and total extent)."""
    n = len(rank_regions)
    cfg = ClusterConfig.chiba_city(n_clients=n)
    cluster = Cluster.build(cfg, move_bytes=True)
    method = METHODS[method_name](**(opts or {}))
    collective = getattr(method, "collective", False)
    comm = Communicator(cluster.sim, n) if collective else None

    def workload(client):
        file_regions = rank_regions[client.index]
        mem_regions = _contiguous_mem(file_regions)
        rng = np.random.default_rng(1234 + client.index)
        mem = rng.integers(0, 256, max(mem_regions.total_bytes, 1), dtype=np.uint8)
        f = yield from client.open("/x", create=True)
        if collective:
            yield from method.collective_write(
                comm, client.index, f, mem, mem_regions, file_regions
            )
        else:
            yield from method.write(f, mem, mem_regions, file_regions)
        yield from f.close()

    cluster.run_workload(workload)

    total = max((r.extent[1] for r in rank_regions if r.count), default=1)
    out = {}

    def reader(client):
        if client.index != 0:
            return
            yield
        f = yield from client.open("/x", create=False)
        data = yield from f.read_list(RegionList.from_pairs([(0, total)]))
        out["data"] = bytes(data)
        yield from f.close()

    cluster.run_workload(reader)
    return out["data"]


def _run_read(method_name, rank_regions, opts=None):
    """Seed the file with ``multiple`` writes, read back with
    ``method_name``; return per-rank read buffers + expected bytes."""
    n = len(rank_regions)
    cfg = ClusterConfig.chiba_city(n_clients=n)
    cluster = Cluster.build(cfg, move_bytes=True)
    seed_method = METHODS["multiple"]()
    method = METHODS[method_name](**(opts or {}))
    collective = getattr(method, "collective", False)
    comm = Communicator(cluster.sim, n) if collective else None
    got = {}

    def workload(client):
        file_regions = rank_regions[client.index]
        mem_regions = _contiguous_mem(file_regions)
        rng = np.random.default_rng(99 + client.index)
        wmem = rng.integers(0, 256, max(mem_regions.total_bytes, 1), dtype=np.uint8)
        f = yield from client.open("/x", create=True)
        yield from seed_method.write(f, wmem, mem_regions, file_regions)
        mem = np.zeros(max(mem_regions.total_bytes, 1), np.uint8)
        got[client.index] = (wmem, mem, mem_regions)
        if collective:
            yield from method.collective_read(
                comm, client.index, f, mem, mem_regions, file_regions
            )
        else:
            yield from method.read(f, mem, mem_regions, file_regions)
        yield from f.close()

    cluster.run_workload(workload)
    return got


# ---------------------------------------------------------------------------
# strategies: random noncontiguous patterns, disjoint across ranks
# ---------------------------------------------------------------------------
@st.composite
def rank_patterns(draw, max_ranks=4, max_regions=24, max_len=64, max_gap=64):
    n_ranks = draw(st.integers(2, max_ranks))
    n = draw(st.integers(n_ranks, max_regions))
    lengths = draw(st.lists(st.integers(1, max_len), min_size=n, max_size=n))
    gaps = draw(st.lists(st.integers(0, max_gap), min_size=n, max_size=n))
    owner = draw(st.lists(st.integers(0, n_ranks - 1), min_size=n, max_size=n))
    per_rank = [[] for _ in range(n_ranks)]
    pos = gaps[0]
    for ln, gap, r in zip(lengths, gaps, owner):
        per_rank[r].append((pos, ln))
        pos += ln + gap
    # present regions in reverse order on odd ranks: the method must sort
    out = []
    for r, pairs in enumerate(per_rank):
        if r % 2:
            pairs = list(reversed(pairs))
        out.append(RegionList.from_pairs(pairs))
    return out


class TestContentEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(rank_patterns())
    def test_write_matches_multiple(self, rank_regions):
        expect = _run_write("multiple", rank_regions)
        assert _run_write("twophase", rank_regions) == expect

    @settings(max_examples=6, deadline=None)
    @given(rank_patterns())
    def test_write_matches_multiple_multiround(self, rank_regions):
        expect = _run_write("multiple", rank_regions)
        got = _run_write("twophase", rank_regions, {"cb_nodes": 2, "cb_buffer": 256})
        assert got == expect

    @settings(max_examples=6, deadline=None)
    @given(rank_patterns())
    def test_read_returns_written_bytes(self, rank_regions):
        got = _run_read("twophase", rank_regions, {"cb_buffer": 512})
        for _rank, (wmem, mem, mem_regions) in got.items():
            idx = build_flat_indices(mem_regions.offsets, mem_regions.lengths)
            assert (wmem[idx] == mem[idx]).all()

    def test_fixed_blockblock_write_and_read(self):
        pattern = block_block(1 << 16, 4, 16)
        rank_regions = [pattern.rank(r).file_regions for r in range(4)]
        expect = _run_write("multiple", rank_regions)
        assert _run_write("twophase", rank_regions) == expect
        got = _run_read("twophase", rank_regions, {"cb_nodes": 3, "cb_buffer": 4096})
        for _rank, (wmem, mem, mem_regions) in got.items():
            idx = build_flat_indices(mem_regions.offsets, mem_regions.lengths)
            assert (wmem[idx] == mem[idx]).all()


# ---------------------------------------------------------------------------
# aggregator / file-domain / round helpers
# ---------------------------------------------------------------------------
class TestPartitioning:
    def test_select_aggregators_default_is_all_ranks(self):
        assert select_aggregators(4) == (0, 1, 2, 3)
        assert select_aggregators(4, 2) == (0, 1)

    @pytest.mark.parametrize("bad", [0, 5, -1])
    def test_select_aggregators_rejects_out_of_range(self, bad):
        with pytest.raises(MPIIOError):
            select_aggregators(4, bad)

    def test_domains_cover_extent_and_align(self):
        metas = {
            0: RegionList.from_pairs([(100, 50)]),
            1: RegionList.from_pairs([(1000, 200)]),
            2: RegionList.empty(),
        }
        domains = partition_file_domains(metas, 3, 2, align=128)
        assert domains[2] == (0, 0)  # not an aggregator's worth of work
        (a0, b0), (a1, b1) = domains[0], domains[1]
        assert a0 == 100 and b1 == 1200
        assert b0 == a1  # contiguous split
        assert (b0 - a0) % 128 == 0  # stripe-aligned slice

    def test_empty_metas_give_empty_domains(self):
        metas = {0: RegionList.empty(), 1: RegionList.empty()}
        assert partition_file_domains(metas, 2, 2, 64) == [(0, 0), (0, 0)]

    def test_round_count_and_windows_tile_the_domain(self):
        domains = [(0, 1000), (1000, 1600)]
        assert round_count(domains, None) == 1
        assert round_count(domains, 256) == 4
        covered = []
        for rnd in range(round_count(domains, 256)):
            covered.append(round_window(domains[0], rnd, 256))
        assert covered[0] == (0, 256)
        assert covered[-1] == (768, 1000)
        assert all(a == b or a < b for a, b in covered)

    def test_round_count_rejects_bad_buffer(self):
        with pytest.raises(MPIIOError):
            round_count([(0, 10)], 0)


# ---------------------------------------------------------------------------
# method-level contracts
# ---------------------------------------------------------------------------
class TestMethodContract:
    def test_registered_in_methods(self):
        assert METHODS["twophase"] is TwoPhaseIO
        assert TwoPhaseIO.collective is True

    def test_independent_calls_are_rejected(self):
        method = TwoPhaseIO()
        with pytest.raises(MPIIOError):
            next(method.read(None, None, RegionList.empty(), RegionList.empty()))
        with pytest.raises(MPIIOError):
            next(method.write(None, None, RegionList.empty(), RegionList.empty()))

    def test_constructor_validates_hints(self):
        with pytest.raises(MPIIOError):
            TwoPhaseIO(cb_nodes=0)
        with pytest.raises(MPIIOError):
            TwoPhaseIO(cb_buffer=0)

    def test_overlapping_regions_rejected(self):
        overlapping = RegionList.from_pairs([(0, 10), (5, 10)])
        regions = [overlapping, RegionList.from_pairs([(100, 10)])]
        with pytest.raises(RegionError):
            _run_write("twophase", regions)


# ---------------------------------------------------------------------------
# determinism through the sweep engine
# ---------------------------------------------------------------------------
class TestDeterminism:
    def _specs(self):
        cfg = ClusterConfig.chiba_city(n_clients=4)
        specs = []
        for pattern, kind, opts in (
            ("one_dim_cyclic", "write", ()),
            ("block_block", "read", (("cb_buffer", 65536),)),
        ):
            specs.append(
                PointSpec(
                    figure="figTP",
                    pattern=pattern,
                    pattern_args=(1 << 20, 4, 64),
                    method="twophase",
                    kind=kind,
                    mode="des",
                    cfg=cfg,
                    x=64,
                    opts=opts,
                )
            )
        return specs

    def test_jobs4_bit_identical_to_jobs1(self):
        specs = self._specs()
        serial, _ = run_sweep(specs, jobs=1)
        parallel, _ = run_sweep(specs, jobs=4)
        assert parallel == serial  # dataclass equality: exact floats


# ---------------------------------------------------------------------------
# analytic model
# ---------------------------------------------------------------------------
class TestModel:
    def test_prediction_structure(self):
        from repro.model import predict_pattern

        pattern = block_block(1 << 20, 4, 64)
        pred = predict_pattern(pattern, "twophase", "write", ClusterConfig.chiba_city(4))
        assert pred.exchange_bound > 0
        assert pred.elapsed >= pred.exchange_bound
        assert pred.useful_bytes == pattern.total_bytes
        assert pred.moved_bytes > pred.useful_bytes  # exchange traffic counted

    def test_model_agrees_with_des_on_blockblock_write(self):
        from repro.experiments.harness import des_point, model_point

        pattern = block_block(1 << 20, 4, 64)
        des_tp = des_point(pattern, "twophase", "write").elapsed
        des_ls = des_point(pattern, "list", "write").elapsed
        mod_tp = model_point(pattern, "twophase", "write").elapsed
        mod_ls = model_point(pattern, "list", "write").elapsed
        assert des_tp < des_ls  # two-phase wins on interleaved block-block
        assert mod_tp < mod_ls  # and the model predicts the same winner

    def test_cb_buffer_adds_rounds_and_cost(self):
        from repro.model import predict_twophase

        pattern = one_dim_cyclic(1 << 20, 4, 64)
        cfg = ClusterConfig.chiba_city(4)
        one = predict_twophase(pattern, "write", cfg)
        many = predict_twophase(pattern, "write", cfg, cb_buffer=16 * 1024)
        assert many.exchange_bound > one.exchange_bound


# ---------------------------------------------------------------------------
# cache keys
# ---------------------------------------------------------------------------
class TestWire:
    def test_cb_buffer_changes_cache_key(self):
        from repro.experiments.presets import SMOKE

        a = MpiioSpec(scale=SMOKE, n_ranks=2, collective=True)
        b = MpiioSpec(scale=SMOKE, n_ranks=2, collective=True, cb_buffer=65536)
        assert a.cache_token() != b.cache_token()
