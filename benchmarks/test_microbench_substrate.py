"""Substrate checks at benchmark size: event kernel, region algebra,
striping, cache.

Each test drives one vectorized hot path at the input size its old
wall-clock benchmark used and asserts the result.  Host time is measured
by ``perfbench/`` (``--trace 1`` splits it by layer), not here.
"""

import numpy as np

from repro.config import CacheConfig, StripeParams
from repro.pvfs.striping import map_regions
from repro.regions import RegionList, build_flat_indices, pair_pieces
from repro.simulate import Resource, Simulator
from repro.storage import BlockCache


def test_event_throughput():
    """Chained timeout events (the kernel's basic step)."""
    sim = Simulator()

    def ticker(sim):
        for _ in range(10_000):
            yield sim.timeout(1.0)

    sim.process(ticker(sim))
    sim.run()
    assert sim.now == 10_000


def test_resource_contention():
    """1000 jobs through a capacity-2 resource."""
    sim = Simulator()
    res = Resource(sim, capacity=2)

    def job(sim):
        with res.request() as req:
            yield req
            yield sim.timeout(1.0)

    for _ in range(1000):
        sim.process(job(sim))
    sim.run()
    assert sim.now == 500.0  # two at a time, one second each


def test_coalesce_100k():
    rng = np.random.default_rng(1)
    r = RegionList(np.sort(rng.integers(0, 10**9, 100_000)), rng.integers(1, 100, 100_000))
    assert r.coalesced().count <= r.count


def test_split_at_boundaries_100k():
    r = RegionList.strided(0, 100_000, 100, 150)
    assert r.split_at_boundaries(64).total_bytes == r.total_bytes


def test_pair_pieces_100k():
    a = RegionList.strided(0, 100_000, 64, 100)
    b = RegionList.strided(0, 50_000, 128, 200)
    _ao, _bo, ln = pair_pieces(a, b)
    assert int(ln.sum()) == a.total_bytes


def test_flat_indices_1m_bytes():
    r = RegionList.strided(0, 10_000, 100, 173)
    assert build_flat_indices(r.offsets, r.lengths).size == r.total_bytes


def test_map_regions_100k():
    r = RegionList.strided(0, 100_000, 149, 1200)
    slices = map_regions(r, StripeParams(stripe_size=16384), 8)
    assert sum(sl.physical.total_bytes for sl in slices) == r.total_bytes


def test_cache_churn():
    cache = BlockCache(CacheConfig(capacity=1024 * 4096, block_size=4096))
    for start in range(0, 4096, 64):
        cache.insert_range("f", start, 64, dirty=True)
        cache.lookup_range("f", start, start + 63)
    assert len(cache) == 1024
