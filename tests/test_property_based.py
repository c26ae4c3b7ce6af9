"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, StripeParams
from repro.core.hybrid import cluster_extents
from repro.mpiio.twophase import _touches
from repro.regions import (
    RegionList,
    _merge_pieces,
    build_flat_indices,
    gather_runs,
    pair_pieces,
    scatter_runs,
    split_with_parents,
    stream_positions,
)
from repro.pvfs.striping import map_regions
from repro.simulate import Resource, Simulator
from repro.storage import BlockCache

from .patterns_reference import subdivide


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
@st.composite
def region_lists(draw, max_regions=30, max_offset=5000, max_len=200, min_regions=0):
    n = draw(st.integers(min_regions, max_regions))
    offsets = draw(
        st.lists(st.integers(0, max_offset), min_size=n, max_size=n)
    )
    lengths = draw(st.lists(st.integers(0, max_len), min_size=n, max_size=n))
    return RegionList(offsets, lengths)


@st.composite
def disjoint_sorted_lists(draw, max_regions=25, max_gap=300, max_len=200):
    n = draw(st.integers(1, max_regions))
    lengths = draw(st.lists(st.integers(1, max_len), min_size=n, max_size=n))
    gaps = draw(st.lists(st.integers(0, max_gap), min_size=n, max_size=n))
    offs = []
    pos = gaps[0]
    for ln, g in zip(lengths, gaps):
        offs.append(pos)
        pos += ln + g
    return RegionList(offs, lengths)


@st.composite
def stripe_layouts(draw):
    """``(StripeParams, n_iods)`` with any stripe size, base and pcount."""
    n_iods = draw(st.integers(1, 8))
    pcount = draw(st.one_of(st.none(), st.integers(1, n_iods)))
    stripe = StripeParams(
        stripe_size=draw(st.integers(1, 64)),
        base=draw(st.integers(0, n_iods - 1)),
        pcount=pcount,
    )
    return stripe, n_iods


@st.composite
def run_lists(draw, disjoint=False, max_runs=12):
    """``(offsets, lengths)`` int64 arrays mixing zero-length, tiny and long
    runs.  ``disjoint`` runs never share a byte and come in random order."""
    n = draw(st.integers(0, max_runs))
    lengths = np.array(
        draw(
            st.lists(
                st.one_of(st.integers(0, 8), st.integers(256, 3000)),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=np.int64,
    )
    if disjoint:
        gaps = np.array(
            draw(st.lists(st.integers(0, 40), min_size=n, max_size=n)), dtype=np.int64
        )
        offsets = np.cumsum(gaps + lengths) - lengths
        order = np.array(draw(st.permutations(range(n))), dtype=np.int64)
        return offsets[order], lengths[order]
    offsets = draw(st.lists(st.integers(0, 4000), min_size=n, max_size=n))
    return np.array(offsets, dtype=np.int64), lengths


def byte_set(r: RegionList):
    return set(build_flat_indices(r.offsets, r.lengths).tolist())


# ---------------------------------------------------------------------------
# RegionList algebra
# ---------------------------------------------------------------------------
class TestRegionProperties:
    @given(region_lists())
    def test_coalesce_idempotent(self, r):
        once = r.coalesced()
        assert once.coalesced() == once

    @given(region_lists())
    def test_coalesce_preserves_byte_set(self, r):
        assert byte_set(r.coalesced()) == byte_set(r)

    @given(region_lists())
    def test_coalesced_is_sorted_disjoint_nonadjacent(self, r):
        c = r.coalesced()
        assert c.is_sorted()
        assert c.is_disjoint()
        if c.count > 1:
            assert (c.offsets[1:] > c.ends[:-1]).all()

    @given(region_lists(), st.integers(1, 64))
    def test_split_preserves_stream(self, r, boundary):
        s = r.split_at_boundaries(boundary)
        assert s.total_bytes == r.drop_empty().total_bytes
        # identical byte streams, not just equal volume
        np.testing.assert_array_equal(
            build_flat_indices(s.offsets, s.lengths),
            build_flat_indices(r.offsets, r.lengths),
        )
        if s.count:
            assert ((s.offsets // boundary) == ((s.ends - 1) // boundary)).all()

    @given(region_lists(), st.integers(1, 64))
    def test_split_with_parents_consistent(self, r, boundary):
        pieces, parents, units = split_with_parents(r, boundary)
        assert pieces.count == len(parents) == len(units)
        assert pieces == r.split_at_boundaries(boundary)
        np.testing.assert_array_equal(units, pieces.offsets // boundary)
        base = r.drop_empty()
        if pieces.count:
            assert (parents[1:] >= parents[:-1]).all()  # monotone
            # every piece lies inside its parent region
            assert (pieces.offsets >= base.offsets[parents]).all()
            assert (pieces.ends <= base.ends[parents]).all()

    @given(region_lists(), st.integers(1, 100))
    def test_subdivide_preserves_stream(self, r, piece):
        # The block_block reference's subdivide (tests/patterns_reference.py).
        s = subdivide(r, piece)
        np.testing.assert_array_equal(
            build_flat_indices(s.offsets, s.lengths),
            build_flat_indices(r.offsets, r.lengths),
        )
        if s.count:
            assert (s.lengths <= piece).all()

    @given(region_lists(), st.integers(1, 20))
    def test_chunks_concatenate_to_whole(self, r, cap):
        parts = list(r.chunks_of(cap))
        assert sum(p.count for p in parts) == r.count
        if parts:
            combined = parts[0]
            for p in parts[1:]:
                combined = combined.concat(p)
            assert combined == r

    @given(region_lists(), st.integers(0, 3000), st.integers(0, 3000))
    def test_clip_is_intersection(self, r, a, b):
        lo, hi = min(a, b), max(a, b)
        clipped = r.clip(lo, hi)
        expect = {x for x in byte_set(r) if lo <= x < hi}
        assert byte_set(clipped) == expect


class TestPairPiecesProperties:
    @given(region_lists(min_regions=1), st.data())
    def test_pairing_matches_flat_indices(self, a, data):
        total = a.total_bytes
        assume(total > 0)
        # build an equal-volume second list
        n = data.draw(st.integers(1, min(total, 20)))
        cuts = sorted(
            data.draw(
                st.lists(
                    st.integers(1, total - 1), max_size=n, unique=True
                )
            )
        ) if total > 1 else []
        lens = np.diff([0] + cuts + [total])
        offs = np.arange(len(lens)) * (int(lens.max()) + 5)
        b = RegionList(offs, lens)
        ao, bo, ln = pair_pieces(a, b)
        assert int(ln.sum()) == total
        # piecewise mapping equals the flattened mapping
        ia = build_flat_indices(a.offsets, a.lengths)
        ib = build_flat_indices(b.offsets, b.lengths)
        pos = 0
        for x, y, k in zip(ao, bo, ln):
            np.testing.assert_array_equal(ia[pos : pos + k], np.arange(x, x + k))
            np.testing.assert_array_equal(ib[pos : pos + k], np.arange(y, y + k))
            pos += k

    @given(region_lists(min_regions=1, max_regions=40), st.integers(0, 10**6))
    @example(RegionList([7], [5]), 0)
    def test_single_run_side_matches_the_merge(self, other, run_start):
        # A single run on either side skips the breakpoint merge; the
        # pieces, their offsets and their dtype are the merge's exactly.
        other = other.drop_empty()
        assume(other.count)
        run = RegionList.single(run_start, other.total_bytes)
        for a, b in ((run, other), (other, run)):
            got = pair_pieces(a, b)
            want = _merge_pieces(a, b)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype == np.int64
                np.testing.assert_array_equal(g, w)


class TestRunCopyProperties:
    """gather_runs / scatter_runs against the per-byte fancy index."""

    _EMPTY = (np.zeros(0, np.int64), np.zeros(0, np.int64))

    @given(run_lists())
    @example(_EMPTY)
    @example((np.array([17], np.int64), np.array([3000], np.int64)))
    def test_gather_matches_flat_index(self, runs):
        offsets, lengths = runs
        src = (np.arange(7000) % 251).astype(np.uint8)
        before = src.copy()
        got = gather_runs(src, offsets, lengths)
        np.testing.assert_array_equal(got, src[build_flat_indices(offsets, lengths)])
        assert got.dtype == src.dtype
        got ^= 0xFF  # the result is a private copy, even of a single run
        np.testing.assert_array_equal(src, before)

    @given(run_lists(disjoint=True))
    @example(_EMPTY)
    @example((np.array([5], np.int64), np.array([0], np.int64)))
    def test_scatter_matches_fancy_assignment(self, runs):
        offsets, lengths = runs
        size = int((offsets + lengths).max()) + 8 if offsets.size else 8
        stream = (np.arange(int(lengths.sum())) * 7 % 256).astype(np.uint8)
        got = np.zeros(size, np.uint8)
        scatter_runs(got, offsets, lengths, stream)
        want = np.zeros(size, np.uint8)
        want[build_flat_indices(offsets, lengths)] = stream
        np.testing.assert_array_equal(got, want)


class TestStreamPositions:
    """stream_positions against a per-byte map from file offset to the
    position of that byte in the stream of a sorted, disjoint list."""

    @staticmethod
    def _check(regions: RegionList, pieces: RegionList) -> None:
        where = np.full(int(regions.ends.max()) + 1, -1, np.int64)
        where[build_flat_indices(regions.offsets, regions.lengths)] = np.arange(
            regions.total_bytes
        )
        got = stream_positions(regions, pieces)
        assert got.dtype == np.int64 and got.shape == (pieces.count,)
        np.testing.assert_array_equal(
            build_flat_indices(got, pieces.lengths),
            where[build_flat_indices(pieces.offsets, pieces.lengths)],
        )

    @given(disjoint_sorted_lists(), st.integers(0, 6000), st.integers(0, 6000))
    def test_clipped_pieces(self, regions, a, b):
        a, b = min(a, b), max(a, b)
        self._check(regions, regions.clip(a, b))

    @given(disjoint_sorted_lists(), st.integers(0, 400))
    def test_regions_inside_their_clusters(self, regions, gap):
        self._check(cluster_extents(regions, gap), regions)


class TestTouches:
    """The two-phase engine counts a round's deposits with ``_touches``
    instead of clipping; both must agree, empty windows included."""

    @given(
        region_lists(max_regions=20, max_offset=3000, max_len=150),
        st.integers(0, 3300),
        st.integers(0, 300),
    )
    @example(RegionList([10], [5]), 12, 0)  # an empty window inside a region
    @example(RegionList([10], [5]), 15, 3)  # a region ending where the window starts
    @example(RegionList([10], [5]), 5, 5)  # a region starting where the window ends
    @settings(max_examples=500)
    def test_agrees_with_clip(self, regions, lo, width):
        r = regions.coalesced()
        assert _touches(r, lo, lo + width) == (r.clip(lo, lo + width).count > 0)


# ---------------------------------------------------------------------------
# Striping
# ---------------------------------------------------------------------------
class TestStripingProperties:
    @given(
        region_lists(max_regions=20, max_offset=3000, max_len=150),
        st.integers(1, 200),
        st.integers(1, 8),
    )
    def test_map_partitions_stream(self, regions, stripe_size, n_iods):
        sp = StripeParams(stripe_size=stripe_size)
        slices = map_regions(regions, sp, n_iods)
        covered = np.concatenate(
            [build_flat_indices(sl.stream_offsets, sl.physical.lengths) for sl in slices]
        ) if slices else np.empty(0, np.int64)
        covered.sort()
        np.testing.assert_array_equal(covered, np.arange(regions.total_bytes))

    @staticmethod
    def _reference_map(regions, sp, n_iods):
        """Split at stripe-unit boundaries, then a stable group-by-server:
        ``[(server, [(physical offset, length, stream offset), ...])]`` in
        ascending server order, stream order within each server."""
        pcount = sp.resolve_pcount(n_iods)
        ssize = sp.stripe_size
        groups = {}
        pos = 0
        for off, ln in regions.split_at_boundaries(ssize):
            unit = off // ssize
            server = (sp.base + unit % pcount) % n_iods
            phys = (unit // pcount) * ssize + off % ssize
            groups.setdefault(server, []).append((phys, ln, pos))
            pos += ln
        return [(server, groups[server]) for server in sorted(groups)]

    @staticmethod
    def _as_runs(slices):
        return [
            (
                sl.server,
                list(
                    zip(
                        sl.physical.offsets.tolist(),
                        sl.physical.lengths.tolist(),
                        sl.stream_offsets.tolist(),
                    )
                ),
            )
            for sl in slices
        ]

    @given(stripe_layouts(), st.data())
    def test_single_region_matches_reference(self, layout, data):
        # One region over 1 to pcount + 1 stripe units: up to pcount units
        # take the scalar case, one more takes the array path.
        sp, n_iods = layout
        ssize = sp.stripe_size
        units = data.draw(st.integers(1, sp.resolve_pcount(n_iods) + 1))
        first = data.draw(st.integers(0, 40))
        start = first * ssize + data.draw(st.integers(0, ssize - 1))
        last_byte = data.draw(
            st.integers(max(start, (first + units - 1) * ssize), (first + units) * ssize - 1)
        )
        region = RegionList.single(start, last_byte - start + 1)
        slices = map_regions(region, sp, n_iods)
        assert self._as_runs(slices) == self._reference_map(region, sp, n_iods)

    @given(stripe_layouts(), region_lists(max_regions=20, max_offset=3000, max_len=150))
    def test_region_list_matches_reference(self, layout, regions):
        sp, n_iods = layout
        assert self._as_runs(map_regions(regions, sp, n_iods)) == self._reference_map(
            regions, sp, n_iods
        )

    @given(
        region_lists(max_regions=15, max_offset=2000, max_len=100),
        st.integers(1, 100),
        st.integers(1, 8),
    )
    def test_no_piece_crosses_stripe_unit(self, regions, stripe_size, n_iods):
        sp = StripeParams(stripe_size=stripe_size)
        for sl in map_regions(regions, sp, n_iods):
            # physical pieces must stay within one stripe unit each
            unit = sl.physical.offsets // stripe_size
            end_unit = (sl.physical.ends - 1) // stripe_size
            assert (unit == end_unit).all()


# ---------------------------------------------------------------------------
# Simulator resources
# ---------------------------------------------------------------------------
class TestResourceProperties:
    @given(
        st.integers(1, 4),
        st.lists(
            st.tuples(st.floats(0, 5), st.floats(0.01, 2)), min_size=1, max_size=15
        ),
    )
    @settings(deadline=None, max_examples=50)
    def test_capacity_never_exceeded(self, capacity, jobs):
        sim = Simulator()
        res = Resource(sim, capacity=capacity)
        peak = [0]

        def job(sim, arrive, hold_for):
            yield sim.timeout(arrive)
            with res.request() as req:
                yield req
                peak[0] = max(peak[0], res.in_use)
                yield sim.timeout(hold_for)

        for arrive, hold_for in jobs:
            sim.process(job(sim, arrive, hold_for))
        sim.run()
        assert peak[0] <= capacity
        assert res.in_use == 0
        assert res.queue_length == 0

    @given(
        st.lists(st.floats(0, 3), min_size=1, max_size=12),
    )
    @settings(deadline=None, max_examples=50)
    def test_runs_are_deterministic(self, delays):
        def build():
            sim = Simulator()
            log = []

            def p(sim, i, d):
                yield sim.timeout(d)
                log.append((i, sim.now))

            for i, d in enumerate(delays):
                sim.process(p(sim, i, d))
            sim.run()
            return log

        assert build() == build()


# ---------------------------------------------------------------------------
# Block cache
# ---------------------------------------------------------------------------
class TestCacheProperties:
    @given(
        st.integers(1, 16),
        st.lists(
            st.tuples(st.integers(0, 40), st.booleans()), min_size=1, max_size=60
        ),
    )
    def test_cache_never_exceeds_capacity(self, capacity_blocks, ops):
        cache = BlockCache(
            CacheConfig(capacity=capacity_blocks * 4096, block_size=4096)
        )
        for block, dirty in ops:
            cache.insert_range("f", block, 1, dirty=dirty)
            assert len(cache) <= capacity_blocks

    @given(
        st.lists(st.integers(0, 20), min_size=1, max_size=40),
    )
    def test_most_recent_block_always_resident(self, blocks):
        cache = BlockCache(CacheConfig(capacity=4 * 4096, block_size=4096))
        for b in blocks:
            cache.insert_range("f", b, 1)
            assert cache.contains("f", b)


# ---------------------------------------------------------------------------
# Analytic-model plan invariants
# ---------------------------------------------------------------------------
class TestPlanProperties:
    @given(
        disjoint_sorted_lists(max_regions=20, max_gap=200, max_len=100),
        st.sampled_from(["multiple", "list", "datasieve", "hybrid", "vector"]),
        st.sampled_from(["read", "write"]),
    )
    @settings(deadline=None, max_examples=60)
    def test_plan_preserves_useful_bytes(self, file_regions, method, kind):
        from repro.config import ClusterConfig
        from repro.model import compile_rank_plan

        cfg = ClusterConfig.chiba_city(n_clients=2)
        mem = RegionList.single(0, file_regions.total_bytes)
        plan = compile_rank_plan(method, kind, mem, file_regions, cfg)
        assert plan.useful_bytes == file_regions.total_bytes
        assert plan.moved_bytes >= plan.useful_bytes
        if method in ("multiple", "list", "vector"):
            assert plan.wasted_bytes == 0
        assert plan.n_requests >= 1
        # request ids are dense and monotone
        chunks = plan.chunk_of_region
        assert (np.diff(chunks) >= 0).all()
        assert chunks[0] == 0

    @given(
        disjoint_sorted_lists(max_regions=15, max_gap=100, max_len=60),
        st.sampled_from(["multiple", "list", "datasieve"]),
    )
    @settings(deadline=None, max_examples=30)
    def test_prediction_positive_and_ordered(self, file_regions, method):
        from repro.config import ClusterConfig
        from repro.model import compile_rank_plan, predict_plans

        cfg = ClusterConfig.chiba_city(n_clients=1)
        mem = RegionList.single(0, file_regions.total_bytes)
        plan_r = compile_rank_plan(method, "read", mem, file_regions, cfg)
        plan_w = compile_rank_plan(method, "write", mem, file_regions, cfg)
        pr = predict_plans([plan_r], cfg)
        pw = predict_plans([plan_w], cfg)
        assert pr.elapsed > 0
        # writes carry the turnaround penalty: never cheaper than reads
        assert pw.elapsed >= pr.elapsed * 0.5


# ---------------------------------------------------------------------------
# End-to-end equivalence with generated patterns
# ---------------------------------------------------------------------------
class TestMethodEquivalenceProperty:
    @given(disjoint_sorted_lists(max_regions=10, max_gap=100, max_len=60), st.integers(0, 4))
    @settings(deadline=None, max_examples=15)
    def test_all_methods_realize_the_same_write(self, file_regions, seed):
        from repro.config import ClusterConfig
        from repro.core import DataSievingIO, ListIO, MultipleIO
        from repro.pvfs import Cluster

        total = file_regions.total_bytes
        mem_regions = RegionList.single(0, total)
        rng = np.random.default_rng(seed)
        payload = rng.integers(0, 256, total).astype(np.uint8)
        images = {}
        for method in (MultipleIO(), DataSievingIO(), ListIO()):
            cluster = Cluster.build(
                ClusterConfig(
                    n_clients=1, n_iods=3, stripe=StripeParams(stripe_size=64)
                )
            )

            def wl(client):
                f = yield from client.open("/p", create=True)
                yield from method.write(f, payload, mem_regions, file_regions)
                got = yield from f.read(0, file_regions.extent[1])
                yield from f.close()
                return got

            images[method.name] = cluster.run_workload(wl, clients=[0]).client_returns[0]
        ref = images.pop("multiple")
        for name, img in images.items():
            np.testing.assert_array_equal(img, ref, err_msg=name)


class TestRetryBackoffProperty:
    """The retry backoff sequence must be deterministic for a fixed seed
    and strictly bounded by the configured cap (plus jitter headroom)."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        base=st.floats(1e-4, 1.0, allow_nan=False, allow_infinity=False),
        factor=st.floats(1.0, 4.0, allow_nan=False, allow_infinity=False),
        cap_mult=st.floats(1.0, 10.0, allow_nan=False, allow_infinity=False),
        jitter=st.floats(0.0, 0.9, allow_nan=False, allow_infinity=False),
    )
    @settings(deadline=None, max_examples=60)
    def test_backoff_deterministic_and_bounded(
        self, seed, base, factor, cap_mult, jitter
    ):
        from repro.faults import RetryPolicy

        policy = RetryPolicy(
            request_timeout=1.0,
            max_retries=12,
            backoff_base=base,
            backoff_factor=factor,
            backoff_cap=base * cap_mult,
            jitter=jitter,
        )
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        seq_a = [policy.backoff(k, rng_a) for k in range(12)]
        seq_b = [policy.backoff(k, rng_b) for k in range(12)]
        assert seq_a == seq_b  # bit-identical replay for a fixed seed
        bound = policy.backoff_cap * (1.0 + policy.jitter) + 1e-12
        assert all(0.0 <= d <= bound for d in seq_a)

    @given(
        base=st.floats(1e-4, 1.0, allow_nan=False, allow_infinity=False),
        factor=st.floats(1.0, 4.0, allow_nan=False, allow_infinity=False),
        cap_mult=st.floats(1.0, 10.0, allow_nan=False, allow_infinity=False),
    )
    @settings(deadline=None, max_examples=40)
    def test_backoff_without_jitter_is_exact_and_monotone(
        self, base, factor, cap_mult
    ):
        from repro.faults import RetryPolicy

        policy = RetryPolicy(
            request_timeout=1.0,
            backoff_base=base,
            backoff_factor=factor,
            backoff_cap=base * cap_mult,
        )
        seq = [policy.backoff(k) for k in range(12)]
        for k, d in enumerate(seq):
            assert d == min(policy.backoff_cap, base * factor**k)
        assert all(b >= a for a, b in zip(seq, seq[1:]))
