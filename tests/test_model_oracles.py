"""Reference oracles for the analytic model's linear-time kernels.

Each ``ref_*`` function below is the general-purpose implementation that a
linear merge over already-sorted input replaced, kept verbatim: the
``np.union1d`` breakpoint union of :func:`repro.regions.pair_pieces`, the
``np.maximum.at`` run ends of ``coalesced``/``cluster_extents``, the
one-clip-per-window loop of :func:`repro.core.datasieve.sieve_spans`, the
per-window ``while`` loop of ``DataSievingIO._windows``, the ``np.unique``
message grouping of the model's phase decomposition, and the clip-loop
two-phase exchange with its per-round aggregator unions.  Hypothesis checks
the code in ``src/`` against them for exact equality: ``np.array_equal`` on
arrays and ``==`` on floats.  The old ``_windows`` loop is exact only for
sorted, disjoint regions (it assumed sorted piece ends); sorted, overlapping
regions are checked against ``sieve_spans`` instead.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ClusterConfig, StripeParams
from repro.core.datasieve import DataSievingIO, sieve_spans
from repro.core.hybrid import cluster_extents
from repro.core.twophase import wire_order
from repro.errors import ModelError, RegionError
from repro.model import predict as predict_mod
from repro.model import twophase as twophase_mod
from repro.model.plan import RankPlan
from repro.model.predict import _Loads, _wire, predict_plans
from repro.mpiio.twophase import (
    DATA_HEADER,
    META_BYTES_PER_REGION,
    META_HEADER,
    partition_file_domains,
    round_count,
    round_window,
    select_aggregators,
)
from repro.patterns import Pattern, RankAccess
from repro.pvfs.protocol import REQUEST_HEADER_BYTES, RESPONSE_HEADER_BYTES
from repro.regions import RegionList, pair_pieces, split_with_parents

# ---------------------------------------------------------------------------
# the replaced implementations, verbatim
# ---------------------------------------------------------------------------


def ref_pair_pieces(a: RegionList, b: RegionList):
    a = a.drop_empty()
    b = b.drop_empty()
    if a.total_bytes != b.total_bytes:
        raise RegionError(
            f"region lists describe different volumes: {a.total_bytes} vs {b.total_bytes}"
        )
    if a.total_bytes == 0:
        z = np.empty(0, np.int64)
        return z, z.copy(), z.copy()
    cum_a = np.cumsum(a.lengths)
    cum_b = np.cumsum(b.lengths)
    bounds = np.union1d(cum_a, cum_b)  # sorted piece end positions
    piece_end = bounds
    piece_start = np.concatenate(([0], bounds[:-1]))
    piece_len = piece_end - piece_start
    # Source region for each piece: the region whose cumulative range
    # contains piece_start.
    ia = np.searchsorted(cum_a, piece_start, side="right")
    ib = np.searchsorted(cum_b, piece_start, side="right")
    base_a = np.concatenate(([0], cum_a[:-1]))
    base_b = np.concatenate(([0], cum_b[:-1]))
    a_off = a.offsets[ia] + (piece_start - base_a[ia])
    b_off = b.offsets[ib] + (piece_start - base_b[ib])
    return a_off, b_off, piece_len


def ref_coalesced(self: RegionList) -> RegionList:
    r = self.drop_empty().sorted()
    if r.count <= 1:
        return r
    ends = np.maximum.accumulate(r.ends)
    # A new run starts where the offset exceeds the running max end.
    new_run = np.empty(r.count, dtype=bool)
    new_run[0] = True
    new_run[1:] = r.offsets[1:] > ends[:-1]
    starts = r.offsets[new_run]
    run_id = np.cumsum(new_run) - 1
    run_ends = np.zeros(run_id[-1] + 1, dtype=np.int64)
    np.maximum.at(run_ends, run_id, r.ends)
    return RegionList._trusted(starts, run_ends - starts, nonempty=True)


def ref_cluster_extents(file_regions: RegionList, gap_threshold: int) -> RegionList:
    if gap_threshold < 0:
        raise RegionError("gap_threshold must be non-negative")
    r = ref_coalesced(file_regions)
    if r.count <= 1:
        return r
    gaps = r.offsets[1:] - r.ends[:-1]
    new_cluster = np.empty(r.count, dtype=bool)
    new_cluster[0] = True
    new_cluster[1:] = gaps > gap_threshold
    starts = r.offsets[new_cluster]
    cluster_id = np.cumsum(new_cluster) - 1
    ends = np.zeros(cluster_id[-1] + 1, dtype=np.int64)
    np.maximum.at(ends, cluster_id, r.ends)
    return RegionList(starts, ends - starts)


def ref_sieve_spans(file_regions: RegionList, buffer_size: int):
    if buffer_size <= 0:
        raise RegionError("sieve buffer size must be positive")
    r = file_regions.drop_empty()
    if not r.is_sorted():
        raise RegionError("data sieving requires file regions sorted by offset")
    if r.count == 0:
        return RegionList.empty(), np.empty(0, np.int64)
    start, end = r.extent
    span_off, span_len, useful = [], [], []
    w0 = start
    while w0 < end:
        w1 = min(w0 + buffer_size, end)
        clipped = r.clip(w0, w1)
        if clipped.count:
            lo, hi = clipped.extent
            span_off.append(lo)
            span_len.append(hi - lo)
            useful.append(clipped.total_bytes)
        w0 = w1
    return (
        RegionList(np.array(span_off, np.int64), np.array(span_len, np.int64)),
        np.array(useful, np.int64),
    )


def ref_windows(self, f, memory, mem_regions, file_regions):
    """Yield per-window work: (read_lo, read_hi, piece arrays).

    Pieces are contiguous in both memory and the file; each window's
    read span is trimmed to the pieces it actually contains, and pieces
    crossing a window edge are split.
    """
    mem_off, file_off, lengths = pair_pieces(mem_regions, file_regions)
    if lengths.size == 0:
        return
    file_end = file_off + lengths
    bsize = self._buffer(f)
    start, end = int(file_off[0]), int(file_end[-1])
    w0 = start
    while w0 < end:
        w1 = min(w0 + bsize, end)
        # pieces overlapping [w0, w1)
        first = int(np.searchsorted(file_end, w0, side="right"))
        last = int(np.searchsorted(file_off, w1, side="left"))
        if first >= last:
            w0 = w1
            continue
        fo = file_off[first:last].copy()
        fe = file_end[first:last].copy()
        mo = mem_off[first:last].copy()
        # clip boundary-crossing pieces to the window
        head_trim = np.maximum(w0 - fo, 0)
        fo += head_trim
        mo += head_trim
        fe = np.minimum(fe, w1)
        ln = fe - fo
        yield int(fo[0]), int(fe[-1]), mo, fo, ln
        w0 = w1


def ref_decompose_phase(phase: RankPlan, rank: int, cfg: ClusterConfig, loads: _Loads):
    """The ``np.unique`` grouping (pieces and parents from the shared split)."""
    pcount = cfg.stripe.resolve_pcount(cfg.n_iods)
    ssize = cfg.stripe.stripe_size
    pieces, parents, _units = split_with_parents(phase.regions, ssize)
    if pieces.count == 0:
        return {"msgs": 0.0, "work": 0.0, "req_wire": 0.0, "resp_wire": 0.0}
    unit = pieces.offsets // ssize
    server = ((cfg.stripe.base + unit % pcount) % cfg.n_iods).astype(np.int64)
    chunk = phase.chunk_of_region[parents]
    key = server * np.int64(phase.n_requests) + chunk
    uniq, inverse, counts = np.unique(key, return_inverse=True, return_counts=True)
    msg_server = (uniq // phase.n_requests).astype(np.int64)
    msg_bytes = np.bincount(inverse, weights=pieces.lengths.astype(np.float64))
    # -- wire sizing per message --------------------------------------
    if phase.wire_mode == "descriptor":
        trailing = np.full(len(uniq), 32.0)
    else:
        trailing = np.where(counts > 1, 16.0 * counts, 0.0)
    if phase.kind == "write":
        req_payload = REQUEST_HEADER_BYTES + trailing + msg_bytes
        resp_payload = np.full(len(uniq), float(RESPONSE_HEADER_BYTES))
    else:
        req_payload = REQUEST_HEADER_BYTES + trailing
        resp_payload = RESPONSE_HEADER_BYTES + msg_bytes
    req_wire = _wire(cfg, req_payload)
    resp_wire = _wire(cfg, resp_payload)
    # -- accumulate -----------------------------------------------------
    ns = cfg.n_iods
    loads.msgs += np.bincount(msg_server, minlength=ns)
    loads.pieces += np.bincount(server, minlength=ns)
    loads.bytes += np.bincount(server, weights=pieces.lengths.astype(np.float64), minlength=ns)
    if phase.kind == "write":
        loads.write_msgs += np.bincount(msg_server, minlength=ns)
        loads.write_bytes += np.bincount(
            server, weights=pieces.lengths.astype(np.float64), minlength=ns
        )
    else:
        loads.read_bytes += np.bincount(
            server, weights=pieces.lengths.astype(np.float64), minlength=ns
        )
    loads.rx_wire += np.bincount(msg_server, weights=req_wire, minlength=ns)
    loads.tx_wire += np.bincount(msg_server, weights=resp_wire, minlength=ns)
    loads.client_tx[rank] += req_wire.sum()
    loads.client_rx[rank] += resp_wire.sum()
    # -- rank-local -------------------------------------------------------
    costs = cfg.costs
    work = (
        len(uniq) * costs.iod_request_cost
        + pieces.count * costs.iod_region_cost
        + predict_mod._disk_time_estimate(
            cfg,
            kind=phase.kind,
            nbytes=float(pieces.lengths.sum()),
            unique_bytes=float(pieces.lengths.sum()),
        )
    )
    if phase.kind == "write":
        work += len(uniq) * costs.iod_write_commit_cost
    return {
        "msgs": float(len(uniq)),
        "work": work,
        "req_wire": float(req_wire.sum()),
        "resp_wire": float(resp_wire.sum()),
    }


def ref_aggregator_regions(
    metas: dict, domains: List[Tuple[int, int]], rank: int, rounds: int, cb_buffer: Optional[int]
) -> RegionList:
    out = RegionList.empty()
    for rnd in range(rounds):
        wa, wb = round_window(domains[rank], rnd, cb_buffer)
        union = RegionList.empty()
        for r in metas.values():
            union = union.concat(r.clip(wa, wb))
        out = out.concat(union.coalesced())
    return out


def ref_predict_twophase(pattern, kind, cfg, *, cb_nodes=None, cb_buffer=None):
    n = pattern.n_ranks
    n_agg = len(select_aggregators(n, cb_nodes))
    metas = {}
    for rank, access in enumerate(pattern.accesses):
        regions, _order = wire_order(access.file_regions)
        metas[rank] = regions
    domains = partition_file_domains(metas, n, n_agg, cfg.stripe.stripe_size)
    rounds = round_count(domains, cb_buffer)
    cap = cfg.list_io_max_regions

    # -- file phase: only aggregators touch PVFS -----------------------
    plans = []
    for rank in range(n):
        regions = ref_aggregator_regions(metas, domains, rank, rounds, cb_buffer)
        plans.append(
            RankPlan(
                method="twophase",
                kind=kind,
                regions=regions,
                chunk_of_region=np.arange(regions.count, dtype=np.int64) // cap,
                useful_bytes=regions.total_bytes,
                pack_bytes=regions.total_bytes,
            )
        )
    file_pred = predict_plans(plans, cfg)

    # -- exchange phase: per-rank wire + memcpy critical path ----------
    bw = cfg.network.bandwidth
    memcpy = cfg.costs.memcpy_rate
    meta_msg = np.array(
        [META_HEADER + META_BYTES_PER_REGION * metas[r].count for r in range(n)], np.float64
    )
    meta_wire = _wire(cfg, meta_msg)
    exchange = np.zeros(n)
    exchange_payload = 0
    for rank in range(n):
        tx = (n - 1) * meta_wire[rank]
        rx = float(meta_wire.sum() - meta_wire[rank])
        for rnd in range(rounds):
            windows = [round_window(d, rnd, cb_buffer) for d in domains]
            for d, (wa, wb) in enumerate(windows):
                if kind == "write":
                    # rank ships its clip to aggregator d; d receives all clips
                    mine = metas[rank].clip(wa, wb)
                    if mine.count and d != rank:
                        msg = DATA_HEADER + META_BYTES_PER_REGION * mine.count
                        tx += float(_wire(cfg, msg + mine.total_bytes))
                        exchange_payload += mine.total_bytes
                    if d == rank:
                        for src, r in metas.items():
                            got = r.clip(wa, wb)
                            if got.count and src != rank:
                                msg = DATA_HEADER + META_BYTES_PER_REGION * got.count
                                rx += float(_wire(cfg, msg + got.total_bytes))
                else:
                    # aggregator d ships each requester its pieces
                    mine = metas[rank].clip(wa, wb)
                    if mine.count and d != rank:
                        rx += float(_wire(cfg, DATA_HEADER + mine.total_bytes))
                        exchange_payload += mine.total_bytes
                    if d == rank:
                        for req, r in metas.items():
                            want = r.clip(wa, wb)
                            if want.count and req != rank:
                                tx += float(_wire(cfg, DATA_HEADER + want.total_bytes))
        pack = metas[rank].total_bytes / memcpy  # pack (write) / unpack (read)
        exchange[rank] = pack + (tx + rx) / bw + cfg.network.latency * (1 + rounds)
    exchange_bound = float(exchange.max())

    return predict_mod.Prediction(
        elapsed=exchange_bound + file_pred.elapsed,
        server_bound=file_pred.server_bound,
        network_bound=file_pred.network_bound,
        client_bound=file_pred.client_bound,
        serialized=False,
        n_logical_requests=file_pred.n_logical_requests,
        n_server_messages=file_pred.n_server_messages,
        moved_bytes=file_pred.moved_bytes + int(exchange_payload),
        useful_bytes=int(pattern.total_bytes),
        per_server_work=file_pred.per_server_work,
        per_client_path=file_pred.per_client_path,
        exchange_bound=exchange_bound,
    )


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


def assert_same_regions(got: RegionList, want: RegionList) -> None:
    assert np.array_equal(got.offsets, want.offsets)
    assert np.array_equal(got.lengths, want.lengths)
    assert got.offsets.dtype == want.offsets.dtype == np.int64


@st.composite
def region_lists(draw, max_regions=30, max_offset=5000, max_len=200, min_len=0):
    """Unsorted, possibly overlapping, zero-length or empty lists."""
    n = draw(st.integers(0, max_regions))
    offsets = draw(st.lists(st.integers(0, max_offset), min_size=n, max_size=n))
    lengths = draw(st.lists(st.integers(min_len, max_len), min_size=n, max_size=n))
    return RegionList(offsets, lengths)


@st.composite
def stream_lists(draw, total: int, max_regions=30):
    """A list carrying ``total`` bytes: one region, or many cut at random
    stream positions (repeated cuts give zero-length regions) placed at
    arbitrary, possibly overlapping offsets."""
    if draw(st.booleans()):
        return RegionList.single(draw(st.integers(0, 5000)), total)
    n_cuts = draw(st.integers(0, max_regions))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=n_cuts, max_size=n_cuts)))
    lengths = np.diff([0] + cuts + [total])
    offsets = draw(st.lists(st.integers(0, 5000), min_size=lengths.size, max_size=lengths.size))
    return RegionList(offsets, lengths)


@st.composite
def disjoint_lists(draw, max_regions=12, max_gap=400, max_len=300, shuffle=True):
    """Disjoint non-empty regions (possibly none), in shuffled order."""
    n = draw(st.integers(0, max_regions))
    lengths = draw(st.lists(st.integers(1, max_len), min_size=n, max_size=n))
    gaps = draw(st.lists(st.integers(0, max_gap), min_size=n, max_size=n))
    offs, pos = [], 0
    for ln, gap in zip(lengths, gaps):
        offs.append(pos + gap)
        pos += gap + ln
    r = RegionList(np.array(offs, np.int64), np.array(lengths, np.int64))
    if shuffle and n > 1:
        r = r.take(np.array(draw(st.permutations(range(n)))))
    return r


@st.composite
def cluster_configs(draw, n_clients=4):
    n_iods = draw(st.integers(1, 12))
    pcount = draw(st.one_of(st.none(), st.integers(1, n_iods)))
    stripe = StripeParams(
        stripe_size=draw(st.sampled_from([1, 7, 64, 512, 16384])),
        base=draw(st.integers(0, n_iods - 1)),
        pcount=pcount,
    )
    return ClusterConfig(
        n_clients=n_clients,
        n_iods=n_iods,
        stripe=stripe,
        list_io_max_regions=draw(st.sampled_from([1, 3, 64])),
    )


@st.composite
def patterns(draw, max_ranks=5):
    """Multi-rank patterns whose ranks may hold no regions at all; each
    rank's regions are disjoint but arrive unsorted."""
    n = draw(st.integers(1, max_ranks))
    accesses = []
    for rank in range(n):
        regions = draw(disjoint_lists(max_regions=10))
        shift = draw(st.integers(0, 3000))
        regions = regions.shift(shift) if regions.count else regions
        accesses.append(
            RankAccess(
                rank=rank,
                mem_regions=RegionList.single(0, regions.total_bytes),
                file_regions=regions,
            )
        )
    return Pattern(name="oracle", accesses=tuple(accesses), file_size=1)


cb_buffers = st.one_of(st.none(), st.integers(16, 256), st.integers(257, 5000))


# ---------------------------------------------------------------------------
# pair_pieces: breakpoint merge == np.union1d
# ---------------------------------------------------------------------------


class TestPairPiecesMerge:
    @given(st.data(), st.integers(0, 3000))
    def test_matches_union1d(self, data, total):
        a = data.draw(stream_lists(total))
        b = data.draw(stream_lists(total))
        for got, want in zip(pair_pieces(a, b), ref_pair_pieces(a, b)):
            assert np.array_equal(got, want)
            assert got.dtype == want.dtype

    @given(st.data(), st.integers(1, 3000))
    def test_many_region_lists_both_ways(self, data, total):
        # a longer than b, then b longer than a: both merge directions
        a = data.draw(stream_lists(total, max_regions=60))
        b = data.draw(stream_lists(total, max_regions=5))
        for x, y in ((a, b), (b, a), (a, a)):
            for got, want in zip(pair_pieces(x, y), ref_pair_pieces(x, y)):
                assert np.array_equal(got, want)

    def test_empty_and_all_zero_length(self):
        z = RegionList([3, 9], [0, 0])
        for x, y in ((RegionList.empty(), RegionList.empty()), (z, RegionList.empty())):
            for got, want in zip(pair_pieces(x, y), ref_pair_pieces(x, y)):
                assert np.array_equal(got, want)

    def test_volume_mismatch_still_rejected(self):
        with pytest.raises(RegionError):
            pair_pieces(RegionList([0], [5]), RegionList([0, 9], [2, 2]))


# ---------------------------------------------------------------------------
# coalesced / cluster_extents: running-max run ends == np.maximum.at
# ---------------------------------------------------------------------------


class TestRunEnds:
    @given(region_lists())
    def test_coalesced_matches_maximum_at(self, r):
        assert_same_regions(r.coalesced(), ref_coalesced(r))

    @given(region_lists(max_len=2000))
    def test_coalesced_long_overlapping_regions(self, r):
        # long regions swallow many later ones: run ends come from the
        # running maximum, not from each run's last region
        assert_same_regions(r.coalesced(), ref_coalesced(r))

    @given(region_lists(), st.integers(0, 300))
    def test_cluster_extents_matches_maximum_at(self, r, gap):
        assert_same_regions(cluster_extents(r, gap), ref_cluster_extents(r, gap))

    @given(disjoint_lists(max_regions=20, max_gap=40), st.integers(0, 50))
    def test_cluster_extents_gaps_near_threshold(self, r, gap):
        assert_same_regions(cluster_extents(r, gap), ref_cluster_extents(r, gap))


# ---------------------------------------------------------------------------
# sieve_spans: one split + reduceat == one clip per window
# ---------------------------------------------------------------------------


class TestSieveSpans:
    @given(region_lists(max_len=400), st.integers(16, 1024))
    def test_matches_window_loop(self, r, buffer_size):
        # sorted by offset, possibly overlapping or zero-length; windows are
        # crossed by long regions and left empty by gaps
        r = r.sorted()
        spans, useful = sieve_spans(r, buffer_size)
        ref_spans, ref_useful = ref_sieve_spans(r, buffer_size)
        assert_same_regions(spans, ref_spans)
        assert np.array_equal(useful, ref_useful)
        assert useful.dtype == ref_useful.dtype

    @given(disjoint_lists(max_regions=25, max_gap=3000, shuffle=False), st.integers(8, 200))
    def test_disjoint_lists_many_windows(self, r, buffer_size):
        spans, useful = sieve_spans(r, buffer_size)
        ref_spans, ref_useful = ref_sieve_spans(r, buffer_size)
        assert_same_regions(spans, ref_spans)
        assert np.array_equal(useful, ref_useful)

    def test_far_apart_regions_skip_empty_windows(self):
        # The window loop visits every window between the two regions: at
        # a 32 MiB buffer that is about 3.4e7 empty windows.
        far = 1 << 50
        r = RegionList([0, far], [10, 10])
        spans, useful = sieve_spans(r, 32 * 1024 * 1024)
        assert list(spans) == [(0, 10), (far, 10)]
        assert useful.tolist() == [10, 10]

    def test_unsorted_still_rejected(self):
        with pytest.raises(RegionError):
            sieve_spans(RegionList([50, 0], [5, 5]), 16)


# ---------------------------------------------------------------------------
# DataSievingIO._windows: the sieve_spans planner == the per-window loop
# ---------------------------------------------------------------------------


class TestSieveWindows:
    @given(
        disjoint_lists(max_regions=25, max_gap=3000, shuffle=False),
        st.integers(8, 200),
        st.data(),
    )
    def test_matches_window_loop_on_disjoint_lists(self, fil, buffer_size, data):
        mem = data.draw(stream_lists(fil.total_bytes))
        method = DataSievingIO(buffer_size)
        got = list(method._windows(None, mem, fil))
        want = list(ref_windows(method, None, None, mem, fil))
        assert len(got) == len(want)
        for (lo, hi, *arrays), (ref_lo, ref_hi, *ref_arrays) in zip(got, want):
            assert (lo, hi) == (ref_lo, ref_hi)
            for a, b in zip(arrays, ref_arrays):
                assert np.array_equal(a, b)
                assert a.dtype == b.dtype

    @given(
        region_lists(max_len=400),
        st.one_of(st.integers(1, 512), st.integers(1, 1 << 40)),
        st.data(),
    )
    def test_spans_match_sieve_spans(self, fil, buffer_size, data):
        # sorted by offset, possibly overlapping or nested: the model and
        # the simulator plan the same spans with the same useful bytes
        fil = fil.sorted()
        mem = data.draw(stream_lists(fil.total_bytes))
        windows = list(DataSievingIO(buffer_size)._windows(None, mem, fil))
        spans, useful = sieve_spans(fil, buffer_size)
        assert [(lo, hi - lo) for lo, hi, *_ in windows] == list(spans)
        assert [int(ln.sum()) for *_, ln in windows] == useful.tolist()

    def test_far_apart_regions_plan_two_windows(self):
        # The window loop visits every window between the two regions: at
        # a 32 MiB buffer that is about 3.4e7 empty windows.
        far = 1 << 50
        fil = RegionList([0, far], [10, 10])
        method = DataSievingIO(32 * 1024 * 1024)
        windows = list(method._windows(None, RegionList.single(0, 20), fil))
        assert [(lo, hi) for lo, hi, *_ in windows] == [(0, 10), (far, far + 10)]
        assert [mo.tolist() for _, _, mo, _, _ in windows] == [[0], [10]]


# ---------------------------------------------------------------------------
# phase decomposition: sorted-key grouping == np.unique
# ---------------------------------------------------------------------------


def _loads_equal(a: _Loads, b: _Loads) -> None:
    for name, value in vars(a).items():
        assert np.array_equal(value, getattr(b, name)), name


@st.composite
def phases(draw):
    regions = draw(region_lists(max_regions=40, max_offset=100_000, max_len=600, min_len=1))
    steps = draw(st.lists(st.integers(0, 2), min_size=regions.count, max_size=regions.count))
    chunks = np.cumsum(np.array(steps, np.int64)) - (steps[0] if steps else 0)
    return RankPlan(
        method="list",
        kind=draw(st.sampled_from(["read", "write"])),
        regions=regions,
        chunk_of_region=chunks,
        useful_bytes=regions.total_bytes,
        wire_mode=draw(st.sampled_from(["per_region", "descriptor"])),
    )


class TestMessageGrouping:
    @given(phases(), cluster_configs(), st.integers(0, 3))
    def test_matches_unique(self, phase, cfg, rank):
        got_loads, want_loads = _Loads(cfg.n_iods, 4), _Loads(cfg.n_iods, 4)
        got = predict_mod._decompose_phase(phase, rank, cfg, got_loads)
        want = ref_decompose_phase(phase, rank, cfg, want_loads)
        assert got == want
        _loads_equal(got_loads, want_loads)

    @settings(max_examples=40)
    @given(cluster_configs())
    def test_one_request_many_stripes(self, cfg):
        # a vector-style single request spread over every server
        regions = RegionList.strided(0, 60, 300, 700)
        phase = RankPlan(
            method="vector",
            kind="read",
            regions=regions,
            chunk_of_region=np.zeros(regions.count, np.int64),
            useful_bytes=regions.total_bytes,
            wire_mode="descriptor",
        )
        got_loads, want_loads = _Loads(cfg.n_iods, 1), _Loads(cfg.n_iods, 1)
        got = predict_mod._decompose_phase(phase, 0, cfg, got_loads)
        assert got == ref_decompose_phase(phase, 0, cfg, want_loads)
        _loads_equal(got_loads, want_loads)


# ---------------------------------------------------------------------------
# two-phase: clip tables + one coalesced union == the clip loops
# ---------------------------------------------------------------------------


def _metas_and_domains(pattern, cfg, cb_nodes):
    n = pattern.n_ranks
    metas = {r: wire_order(a.file_regions)[0] for r, a in enumerate(pattern.accesses)}
    n_agg = len(select_aggregators(n, cb_nodes))
    return metas, partition_file_domains(metas, n, n_agg, cfg.stripe.stripe_size)


class TestTwoPhase:
    @settings(max_examples=60)
    @given(patterns(), cb_buffers, st.data())
    def test_aggregator_regions_match_per_round_unions(self, pattern, cb_buffer, data):
        cfg = ClusterConfig(n_clients=pattern.n_ranks, stripe=StripeParams(stripe_size=64))
        cb_nodes = data.draw(st.integers(1, pattern.n_ranks))
        metas, domains = _metas_and_domains(pattern, cfg, cb_nodes)
        rounds = round_count(domains, cb_buffer)
        union = RegionList(
            np.concatenate([r.offsets for r in metas.values()]),
            np.concatenate([r.lengths for r in metas.values()]),
        ).coalesced()
        for rank in range(pattern.n_ranks):
            got = twophase_mod._aggregator_regions(union, domains[rank], cb_buffer)
            want = ref_aggregator_regions(metas, domains, rank, rounds, cb_buffer)
            assert_same_regions(got, want)

    @given(disjoint_lists(max_regions=15, shuffle=False), st.data())
    def test_clip_table_matches_clip(self, regions, data):
        windows = data.draw(
            st.lists(st.tuples(st.integers(0, 6000), st.integers(0, 400)), max_size=20)
        )
        wa = np.array([a for a, _ in windows], np.int64)
        wb = np.array([a + w for a, w in windows], np.int64)
        count, nbytes = twophase_mod._clip_table(regions, wa, wb)
        for i, (a, b) in enumerate(zip(wa.tolist(), wb.tolist())):
            clipped = regions.clip(a, b)
            assert count[i] == clipped.count
            assert nbytes[i] == clipped.total_bytes

    @settings(max_examples=60)
    @given(
        patterns(),
        st.sampled_from(["read", "write"]),
        cb_buffers,
        st.data(),
    )
    def test_prediction_matches_clip_loop(self, pattern, kind, cb_buffer, data):
        cfg = ClusterConfig(
            n_clients=pattern.n_ranks,
            n_iods=data.draw(st.integers(1, 6)),
            stripe=StripeParams(stripe_size=data.draw(st.sampled_from([32, 512]))),
        )
        cb_nodes = data.draw(st.one_of(st.none(), st.integers(1, pattern.n_ranks)))
        got = twophase_mod.predict_twophase(
            pattern, kind, cfg, cb_nodes=cb_nodes, cb_buffer=cb_buffer
        )
        want = ref_predict_twophase(pattern, kind, cfg, cb_nodes=cb_nodes, cb_buffer=cb_buffer)
        assert dataclasses.asdict(got) == dataclasses.asdict(want)

    def test_multi_round_paper_like_pattern(self):
        from repro.patterns import one_dim_cyclic

        pattern = one_dim_cyclic(1 << 20, 4, 96)
        cfg = ClusterConfig.chiba_city(n_clients=4)
        for kind in ("read", "write"):
            for cb_buffer in (None, 4096, 50_000):
                got = twophase_mod.predict_twophase(pattern, kind, cfg, cb_buffer=cb_buffer)
                want = ref_predict_twophase(pattern, kind, cfg, cb_buffer=cb_buffer)
                assert dataclasses.asdict(got) == dataclasses.asdict(want)


# ---------------------------------------------------------------------------
# the invariant the grouping relies on
# ---------------------------------------------------------------------------


class TestChunkOrderInvariant:
    def test_decreasing_chunk_ids_rejected(self):
        with pytest.raises(ModelError, match="non-decreasing"):
            RankPlan(
                method="list",
                kind="read",
                regions=RegionList([0, 10, 20], [5, 5, 5]),
                chunk_of_region=np.array([0, 1, 0]),
                useful_bytes=15,
            )

    def test_negative_chunk_ids_rejected(self):
        with pytest.raises(ModelError):
            RankPlan(
                method="list",
                kind="read",
                regions=RegionList([0, 10], [5, 5]),
                chunk_of_region=np.array([-1, 0]),
                useful_bytes=10,
            )

    def test_repeated_chunk_ids_accepted(self):
        plan = RankPlan(
            method="list",
            kind="read",
            regions=RegionList([0, 10, 20], [5, 5, 5]),
            chunk_of_region=np.array([0, 0, 1]),
            useful_bytes=15,
        )
        assert plan.n_requests == 2
