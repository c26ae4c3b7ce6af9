"""Analytic model of two-phase collective I/O.

Mirrors the engine in :mod:`repro.mpiio.twophase` request-for-request:
every rank ships its offset list to all peers, the first ``cb_nodes``
ranks aggregate stripe-aligned file domains, and each collective-buffer
round redistributes data before (writes) or after (reads) one list-I/O
access per aggregator.

The file phase reuses :func:`repro.model.predict.predict_plans` on the
*aggregators'* plans (the only ranks that touch the file system), and the
exchange phases are charged as a separate per-rank critical path:

``pack + (meta wire + data wire) / bandwidth + latency * (1 + rounds)``

whose maximum across ranks becomes :attr:`Prediction.exchange_bound`.
The predicted elapsed time is ``exchange_bound + file phase``, which the
test suite cross-validates against the discrete-event simulator and the
crossover studies use to predict where two-phase overtakes list I/O.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..config import ClusterConfig
from ..core.twophase import wire_order
from ..mpiio.twophase import (
    DATA_HEADER,
    META_BYTES_PER_REGION,
    META_HEADER,
    partition_file_domains,
    round_count,
    round_window,
    select_aggregators,
)
from ..patterns.base import Pattern
from ..regions import RegionList
from .plan import RankPlan
from .predict import Prediction, _wire, predict_plans

__all__ = ["predict_twophase", "crossover_point"]


def _aggregator_regions(
    union: RegionList, domain: Tuple[int, int], cb_buffer: Optional[int]
) -> RegionList:
    """File regions an aggregator accesses, in round order: the coalesced
    ``union`` of every rank's regions clipped to each round's window of
    ``domain`` (the engine's merged per-window union)."""
    a, b = domain
    lo = np.searchsorted(union.ends, a, side="right")
    hi = np.searchsorted(union.offsets, b)
    regions = union.slice_regions(lo, hi).clip(a, b)
    if cb_buffer is None or regions.count == 0:
        return regions
    # Rounds cut the domain every cb_buffer bytes from its start.
    return regions.shift(-a).split_at_boundaries(cb_buffer).shift(a)


def _clip_table(regions: RegionList, wa: np.ndarray, wb: np.ndarray):
    """``(count, total_bytes)`` of ``regions.clip(wa[i], wb[i])`` for every
    window ``i``, by binary search over a sorted, disjoint list."""
    if regions.count == 0:
        zero = np.zeros(wa.shape, np.int64)
        return zero, zero
    off, ends = regions.offsets, regions.ends
    i0 = np.searchsorted(ends, wa, side="right")  # first region ending after wa
    i1 = np.searchsorted(off, wb)  # first region starting at or after wb
    count = np.where(wa < wb, i1 - i0, 0)
    cum = np.concatenate(([0], np.cumsum(regions.lengths)))
    head = np.maximum(wa - off[np.minimum(i0, off.size - 1)], 0)
    tail = np.maximum(ends[np.maximum(i1 - 1, 0)] - wb, 0)
    return count, np.where(count > 0, cum[i1] - cum[i0] - head - tail, 0)


def predict_twophase(
    pattern: Pattern,
    kind: str,
    cfg: ClusterConfig,
    *,
    cb_nodes: Optional[int] = None,
    cb_buffer: Optional[int] = None,
    **_ignored,
) -> Prediction:
    """Predict one two-phase collective transfer over ``pattern``."""
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
    union = RegionList(
        np.concatenate([r.offsets for r in metas.values()]),
        np.concatenate([r.lengths for r in metas.values()]),
    ).coalesced()
    plans = []
    for rank in range(n):
        regions = _aggregator_regions(union, domains[rank], cb_buffer)
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
    # Source src sends aggregator d one data message in round rnd when its
    # regions clipped to d's round window are non-empty; axes (src, rnd, d).
    windows = np.array(
        [[round_window(d, rnd, cb_buffer) for d in domains] for rnd in range(rounds)], np.int64
    )
    tables = [_clip_table(metas[src], windows[..., 0], windows[..., 1]) for src in range(n)]
    count = np.array([c for c, _ in tables])
    nbytes = np.array([b for _, b in tables])
    if kind == "write":  # rank ships its clip (offsets + data) to aggregator d
        wire = _wire(cfg, DATA_HEADER + META_BYTES_PER_REGION * count + nbytes)
    else:  # aggregator d ships each requester its pieces
        wire = _wire(cfg, DATA_HEADER + nbytes)
    remote = count > 0
    remote[np.arange(n), :, np.arange(n)] = False
    # Writes counted at senders, reads at requesters: each transfer once.
    exchange_payload = int(nbytes[remote].sum())
    exchange = np.zeros(n)
    for rank in range(n):
        tx = (n - 1) * meta_wire[rank]
        rx = float(meta_wire.sum() - meta_wire[rank])
        # Accumulated in exchange order: round by round, this rank's own
        # messages by aggregator, and as an aggregator its peers' by rank.
        own = wire[rank][remote[rank]].tolist()
        peers = wire[:, :, rank].T[remote[:, :, rank].T].tolist()
        sent, received = (own, peers) if kind == "write" else (peers, own)
        for w in sent:
            tx += w
        for w in received:
            rx += w
        pack = metas[rank].total_bytes / memcpy  # pack (write) / unpack (read)
        exchange[rank] = pack + (tx + rx) / bw + cfg.network.latency * (1 + rounds)
    exchange_bound = float(exchange.max())

    return Prediction(
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


def crossover_point(
    xs: Sequence[float], twophase: Sequence[float], other: Sequence[float]
) -> Optional[float]:
    """First sweep coordinate where two-phase beats ``other`` (None if it
    never does)."""
    for x, a, b in zip(xs, twophase, other):
        if a < b:
            return x
    return None
