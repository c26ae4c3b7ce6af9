"""Closed-form performance prediction from compiled request plans.

The predictor computes three classic bounds for the parallel transfer and
takes their maximum (queueing-free bottleneck analysis):

* **server bound** — the busiest I/O daemon's total work: per-message parse
  cost, per-region service cost, disk model time, and (for writes) the
  per-message commit cost;
* **network bound** — the busiest NIC's serialization time (client or
  server side, wire bytes including framing overhead);
* **client bound** — the longest client's critical path: its own CPU
  costs, its wire time, two message latencies per logical request, and its
  requests' *unloaded* service time divided by the per-request server
  parallelism.

Serialized plans (data sieving / hybrid RMW writes) add up client paths
instead of maxing them, plus a barrier term — matching the paper's
``MPI_Barrier()`` loop.

All load attribution is computed *exactly* from the plans via vectorized
striping decomposition; only queueing is approximated.  The test suite
cross-validates predictions against the discrete-event simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..config import ClusterConfig
from ..errors import ModelError
from ..patterns.base import Pattern
from ..pvfs.protocol import REQUEST_HEADER_BYTES, RESPONSE_HEADER_BYTES
from ..regions import split_with_parents
from .plan import RankPlan, compile_rank_plan

__all__ = ["Prediction", "predict_pattern", "predict_plans"]


@dataclass
class Prediction:
    """Predicted elapsed time and its contributing bounds."""

    elapsed: float
    server_bound: float
    network_bound: float
    client_bound: float
    serialized: bool
    n_logical_requests: int
    n_server_messages: int
    moved_bytes: int
    useful_bytes: int
    per_server_work: List[float] = field(default_factory=list)
    per_client_path: List[float] = field(default_factory=list)
    #: Collective exchange time (two-phase metadata + redistribution);
    #: 0 for the independent methods.
    exchange_bound: float = 0.0

    @property
    def wasted_bytes(self) -> int:
        return self.moved_bytes - self.useful_bytes

    def __repr__(self) -> str:
        return (
            f"<Prediction {self.elapsed:.3f}s "
            f"(server={self.server_bound:.3f} net={self.network_bound:.3f} "
            f"client={self.client_bound:.3f}) reqs={self.n_logical_requests}>"
        )


def _wire(cfg: ClusterConfig, payload):
    """Vectorized wire bytes (payload + per-frame overhead)."""
    payload = np.asarray(payload, dtype=np.float64)
    frames = np.ceil(np.maximum(payload, 1) / cfg.network.mtu_payload)
    return payload + frames * (cfg.network.frame_overhead + cfg.network.ip_tcp_overhead)


class _Loads:
    """Accumulated per-server and per-client load totals."""

    def __init__(self, n_servers: int, n_clients: int) -> None:
        self.msgs = np.zeros(n_servers)
        self.pieces = np.zeros(n_servers)
        self.bytes = np.zeros(n_servers)
        self.write_msgs = np.zeros(n_servers)
        self.write_bytes = np.zeros(n_servers)
        self.read_bytes = np.zeros(n_servers)
        self.rx_wire = np.zeros(n_servers)  # into servers
        self.tx_wire = np.zeros(n_servers)  # out of servers
        self.client_tx = np.zeros(n_clients)
        self.client_rx = np.zeros(n_clients)


def _decompose_phase(
    phase: RankPlan, rank: int, cfg: ClusterConfig, loads: _Loads
) -> Dict[str, float]:
    """Attribute one phase's load to servers/links; return rank-local stats."""
    ns = cfg.n_iods
    pcount = cfg.stripe.resolve_pcount(ns)
    pieces, parents, unit = split_with_parents(phase.regions, cfg.stripe.stripe_size)
    if pieces.count == 0:
        return {"msgs": 0.0, "work": 0.0, "req_wire": 0.0, "resp_wire": 0.0}
    server = (cfg.stripe.base + unit % pcount) % ns
    # Group pieces into (server, request) messages.  Request ids never
    # decrease along the pieces (RankPlan checks it), so a stable sort by
    # server leaves the (server, request) key sorted; a message starts
    # wherever the key changes.  Narrow server ids make it a radix sort.
    order = np.argsort(server.astype(np.min_scalar_type(ns - 1)), kind="stable")
    key = (server * np.int64(phase.n_requests) + phase.chunk_of_region[parents])[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    counts = np.diff(first, append=key.size)
    n_msgs = first.size
    msg_server = server[order[first]]
    lengths = pieces.lengths
    msg_bytes = np.add.reduceat(lengths[order], first).astype(np.float64)
    # -- wire sizing per message --------------------------------------
    if phase.wire_mode == "descriptor":
        trailing = np.full(n_msgs, 32.0)
    else:
        trailing = np.where(counts > 1, 16.0 * counts, 0.0)
    if phase.kind == "write":
        req_payload = REQUEST_HEADER_BYTES + trailing + msg_bytes
        resp_payload = np.full(n_msgs, float(RESPONSE_HEADER_BYTES))
    else:
        req_payload = REQUEST_HEADER_BYTES + trailing
        resp_payload = RESPONSE_HEADER_BYTES + msg_bytes
    req_wire = _wire(cfg, req_payload)
    resp_wire = _wire(cfg, resp_payload)
    # -- accumulate -----------------------------------------------------
    server_msgs = np.bincount(msg_server, minlength=ns)
    server_bytes = np.bincount(server, weights=lengths.astype(np.float64), minlength=ns)
    loads.msgs += server_msgs
    loads.pieces += np.bincount(server, minlength=ns)
    loads.bytes += server_bytes
    if phase.kind == "write":
        loads.write_msgs += server_msgs
        loads.write_bytes += server_bytes
    else:
        loads.read_bytes += server_bytes
    loads.rx_wire += np.bincount(msg_server, weights=req_wire, minlength=ns)
    loads.tx_wire += np.bincount(msg_server, weights=resp_wire, minlength=ns)
    loads.client_tx[rank] += req_wire.sum()
    loads.client_rx[rank] += resp_wire.sum()
    # -- rank-local -------------------------------------------------------
    costs = cfg.costs
    nbytes = float(pieces.total_bytes)
    work = (
        n_msgs * costs.iod_request_cost
        + pieces.count * costs.iod_region_cost
        + _disk_time_estimate(cfg, kind=phase.kind, nbytes=nbytes, unique_bytes=nbytes)
    )
    if phase.kind == "write":
        work += n_msgs * costs.iod_write_commit_cost
    return {
        "msgs": float(n_msgs),
        "work": work,
        "req_wire": float(req_wire.sum()),
        "resp_wire": float(resp_wire.sum()),
    }


def _disk_time_estimate(cfg: ClusterConfig, kind: str, nbytes: float, unique_bytes: float) -> float:
    """Disk service estimate for ``nbytes`` of access, of which
    ``unique_bytes`` are first-touch (media) bytes."""
    cache = cfg.cache
    disk = cfg.disk
    memcpy = nbytes / cache.memory_copy_rate
    if kind == "read":
        media = unique_bytes / disk.transfer_rate
        window = max(cache.readahead, cache.block_size)
        positionings = unique_bytes / window
        return memcpy + media + positionings * disk.positioning_time
    # write-back: media only for volume beyond the cache
    spill = max(unique_bytes - cache.capacity, 0.0)
    media = spill / disk.transfer_rate
    positionings = spill / max(cache.capacity, cache.block_size)
    return memcpy + media + positionings * disk.positioning_time


def predict_plans(plans: List[RankPlan], cfg: ClusterConfig) -> Prediction:
    """Predict the elapsed time of one parallel transfer phase-set."""
    if not plans:
        raise ModelError("predict_plans needs at least one rank plan")
    n_clients = len(plans)
    loads = _Loads(cfg.n_iods, n_clients)
    client_paths = np.zeros(n_clients)
    total_requests = 0
    total_msgs = 0
    moved = 0
    useful = 0
    serialized = any(p.serialized for p in plans)
    costs = cfg.costs
    bw = cfg.network.bandwidth
    for rank, plan in enumerate(plans):
        useful += plan.useful_bytes
        for phase in plan.phases():
            stats = _decompose_phase(phase, rank, cfg, loads)
            moved += phase.moved_bytes
            n_req = phase.n_requests
            total_requests += n_req
            total_msgs += int(stats["msgs"])
            if n_req == 0:
                continue
            fanout = max(stats["msgs"] / n_req, 1.0)
            path = (
                n_req * (costs.client_request_cost + 2 * cfg.network.latency)
                + phase.regions.count * costs.client_region_cost
                + (stats["req_wire"] + stats["resp_wire"]) / bw
                + stats["work"] / fanout
                + phase.pack_bytes / costs.memcpy_rate
            )
            if phase.kind == "write":
                path += n_req * costs.client_write_turnaround
            client_paths[rank] += path

    # -- server bound -----------------------------------------------------
    # Shared-cache correction: when several ranks fetch the same bytes
    # (sieving reads overlapping windows), only first touches hit media.
    # Approximate unique read bytes per server by capping at the striped
    # share of the union extent.
    union_cap = _union_extent_bytes(plans) / max(cfg.stripe.resolve_pcount(cfg.n_iods), 1)
    server_work = np.zeros(cfg.n_iods)
    for s in range(cfg.n_iods):
        read_unique = min(loads.read_bytes[s], union_cap)
        work = (
            loads.msgs[s] * costs.iod_request_cost
            + loads.pieces[s] * costs.iod_region_cost
            + loads.write_msgs[s] * costs.iod_write_commit_cost
            + _disk_time_estimate(cfg, "read", loads.read_bytes[s], read_unique)
            + _disk_time_estimate(cfg, "write", loads.write_bytes[s], loads.write_bytes[s])
        )
        server_work[s] = work
    server_bound = float(server_work.max())

    # -- network bound ------------------------------------------------------
    link_times = np.concatenate(
        [loads.rx_wire, loads.tx_wire, loads.client_tx, loads.client_rx]
    ) / bw
    network_bound = float(link_times.max())

    # -- combine ------------------------------------------------------------
    if serialized:
        barrier = n_clients * cfg.network.latency * max(math.ceil(math.log2(max(n_clients, 2))), 1)
        client_bound = float(client_paths.sum()) + barrier
        elapsed = max(client_bound, server_bound, network_bound)
    else:
        client_bound = float(client_paths.max())
        elapsed = max(server_bound, network_bound, client_bound)
    return Prediction(
        elapsed=elapsed,
        server_bound=server_bound,
        network_bound=network_bound,
        client_bound=client_bound,
        serialized=serialized,
        n_logical_requests=total_requests,
        n_server_messages=total_msgs,
        moved_bytes=int(moved),
        useful_bytes=int(useful),
        per_server_work=server_work.tolist(),
        per_client_path=client_paths.tolist(),
    )


def _union_extent_bytes(plans: List[RankPlan]) -> float:
    """Upper estimate of distinct file bytes read across all phases."""
    lo, hi = math.inf, 0
    total = 0
    for plan in plans:
        for phase in plan.phases():
            if phase.kind != "read" or phase.regions.count == 0:
                continue
            a, b = phase.regions.extent
            lo, hi = min(lo, a), max(hi, b)
            total += phase.moved_bytes
    if hi == 0:
        return 0.0
    return float(min(total, hi - lo))


def predict_pattern(
    pattern: Pattern,
    method: str,
    kind: str,
    cfg: ClusterConfig,
    **plan_opts,
) -> Prediction:
    """Compile and predict a whole benchmark pattern."""
    if method == "twophase":
        from .twophase import predict_twophase

        return predict_twophase(pattern, kind, cfg, **plan_opts)
    plans = [
        compile_rank_plan(method, kind, a.mem_regions, a.file_regions, cfg, **plan_opts)
        for a in pattern.accesses
    ]
    return predict_plans(plans, cfg)
