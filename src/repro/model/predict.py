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

All load attribution is computed *exactly* from the plans; only queueing
is approximated.  Every load is a sum over requests and contiguous regions,
so a phase is priced by its regions' *slots* (one per region and server it
touches), never by stripe-unit pieces, and plans are priced one rank at a
time as they arrive.  The test suite cross-validates predictions against
the discrete-event simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List

import numpy as np

from ..config import ClusterConfig
from ..core.datatype import VECTOR_DESCRIPTOR_SLOTS
from ..errors import ModelError
from ..patterns.base import Pattern
from ..pvfs.protocol import BYTES_PER_REGION, REQUEST_HEADER_BYTES, RESPONSE_HEADER_BYTES
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
        #: Per-rank totals; predict_plans appends each rank's as it arrives.
        self.client_tx = [0.0] * n_clients
        self.client_rx = [0.0] * n_clients


def _decompose_phase(
    phase: RankPlan, rank: int, cfg: ClusterConfig, loads: _Loads
) -> Dict[str, float]:
    """Attribute one phase's load to servers/links; return rank-local stats.

    Loads are summed over *slots*: a slot is one (region, server) pair the
    region touches.  A region covering stripe units ``u0..u0+k-1`` has
    ``min(k, pcount)`` slots; slot ``d`` sits on the server of unit
    ``u0 + d`` and holds every ``pcount``-th piece from there,
    ``ceil((k - d) / pcount)`` of them, all whole stripe units except for
    the head cut on slot 0 and the tail cut on slot ``(k - 1) % pcount``.
    One region's slots sit on distinct servers, so a message is the set of
    one request's slots on one server.
    """
    regions = phase.regions
    ns = cfg.n_iods
    pcount = cfg.stripe.resolve_pcount(ns)
    ssize = cfg.stripe.stripe_size
    offsets, ends = regions.offsets, regions.ends
    unit = offsets // ssize  # first stripe unit of each region
    k = (ends - 1) // ssize - unit + 1  # its pieces (regions are non-empty)
    n_pieces = int(k.sum())
    # Slot i is region i's slot 0.  A region over several units and servers
    # also has slots 1 .. min(k, pcount) - 1, appended after the regions.
    slot_unit, slot_pieces, slot_bytes, more_region = unit, k, regions.lengths, None
    if pcount > 1 and n_pieces > regions.count:
        wide = np.flatnonzero(k > 1)
        k_wide = k[wide]
        width = np.minimum(k_wide, pcount)
        first = np.cumsum(width) - width  # each wide region's slot 0
        region = np.repeat(wide, width)
        d = np.arange(region.size) - np.repeat(first, width)
        wide_pieces = (k[region] - d + (pcount - 1)) // pcount
        wide_bytes = wide_pieces * ssize
        wide_bytes[first] -= offsets[wide] - unit[wide] * ssize  # head cut
        wide_bytes[first + (k_wide - 1) % pcount] -= (unit[wide] + k_wide) * ssize - ends[wide]
        more = np.flatnonzero(d)
        more_region = region[more]
        slot_unit = np.concatenate((unit, unit[more_region] + d[more]))
        slot_pieces = np.concatenate((k, wide_pieces[more]))
        slot_bytes = np.concatenate((regions.lengths, wide_bytes[more]))
        slot_pieces[wide], slot_bytes[wide] = wide_pieces[first], wide_bytes[first]
    server = slot_unit % pcount  # place in the stripe rotation
    if cfg.stripe.base:
        server = (server + cfg.stripe.base) % ns
    # Group slots into (request, server) messages.  Chunk ids never
    # decrease (RankPlan checks it); where they strictly increase, each
    # request is one region and each slot a message of its own.
    step = phase.chunk_of_region[1:] != phase.chunk_of_region[:-1]
    if step.all():
        msg_server, counts, msg_bytes = server, slot_pieces, slot_bytes
    else:
        # One bin per (request, server); chunk ids may skip values, so number
        # the requests densely when the ids outnumber the regions.
        request = phase.chunk_of_region
        if phase.n_requests > regions.count:
            request = np.concatenate(([0], np.cumsum(step)))
        if more_region is not None:
            request = np.concatenate((request, request[more_region]))
        key = request * ns + server
        counts = np.bincount(key, weights=slot_pieces)
        live = np.flatnonzero(counts)
        counts = counts[live]
        msg_bytes = np.bincount(key, weights=slot_bytes)[live]
        msg_server = live % ns
    n_msgs = msg_server.size
    # -- wire sizing per message --------------------------------------
    if phase.wire_mode == "descriptor":
        trailing = np.full(n_msgs, float(BYTES_PER_REGION * VECTOR_DESCRIPTOR_SLOTS))
    else:
        trailing = np.where(counts > 1, float(BYTES_PER_REGION) * counts, 0.0)
    if phase.kind == "write":
        req_payload = REQUEST_HEADER_BYTES + trailing + msg_bytes
        resp_payload = np.full(n_msgs, float(RESPONSE_HEADER_BYTES))
    else:
        req_payload = REQUEST_HEADER_BYTES + trailing
        resp_payload = RESPONSE_HEADER_BYTES + msg_bytes
    req_wire = _wire(cfg, req_payload)
    resp_wire = _wire(cfg, resp_payload)
    # -- accumulate -----------------------------------------------------
    # Every load is a sum of integers, exact in float64 in any order.
    server_msgs = np.bincount(msg_server, minlength=ns)
    server_bytes = np.bincount(msg_server, weights=msg_bytes, minlength=ns)
    loads.msgs += server_msgs
    loads.pieces += np.bincount(msg_server, weights=counts, minlength=ns)
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
    nbytes = float(regions.total_bytes)
    work = (
        n_msgs * costs.iod_request_cost
        + n_pieces * costs.iod_region_cost
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


def predict_plans(plans: Iterable[RankPlan], cfg: ClusterConfig) -> Prediction:
    """Predict the elapsed time of one parallel transfer phase-set.

    ``plans`` holds one plan per rank, in rank order, and may be any
    iterable: each plan is priced as it arrives, so a generator keeps one
    plan alive at a time.
    """
    loads = _Loads(cfg.n_iods, 0)
    client_paths = []
    total_requests = 0
    total_msgs = 0
    moved = 0
    useful = 0
    serialized = False
    # Extent and volume of every read phase, for the shared-cache cap below.
    read_lo, read_hi, read_total = math.inf, 0, 0
    costs = cfg.costs
    bw = cfg.network.bandwidth
    for rank, plan in enumerate(plans):
        loads.client_tx.append(0.0)
        loads.client_rx.append(0.0)
        serialized = serialized or plan.serialized
        useful += plan.useful_bytes
        client_path = 0.0
        for phase in plan.phases():
            stats = _decompose_phase(phase, rank, cfg, loads)
            moved += phase.moved_bytes
            if phase.kind == "read" and phase.regions.count:
                read_lo = min(read_lo, int(phase.regions.offsets.min()))
                read_hi = max(read_hi, int(phase.regions.ends.max()))
                read_total += phase.moved_bytes
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
            client_path += path
        client_paths.append(client_path)
    if not client_paths:
        raise ModelError("predict_plans needs at least one rank plan")
    n_clients = len(client_paths)
    paths = np.array(client_paths)

    # -- server bound -----------------------------------------------------
    # Shared-cache correction: when several ranks fetch the same bytes
    # (sieving reads overlapping windows), only first touches hit media.
    # Approximate unique read bytes per server by capping at the striped
    # share of the union extent (an upper estimate of distinct bytes read).
    union_extent_bytes = float(min(read_total, read_hi - read_lo)) if read_hi else 0.0
    union_cap = union_extent_bytes / max(cfg.stripe.resolve_pcount(cfg.n_iods), 1)
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
        client_bound = float(paths.sum()) + barrier
        elapsed = max(client_bound, server_bound, network_bound)
    else:
        client_bound = float(paths.max())
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
        per_client_path=paths.tolist(),
    )


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
    plans = (
        compile_rank_plan(method, kind, a.mem_regions, a.file_regions, cfg, **plan_opts)
        for a in pattern.accesses
    )
    return predict_plans(plans, cfg)
