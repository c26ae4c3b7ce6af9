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
    """Accumulated per-server and per-client load totals.  The per-server
    totals are the rows of one ``table``, so a phase adds them in one step;
    the wire bytes are into (rx) and out of (tx) the servers."""

    ROWS = (
        "msgs", "pieces", "bytes", "write_msgs", "write_bytes", "read_bytes", "rx_wire", "tx_wire"
    )

    def __init__(self, n_servers: int, n_clients: int) -> None:
        self.table = np.zeros((len(self.ROWS), n_servers))
        for name, row in zip(self.ROWS, self.table):
            setattr(self, name, row)
        #: Per-rank totals; predict_plans appends each rank's as it arrives.
        self.client_tx = [0.0] * n_clients
        self.client_rx = [0.0] * n_clients


def _frames(rot, head: int, var, msgs, pcount: int, mtu: int):
    """Frames per rotation place of messages of ``head + var`` payload
    bytes, where ``var`` is a scalar or a float64 array of one count per
    message (which this overwrites).  A payload of ``p`` bytes takes
    ``ceil(p / mtu)`` frames, so only payloads past one frame are divided."""
    if np.isscalar(var):
        return msgs * np.ceil((head + var) / mtu)
    if head + var.max() <= mtu:
        return msgs
    var += head
    var /= mtu
    return np.bincount(rot, weights=np.ceil(var, out=var), minlength=pcount)


def _price(rot, pieces, nbytes, phase: RankPlan, cfg: ClusterConfig, pcount: int) -> np.ndarray:
    """The :class:`_Loads` rows, per place in the stripe rotation, of
    non-empty messages on places ``rot`` holding ``pieces`` pieces
    (``None``: one each) and ``nbytes`` bytes (float64, overwritten).
    A message's wire bytes are its payload plus a fixed overhead per frame,
    so each total is a sum of per-place sums."""
    msgs = np.bincount(rot, minlength=pcount)
    total = np.bincount(rot, weights=nbytes, minlength=pcount)
    n_pieces = msgs if pieces is None else np.bincount(rot, weights=pieces, minlength=pcount)
    if phase.wire_mode == "descriptor":
        trailing = BYTES_PER_REGION * VECTOR_DESCRIPTOR_SLOTS
    elif pieces is None:
        trailing = 0
    else:
        trailing = np.where(pieces > 1, BYTES_PER_REGION * pieces, 0.0)
    if np.isscalar(trailing):
        trailing_sum = trailing * msgs
    else:
        trailing_sum = np.bincount(rot, weights=trailing, minlength=pcount)
    # Requests carry the trailing data, and for writes the bytes too;
    # responses carry the bytes of reads.
    write = phase.kind == "write"
    if write:
        nbytes += trailing
    req_var, resp_var = (nbytes, 0) if write else (trailing, nbytes)
    mtu = cfg.network.mtu_payload
    per_frame = cfg.network.frame_overhead + cfg.network.ip_tcp_overhead
    req = REQUEST_HEADER_BYTES * msgs + trailing_sum
    req = req + per_frame * _frames(rot, REQUEST_HEADER_BYTES, req_var, msgs, pcount, mtu)
    resp = RESPONSE_HEADER_BYTES * msgs
    resp = resp + per_frame * _frames(rot, RESPONSE_HEADER_BYTES, resp_var, msgs, pcount, mtu)
    zero = np.zeros(pcount)
    if write:
        return np.array((msgs, n_pieces, total, msgs, total, zero, req + total, resp))
    return np.array((msgs, n_pieces, total, zero, zero, total, req, resp + total))


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

    Every region is priced as one slot of one piece first; the *wide*
    regions (over more than one stripe unit) then trade it for their own
    slots.  Every load is a sum of integers, exact in float64 in any order.
    Fresh pages cost about as much as the arithmetic, so two arrays of one
    integer per region serve every per-region step.
    """
    regions = phase.regions
    n = regions.count
    pcount = cfg.stripe.resolve_pcount(cfg.n_iods)
    ssize = cfg.stripe.stripe_size
    offsets, lengths = regions.offsets, regions.lengths
    unit = offsets // ssize  # first stripe unit of each region
    rot = offsets + lengths
    rot -= 1
    rot //= ssize
    rot -= unit  # units past the first
    wide = np.flatnonzero(rot != 0)
    more = rot[wide]
    rot = np.floor_divide(unit, pcount, out=rot)
    rot *= pcount
    rot = np.subtract(unit, rot, out=rot)  # each region's place in the stripe rotation
    n_pieces = n_msgs = n
    if wide.size:
        n_pieces += int(more.sum())
        width = np.minimum(more + 1, pcount)
        first = np.cumsum(width) - width  # each wide region's slot 0
        n_slots = int(first[-1] + width[-1])
        n_msgs += n_slots - wide.size
        d = np.arange(n_slots) - np.repeat(first, width)
        slot_rot = (np.repeat(rot[wide], width) + d) % pcount
        slot_pieces = (np.repeat(more, width) - d) // pcount + 1
        slot_bytes = slot_pieces * float(ssize)
        starts, unit_w = offsets[wide], unit[wide]
        slot_bytes[first] -= starts - unit_w * ssize  # head cut
        tail = (unit_w + more + 1) * ssize - starts - lengths[wide]
        slot_bytes[first + more % pcount] -= tail  # tail cut
    # Chunk ids never decrease (RankPlan checks it); where they strictly
    # increase, each request is one region and each slot a message.
    step = phase.chunk_of_region[1:] != phase.chunk_of_region[:-1]
    if step.all():
        table = np.zeros((len(_Loads.ROWS), pcount))
        if wide.size:
            table += _price(slot_rot, slot_pieces, slot_bytes, phase, cfg, pcount)
        if wide.size < n:
            nbytes = unit.view(np.float64)  # unit's pages, reused
            nbytes[:] = lengths
            table += _price(rot, None, nbytes, phase, cfg, pcount)
            if wide.size:
                nbytes = lengths[wide].astype(np.float64)
                table -= _price(rot[wide], None, nbytes, phase, cfg, pcount)
    else:
        # One bin per (request, place); chunk ids may skip values, so number
        # the requests densely when the ids outnumber the regions.
        request = phase.chunk_of_region
        if phase.n_requests > n:
            request = np.concatenate(([0], np.cumsum(step)))
        size = (int(request[-1]) + 1) * pcount
        key = np.multiply(request, pcount, out=unit)
        key += rot
        counts = np.bincount(key, minlength=size)
        nbytes = rot.view(np.float64)  # rot's pages, reused
        nbytes[:] = lengths
        nbytes = np.bincount(key, weights=nbytes, minlength=size)
        if wide.size:
            slot_pieces[first] -= 1  # slot 0 replaces the region's own slot
            slot_bytes[first] -= lengths[wide]
            slot_rot += np.repeat(request[wide] * pcount, width)
            counts = counts + np.bincount(slot_rot, weights=slot_pieces, minlength=size)
            nbytes += np.bincount(slot_rot, weights=slot_bytes, minlength=size)
        live = np.flatnonzero(counts)
        n_msgs = live.size
        table = _price(live % pcount, counts[live], nbytes[live], phase, cfg, pcount)
    # -- accumulate -----------------------------------------------------
    base = cfg.stripe.base
    if base + pcount <= cfg.n_iods:
        loads.table[:, base : base + pcount] += table
    else:  # the rotation wraps past the last server
        loads.table[:, np.arange(base, base + pcount) % cfg.n_iods] += table
    req_wire, resp_wire = table[6:].sum(axis=1).tolist()
    loads.client_tx[rank] += req_wire
    loads.client_rx[rank] += resp_wire
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
    return {"msgs": float(n_msgs), "work": work, "req_wire": req_wire, "resp_wire": resp_wire}


def _disk_time_estimate(cfg: ClusterConfig, kind: str, nbytes, unique_bytes):
    """Disk service estimate for ``nbytes`` of access, of which
    ``unique_bytes`` are first-touch (media) bytes (floats, or arrays of
    them per server)."""
    cache = cfg.cache
    disk = cfg.disk
    memcpy = nbytes / cache.memory_copy_rate
    if kind == "read":
        media = unique_bytes / disk.transfer_rate
        window = max(cache.readahead, cache.block_size)
        positionings = unique_bytes / window
        return memcpy + media + positionings * disk.positioning_time
    # write-back: media only for volume beyond the cache
    spill = np.maximum(unique_bytes - cache.capacity, 0.0)
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
    server_work = (
        loads.msgs * costs.iod_request_cost
        + loads.pieces * costs.iod_region_cost
        + loads.write_msgs * costs.iod_write_commit_cost
        + _disk_time_estimate(
            cfg, "read", loads.read_bytes, np.minimum(loads.read_bytes, union_cap)
        )
        + _disk_time_estimate(cfg, "write", loads.write_bytes, loads.write_bytes)
    )
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
