"""Two-phase collective I/O: aggregators, file domains, fabric exchange.

This module is the engine behind every collective entry point in the
repository — :meth:`repro.mpiio.MPIFile.write_at_all` /
:meth:`~repro.mpiio.MPIFile.read_at_all` and the first-class
:class:`repro.core.TwoPhaseIO` access method — implementing the ROMIO
algorithm of Thakur/Gropp/Lusk ("Optimizing Noncontiguous Accesses in
MPI-IO", see PAPERS.md):

1. **Metadata exchange** — every rank ships its (offset, length) list to
   every other rank (:func:`exchange_meta`), as real messages through the
   simulated fabric.
2. **Aggregator selection + file-domain partitioning** — the first
   ``cb_nodes`` ranks (:func:`select_aggregators`) each own one
   stripe-aligned slice of the aggregate byte range
   (:func:`partition_file_domains`).
3. **Data redistribution** — contributions (writes) or replies (reads)
   move between compute nodes over the network, again as real fabric
   messages, so they show up in Perfetto lanes and bottleneck reports.
4. **File access** — each aggregator performs one large, (nearly)
   contiguous list-I/O access per *round*.  A round covers at most
   ``cb_buffer`` bytes of each aggregator's domain (ROMIO's collective
   buffer size); ``cb_buffer=None`` means an unbounded buffer, i.e. a
   single round over the whole domain.

All generators here are simulation processes; collectives must be
entered by every rank of the communicator in the same order.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..errors import PVFSError
from ..mpi import Communicator
from ..regions import RegionList, build_flat_indices
from ..simulate import Event

__all__ = [
    "META_BYTES_PER_REGION",
    "META_HEADER",
    "DATA_HEADER",
    "MPIIOError",
    "Exchange",
    "CollectiveContext",
    "stream_positions",
    "select_aggregators",
    "partition_file_domains",
    "round_count",
    "round_window",
    "collective_write",
    "collective_read",
]

#: Metadata record shipped per region during the exchange phase (offset +
#: length, as in ROMIO's offset-list exchange).
META_BYTES_PER_REGION = 16
META_HEADER = 64
DATA_HEADER = 64


class MPIIOError(PVFSError):
    """MPI-IO layer misuse (mismatched collectives, bad views, ...)."""


class Exchange:
    """Scratch state shared by all ranks for ONE collective operation.

    Contributions and replies are keyed by arbitrary hashables so one
    exchange can span several collective-buffer rounds (the engine keys
    them by ``(rank, round)``).
    """

    def __init__(self, sim, size: int) -> None:
        self.sim = sim
        self.size = size
        self.meta: Dict[int, RegionList] = {}
        self.meta_event = Event(sim)
        self.contributions: Dict[Hashable, List[Tuple[int, RegionList, Optional[np.ndarray]]]] = (
            defaultdict(list)
        )
        self._arrival_events: Dict[Hashable, Event] = {}
        self._expected: Dict[Hashable, int] = {}
        # read path: (requester key, aggregator) -> (regions, data)
        self.replies: Dict[Tuple[Hashable, int], Tuple[RegionList, Optional[np.ndarray]]] = {}
        self._reply_events: Dict[Hashable, Event] = {}
        self._reply_expected: Dict[Hashable, int] = {}

    # -- metadata ------------------------------------------------------
    def deposit_meta(self, rank: int, regions: RegionList) -> None:
        if rank in self.meta:
            raise MPIIOError(f"rank {rank} entered the collective twice")
        self.meta[rank] = regions
        if len(self.meta) == self.size:
            self.meta_event.succeed(dict(self.meta))

    # -- write-side contributions ---------------------------------------
    def expect_contributions(self, key: Hashable, n: int) -> Event:
        ev = self._arrival_events.setdefault(key, Event(self.sim))
        self._expected[key] = n
        self._maybe_fire(key)
        return ev

    def deposit_contribution(
        self,
        key: Hashable,
        src: int,
        regions: RegionList,
        data: Optional[np.ndarray],
    ) -> None:
        self.contributions[key].append((src, regions, data))
        self._maybe_fire(key)

    def _maybe_fire(self, key: Hashable) -> None:
        ev = self._arrival_events.get(key)
        expected = self._expected.get(key)
        if ev is None or expected is None or ev.triggered:
            return
        if len(self.contributions[key]) >= expected:
            self.contributions[key].sort(key=lambda t: t[0])
            ev.succeed(self.contributions[key])

    # -- read-side replies ----------------------------------------------
    def expect_replies(self, key: Hashable, n: int) -> Event:
        ev = self._reply_events.setdefault(key, Event(self.sim))
        self._reply_expected[key] = n
        self._maybe_reply(key)
        return ev

    def deposit_reply(
        self,
        key: Hashable,
        aggregator: int,
        regions: RegionList,
        data: Optional[np.ndarray],
    ) -> None:
        self.replies[(key, aggregator)] = (regions, data)
        self._maybe_reply(key)

    def _maybe_reply(self, key: Hashable) -> None:
        ev = self._reply_events.get(key)
        expected = self._reply_expected.get(key)
        if ev is None or expected is None or ev.triggered:
            return
        got = [
            (agg, *self.replies[(req, agg)]) for (req, agg) in self.replies if req == key
        ]
        if len(got) >= expected:
            got.sort(key=lambda t: t[0])
            ev.succeed(got)


class CollectiveContext:
    """Per-(file, communicator) registry matching each rank's k-th
    collective call to a shared :class:`Exchange`."""

    def __init__(self, sim, comm: Communicator) -> None:
        self.sim = sim
        self.comm = comm
        self._slots: Dict[Tuple[str, int], Exchange] = {}
        self._calls: Dict[Tuple[str, int], int] = defaultdict(int)

    def slot(self, kind: str, rank: int) -> Exchange:
        gen = self._calls[(kind, rank)]
        self._calls[(kind, rank)] += 1
        key = (kind, gen)
        if key not in self._slots:
            self._slots[key] = Exchange(self.sim, self.comm.size)
        return self._slots[key]


def stream_positions(regions: RegionList, clipped: RegionList) -> np.ndarray:
    """Stream offsets (within ``regions``' byte stream) of each clipped
    piece.  ``regions`` must be sorted & disjoint; ``clipped`` must be a
    sub-list of it (as produced by ``regions.clip``)."""
    if clipped.count == 0:
        return np.empty(0, np.int64)
    starts = np.concatenate(([0], np.cumsum(regions.lengths)[:-1]))
    idx = np.searchsorted(regions.ends, clipped.offsets, side="right")
    return starts[idx] + (clipped.offsets - regions.offsets[idx])


# ----------------------------------------------------------------------
# Aggregator selection and file-domain partitioning
# ----------------------------------------------------------------------
def select_aggregators(comm_size: int, cb_nodes: Optional[int] = None) -> Tuple[int, ...]:
    """The aggregating ranks: the first ``cb_nodes`` of the communicator
    (ROMIO's default ``cb_config_list``).  ``None`` means every rank."""
    n = comm_size if cb_nodes is None else cb_nodes
    if not 1 <= n <= comm_size:
        raise MPIIOError(f"cb_nodes must be in 1..{comm_size}")
    return tuple(range(n))


def partition_file_domains(
    metas: Dict[int, RegionList],
    comm_size: int,
    cb_nodes: int,
    align: int,
) -> List[Tuple[int, int]]:
    """Partition the aggregate byte range into per-rank file domains.

    The aggregate ``[lo, hi)`` extent of all ranks' regions is cut into
    ``cb_nodes`` equal slices, each rounded up to an ``align`` multiple
    (ROMIO aligns domains to the file system's stripe size so one
    aggregator never splits a stripe with its neighbour).  Ranks beyond
    the aggregator set get empty ``(0, 0)`` domains.
    """
    lo, hi = None, None
    for r in metas.values():
        if r.count == 0:
            continue
        a, b = r.extent
        lo = a if lo is None else min(lo, a)
        hi = b if hi is None else max(hi, b)
    if lo is None:
        return [(0, 0)] * comm_size
    align = max(int(align), 1)
    span = hi - lo
    per = -(-span // cb_nodes)
    per = -(-per // align) * align  # round up to stripe multiple
    domains = []
    for d in range(comm_size):
        if d < cb_nodes:
            a = min(lo + d * per, hi)
            b = min(a + per, hi)
        else:
            a = b = 0
        domains.append((a, b))
    return domains


def round_count(domains: List[Tuple[int, int]], cb_buffer: Optional[int]) -> int:
    """Collective-buffer rounds needed to cover the widest domain."""
    if cb_buffer is None:
        return 1
    if cb_buffer < 1:
        raise MPIIOError("cb_buffer must be a positive byte count")
    widest = max((b - a for (a, b) in domains), default=0)
    return max(-(-widest // cb_buffer), 1)


def round_window(domain: Tuple[int, int], rnd: int, cb_buffer: Optional[int]) -> Tuple[int, int]:
    """The slice of ``domain`` that round ``rnd`` covers (empty when the
    domain is already exhausted)."""
    a, b = domain
    if cb_buffer is None:
        return (a, b) if rnd == 0 else (b, b)
    lo = min(a + rnd * cb_buffer, b)
    return (lo, min(lo + cb_buffer, b))


# ----------------------------------------------------------------------
# The exchange/redistribution engine
# ----------------------------------------------------------------------
def _node_of(f, rank: int):
    return f.client.cluster.clients[rank].node


def exchange_meta(f, comm: Communicator, rank: int, regions: RegionList):
    """Phase 0 (process): ship this rank's offset list to every peer."""
    sim = f.client.sim
    net = f.client.cluster.net
    meta_bytes = META_HEADER + META_BYTES_PER_REGION * regions.count
    sends = [
        sim.process(net.transfer(_node_of(f, rank), _node_of(f, d), meta_bytes))
        for d in range(comm.size)
        if d != rank
    ]
    if sends:
        yield sim.all_of(sends)


def _ship_contribution(f, ex: Exchange, key, src: int, aggregator: int, regions, payload):
    nbytes = DATA_HEADER + META_BYTES_PER_REGION * regions.count + regions.total_bytes
    if aggregator != src:
        yield from f.client.cluster.net.transfer(_node_of(f, src), _node_of(f, aggregator), nbytes)
    else:
        yield f.client.sim.timeout(0)
    ex.deposit_contribution(key, src, regions, payload)


def _ship_reply(f, ex: Exchange, key, src: int, requester: int, regions, payload):
    nbytes = DATA_HEADER + regions.total_bytes
    if requester != src:
        yield from f.client.cluster.net.transfer(_node_of(f, src), _node_of(f, requester), nbytes)
    else:
        yield f.client.sim.timeout(0)
    ex.deposit_reply(key, src, regions, payload)


def _assemble(client, contribs):
    """Merge contribution region lists; fill the aggregation buffer."""
    pieces = RegionList.empty()
    for _src, regions, _payload in contribs:
        pieces = pieces.concat(regions)
    merged = pieces.coalesced()
    buffer = None
    if client.move_bytes:
        buffer = np.zeros(merged.total_bytes, np.uint8)
        for _src, regions, payload in contribs:
            if payload is None:
                continue
            pos = stream_positions(merged, regions)
            idx = build_flat_indices(pos, regions.lengths)
            buffer[idx] = payload
    return merged, buffer


def collective_write(
    f,
    comm: Communicator,
    rank: int,
    ctx: CollectiveContext,
    regions: RegionList,
    stream: Optional[np.ndarray],
    *,
    cb_nodes: Optional[int] = None,
    cb_buffer: Optional[int] = None,
):
    """Two-phase collective write (process).

    ``regions`` are this rank's sorted, disjoint file regions and
    ``stream`` the matching packed byte stream (``None`` on timing-only
    clusters).  Every rank of ``comm`` must enter with the same
    ``cb_nodes``/``cb_buffer``.
    """
    client = f.client
    sim = client.sim
    n_aggregators = len(select_aggregators(comm.size, cb_nodes))
    ex = ctx.slot("write", rank)

    # -- phase 0: metadata exchange (offset lists, all-to-all) -------
    ex.deposit_meta(rank, regions)
    yield from exchange_meta(f, comm, rank, regions)
    metas = yield ex.meta_event
    domains = partition_file_domains(metas, comm.size, n_aggregators, f.stripe.stripe_size)

    for rnd in range(round_count(domains, cb_buffer)):
        windows = [round_window(d, rnd, cb_buffer) for d in domains]
        # -- phase 1: redistribute this round's data to aggregators --
        wa, wb = windows[rank]
        expected = sum(1 for r in metas.values() if r.clip(wa, wb).count > 0)
        arrival = ex.expect_contributions((rank, rnd), expected)
        send_procs = []
        for d, (a, b) in enumerate(windows):
            mine = regions.clip(a, b)
            if mine.count == 0:
                continue
            payload = None
            if client.move_bytes and stream is not None:
                pos = stream_positions(regions, mine)
                idx = build_flat_indices(pos, mine.lengths)
                payload = np.ascontiguousarray(stream[idx])
            send_procs.append(
                sim.process(_ship_contribution(f, ex, (d, rnd), rank, d, mine, payload))
            )
        if send_procs:
            yield sim.all_of(send_procs)

        # -- phase 2: aggregate and write my window ------------------
        contribs = yield arrival
        if contribs:
            merged, buffer = _assemble(client, contribs)
            # assembly cost
            yield sim.timeout(merged.total_bytes / client.costs.memcpy_rate)
            yield from f.write_list(merged, buffer)
    yield comm.barrier()


def collective_read(
    f,
    comm: Communicator,
    rank: int,
    ctx: CollectiveContext,
    regions: RegionList,
    *,
    cb_nodes: Optional[int] = None,
    cb_buffer: Optional[int] = None,
):
    """Two-phase collective read (process); returns this rank's packed
    byte stream (``None`` on timing-only clusters)."""
    client = f.client
    sim = client.sim
    n_aggregators = len(select_aggregators(comm.size, cb_nodes))
    ex = ctx.slot("read", rank)

    # -- phase 0: metadata exchange ----------------------------------
    ex.deposit_meta(rank, regions)
    yield from exchange_meta(f, comm, rank, regions)
    metas = yield ex.meta_event
    domains = partition_file_domains(metas, comm.size, n_aggregators, f.stripe.stripe_size)

    out = None
    if client.move_bytes:
        out = np.zeros(regions.total_bytes, np.uint8)
    for rnd in range(round_count(domains, cb_buffer)):
        windows = [round_window(d, rnd, cb_buffer) for d in domains]
        # how many aggregators will send me data this round?
        a_mine = sum(1 for (a, b) in windows if regions.clip(a, b).count > 0)
        reply_ev = ex.expect_replies((rank, rnd), a_mine)

        # -- phase 1: aggregator reads its window --------------------
        wa, wb = windows[rank]
        domain_union = RegionList.empty()
        for r in metas.values():
            domain_union = domain_union.concat(r.clip(wa, wb))
        domain_union = domain_union.coalesced()
        if domain_union.count:
            domain_data = yield from f.read_list(domain_union)
            # -- phase 2: ship each requester its pieces -------------
            ship = []
            for requester, want_all in metas.items():
                want = want_all.clip(wa, wb)
                if want.count == 0:
                    continue
                payload = None
                if client.move_bytes and domain_data is not None:
                    pos = stream_positions(domain_union, want)
                    idx = build_flat_indices(pos, want.lengths)
                    payload = np.ascontiguousarray(domain_data[idx])
                ship.append(
                    sim.process(
                        _ship_reply(f, ex, (requester, rnd), rank, requester, want, payload)
                    )
                )
            if ship:
                yield sim.all_of(ship)

        # -- phase 3: assemble my stream from this round's replies ---
        replies = yield reply_ev
        if out is not None:
            for _agg, got, payload in replies:
                if payload is None:
                    continue
                pos = stream_positions(regions, got)
                idx = build_flat_indices(pos, got.lengths)
                out[idx] = payload
    if regions.count:
        yield sim.timeout(regions.total_bytes / client.costs.memcpy_rate)
    yield comm.barrier()
    return out
