"""Two-phase collective I/O: aggregators, file domains, fabric exchange.

This module is the engine behind every collective entry point in the
repository — :meth:`repro.mpiio.MPIFile.write_at_all` /
:meth:`~repro.mpiio.MPIFile.read_at_all` and the first-class
:class:`repro.core.TwoPhaseIO` access method — implementing the ROMIO
algorithm of Thakur/Gropp/Lusk ("Optimizing Noncontiguous Accesses in
MPI-IO", see PAPERS.md):

1. **Metadata exchange** — every rank joins the call's :class:`Exchange`
   (found through :meth:`repro.mpi.Communicator.slot`) and ships its
   (offset, length) list to every other rank, as real messages through the
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

from operator import itemgetter
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import PVFSError
from ..mpi import Communicator
from ..regions import RegionList, gather_runs, scatter_runs, stream_positions
from ..simulate import Event

__all__ = [
    "META_BYTES_PER_REGION",
    "META_HEADER",
    "DATA_HEADER",
    "MPIIOError",
    "Exchange",
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

    Phase 0 collects every rank's offset list (:meth:`deposit_meta`).  One
    mailbox then carries the data every round moves, writes and reads
    alike: senders :meth:`deposit` under a key (the engine keys them by
    ``(receiver, round)``), and the receiver says with :meth:`expect` how
    many deposits it waits for.
    """

    def __init__(self, sim, size: int) -> None:
        self.sim = sim
        self.size = size
        self.meta: Dict[int, RegionList] = {}
        self.meta_event = Event(sim)
        #: key -> [deposits, expected count (None until expect), event];
        #: a key's entry goes once its event fires.
        self._mail: Dict[Hashable, list] = {}

    def deposit_meta(self, rank: int, regions: RegionList) -> None:
        if rank in self.meta:
            raise MPIIOError(f"rank {rank} entered the collective twice")
        self.meta[rank] = regions
        if len(self.meta) == self.size:
            self.meta_event.succeed(dict(self.meta))

    def expect(self, key: Hashable, n: int) -> Event:
        """Event that fires with the ``(src, regions, data)`` deposits under
        ``key``, sorted by sender, once ``n`` have arrived."""
        box = self._box(key)
        box[1] = n
        self._fire(key, box)
        return box[2]

    def deposit(
        self, key: Hashable, src: int, regions: RegionList, data: Optional[np.ndarray]
    ) -> None:
        box = self._box(key)
        box[0].append((src, regions, data))
        self._fire(key, box)

    def _box(self, key: Hashable) -> list:
        box = self._mail.get(key)
        if box is None:
            box = self._mail[key] = [[], None, Event(self.sim)]
        return box

    def _fire(self, key: Hashable, box: list) -> None:
        got, n, ev = box
        if n is not None and len(got) >= n:
            del self._mail[key]
            got.sort(key=itemgetter(0))
            ev.succeed(got)


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


def _phase0(f, comm: Communicator, rank: int, kind: str, regions: RegionList, cb_nodes):
    """Phase 0 (process): join this call's exchange, ship this rank's
    offset list to every peer, wait for every rank's list and cut the file
    domains.  Returns ``(exchange, metas, domains)``."""
    sim = f.client.sim
    n_aggregators = len(select_aggregators(comm.size, cb_nodes))
    ex = comm.slot(kind, rank, lambda: Exchange(sim, comm.size))
    ex.deposit_meta(rank, regions)
    net = f.client.cluster.net
    meta_bytes = META_HEADER + META_BYTES_PER_REGION * regions.count
    sends = [
        sim.process(net.transfer(_node_of(f, rank), _node_of(f, d), meta_bytes))
        for d in range(comm.size)
        if d != rank
    ]
    if sends:
        yield sim.all_of(sends)
    metas = yield ex.meta_event
    domains = partition_file_domains(metas, comm.size, n_aggregators, f.stripe.stripe_size)
    return ex, metas, domains


def _ship(f, ex: Exchange, rnd: int, src: int, dst: int, regions, payload, nbytes: int):
    """Move ``nbytes`` from rank ``src`` to rank ``dst`` (process), then
    deposit ``regions`` and ``payload`` in ``dst``'s round-``rnd`` mail."""
    if dst != src:
        yield from f.client.cluster.net.transfer(_node_of(f, src), _node_of(f, dst), nbytes)
    else:
        yield f.client.sim.timeout(0)
    ex.deposit((dst, rnd), src, regions, payload)


def _touches(regions: RegionList, lo: int, hi: int) -> bool:
    """Whether the sorted, disjoint, non-empty ``regions`` hold a byte of
    ``[lo, hi)``, i.e. ``regions.clip(lo, hi).count > 0`` without the clip:
    the last region starting before ``hi`` ends after ``lo``."""
    if lo >= hi:
        return False
    i = int(np.searchsorted(regions.offsets, hi)) - 1
    return i >= 0 and int(regions.offsets[i] + regions.lengths[i]) > lo


def _union(pieces: Sequence[RegionList]) -> RegionList:
    """The coalesced union of one or more region lists."""
    offsets = np.concatenate([p.offsets for p in pieces])
    lengths = np.concatenate([p.lengths for p in pieces])
    return RegionList(offsets, lengths).coalesced()


def _assemble(client, contribs):
    """Merge contribution region lists; fill the aggregation buffer."""
    merged = _union([regions for _src, regions, _payload in contribs])
    buffer = None
    if client.move_bytes:
        buffer = np.zeros(merged.total_bytes, np.uint8)
        for _src, regions, payload in contribs:
            if payload is None:
                continue
            pos = stream_positions(merged, regions)
            scatter_runs(buffer, pos, regions.lengths, payload)
    return merged, buffer


def collective_write(
    f,
    comm: Communicator,
    rank: int,
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
    ex, metas, domains = yield from _phase0(f, comm, rank, "write", regions, cb_nodes)

    for rnd in range(round_count(domains, cb_buffer)):
        windows = [round_window(d, rnd, cb_buffer) for d in domains]
        # -- phase 1: redistribute this round's data to aggregators --
        wa, wb = windows[rank]
        expected = sum(1 for r in metas.values() if _touches(r, wa, wb))
        arrival = ex.expect((rank, rnd), expected)
        send_procs = []
        for d, (a, b) in enumerate(windows):
            mine = regions.clip(a, b)
            if mine.count == 0:
                continue
            payload = None
            if client.move_bytes and stream is not None:
                payload = gather_runs(stream, stream_positions(regions, mine), mine.lengths)
            nbytes = DATA_HEADER + META_BYTES_PER_REGION * mine.count + mine.total_bytes
            send_procs.append(sim.process(_ship(f, ex, rnd, rank, d, mine, payload, nbytes)))
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
    regions: RegionList,
    *,
    cb_nodes: Optional[int] = None,
    cb_buffer: Optional[int] = None,
):
    """Two-phase collective read (process); returns this rank's packed
    byte stream (``None`` on timing-only clusters)."""
    client = f.client
    sim = client.sim
    ex, metas, domains = yield from _phase0(f, comm, rank, "read", regions, cb_nodes)

    out = None
    if client.move_bytes:
        out = np.zeros(regions.total_bytes, np.uint8)
    for rnd in range(round_count(domains, cb_buffer)):
        windows = [round_window(d, rnd, cb_buffer) for d in domains]
        # how many aggregators will send me data this round?
        a_mine = sum(1 for a, b in windows if _touches(regions, a, b))
        reply_ev = ex.expect((rank, rnd), a_mine)

        # -- phase 1: aggregator reads its window --------------------
        # (each requester's pieces of it, in the order the lists arrived)
        wa, wb = windows[rank]
        wants = [(q, r.clip(wa, wb)) for q, r in metas.items()]
        wants = [(q, want) for q, want in wants if want.count]
        if wants:
            domain_union = _union([want for _q, want in wants])
            domain_data = yield from f.read_list(domain_union)
            # -- phase 2: ship each requester its pieces -------------
            ship = []
            for requester, want in wants:
                payload = None
                if client.move_bytes and domain_data is not None:
                    pos = stream_positions(domain_union, want)
                    payload = gather_runs(domain_data, pos, want.lengths)
                nbytes = DATA_HEADER + want.total_bytes
                ship.append(sim.process(_ship(f, ex, rnd, rank, requester, want, payload, nbytes)))
            yield sim.all_of(ship)

        # -- phase 3: assemble my stream from this round's replies ---
        replies = yield reply_ev
        if out is not None:
            for _agg, got, payload in replies:
                if payload is None:
                    continue
                pos = stream_positions(regions, got)
                scatter_runs(out, pos, got.lengths, payload)
    if regions.count:
        yield sim.timeout(regions.total_bytes / client.costs.memcpy_rate)
    yield comm.barrier()
    return out
