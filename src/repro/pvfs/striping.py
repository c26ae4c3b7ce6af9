"""Vectorized PVFS striping: logical file regions -> per-server physical runs.

PVFS stripes a file round-robin over ``pcount`` I/O servers starting at
``base`` in units of ``stripe_size`` bytes (paper Figure 2).  Logical byte
``o`` lives in stripe unit ``u = o // stripe_size``; that unit is stored on
server ``(base + u % pcount) % n_iods`` at physical offset
``(u // pcount) * stripe_size + o % stripe_size`` within the server's local
stripe file.

:func:`map_regions` performs this mapping for a whole
:class:`~repro.regions.RegionList` at once and returns a :class:`StripeMap`
that remembers, for every piece, where it falls in the *request byte
stream* — which is what lets clients carve a write payload into per-server
slices and reassemble read responses, all with numpy fancy indexing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from ..config import StripeParams
from ..errors import ConfigError
from ..regions import RegionList

__all__ = [
    "StripeMap",
    "ServerSlice",
    "map_regions",
    "replica_chain",
    "server_for_offset",
]

#: Shared read-only stream offset for the single-piece fast case below.
_ZERO1 = np.zeros(1, dtype=np.int64)
_ZERO1.setflags(write=False)


def server_for_offset(offset: int, stripe: StripeParams, n_iods: int) -> int:
    """Which server stores logical byte ``offset``."""
    pcount = stripe.resolve_pcount(n_iods)
    unit = offset // stripe.stripe_size
    return (stripe.base + unit % pcount) % n_iods


def replica_chain(primary: int, replicas: int, n_iods: int) -> Tuple[int, ...]:
    """Chain placement of a stripe's copies: copy ``k`` of a stripe whose
    primary is daemon ``primary`` lives on ``(primary + k) % n_iods``.

    The chain starts with the primary itself; successive copies land on the
    following daemons, so all ``replicas`` copies sit on distinct daemons
    whenever ``replicas <= n_iods`` (validated by
    :meth:`~repro.config.StripeParams.resolve_replicas`).  Replica copies
    are stored under a ``(file_id, primary)`` key on their host, so a
    mirror never collides with the host's own primary stripes at the same
    physical offsets.
    """
    if not 1 <= replicas <= n_iods:
        raise ConfigError(
            f"replica chain needs 1 <= replicas <= n_iods, got "
            f"replicas={replicas} n_iods={n_iods}"
        )
    return tuple((primary + k) % n_iods for k in range(replicas))


@dataclass(frozen=True)
class ServerSlice:
    """One server's share of a logical request.

    ``physical`` are the runs in the server's local stripe file, in request
    stream order.  ``stream_offsets`` give, for each physical run, the byte
    position of its data within the overall request stream, so
    ``stream[stream_offsets[i] : stream_offsets[i] + physical.lengths[i]]``
    is exactly the data for run ``i``.
    """

    server: int
    physical: RegionList
    stream_offsets: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.physical.total_bytes


@dataclass(frozen=True)
class StripeMap:
    """The full decomposition of one logical request across servers."""

    slices: Tuple[ServerSlice, ...]
    total_bytes: int

    @property
    def n_servers(self) -> int:
        return len(self.slices)

    @property
    def servers(self) -> List[int]:
        return [s.server for s in self.slices]

    def __iter__(self) -> Iterator[ServerSlice]:
        return iter(self.slices)

    def slice_for(self, server: int) -> ServerSlice:
        for s in self.slices:
            if s.server == server:
                return s
        raise KeyError(f"server {server} not involved in this request")


def map_regions(regions: RegionList, stripe: StripeParams, n_iods: int) -> StripeMap:
    """Decompose logical ``regions`` (in request stream order) per server.

    Fully vectorized: split at stripe-unit boundaries, compute each piece's
    server and physical offset, then group pieces by server preserving
    stream order within each group.
    """
    pcount = stripe.resolve_pcount(n_iods)
    ssize = stripe.stripe_size
    if regions.count == 1:
        # ~98% of service-path requests are a single region inside one
        # stripe unit (unit-aligned cyclic and block patterns); map it
        # with pure integer arithmetic instead of the array pipeline.
        # Same formulas, same result — just scalar.
        off = int(regions.offsets[0])
        ln = int(regions.lengths[0])
        if ln > 0 and (off % ssize) + ln <= ssize:
            unit = off // ssize
            sl = ServerSlice(
                server=(stripe.base + unit % pcount) % n_iods,
                physical=RegionList._trusted(
                    np.array([(unit // pcount) * ssize + off % ssize], np.int64),
                    np.array([ln], np.int64),
                    nonempty=True,
                ),
                stream_offsets=_ZERO1,
            )
            return StripeMap(slices=(sl,), total_bytes=ln)
    pieces = regions.drop_empty().split_at_boundaries(ssize)
    if pieces.count == 0:
        return StripeMap(slices=(), total_bytes=0)
    unit = pieces.offsets // ssize
    server = (stripe.base + unit % pcount) % n_iods
    phys_off = (unit // pcount) * ssize + pieces.offsets % ssize
    stream_off = np.concatenate(([0], np.cumsum(pieces.lengths)[:-1]))
    slices = []
    # Group by server, preserving stream order inside each group.  A stable
    # argsort on server achieves both in one vectorized pass.
    order = np.argsort(server, kind="stable")
    sorted_server = server[order]
    group_bounds = np.flatnonzero(np.diff(sorted_server)) + 1
    for grp in np.split(order, group_bounds):
        s = int(server[grp[0]])
        slices.append(
            ServerSlice(
                server=s,
                physical=RegionList._trusted(
                    phys_off[grp], pieces.lengths[grp], nonempty=True
                ),
                stream_offsets=stream_off[grp],
            )
        )
    return StripeMap(slices=tuple(slices), total_bytes=pieces.total_bytes)
