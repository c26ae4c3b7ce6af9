"""Vectorized PVFS striping: logical file regions -> per-server physical runs.

PVFS stripes a file round-robin over ``pcount`` I/O servers starting at
``base`` in units of ``stripe_size`` bytes (paper Figure 2).  Logical byte
``o`` lives in stripe unit ``u = o // stripe_size``; that unit is stored on
server ``(base + u % pcount) % n_iods`` at physical offset
``(u // pcount) * stripe_size + o % stripe_size`` within the server's local
stripe file.

:func:`map_regions` performs this mapping for a whole
:class:`~repro.regions.RegionList` at once and returns one
:class:`ServerSlice` per involved server, which remembers where each of its
pieces falls in the *request byte stream* — what lets clients carve a write
payload into per-server slices and reassemble read responses.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..config import StripeParams
from ..errors import ConfigError
from ..regions import RegionList, split_with_parents

__all__ = ["ServerSlice", "map_regions", "replica_chain"]

#: Shared read-only stream offset for the single-piece fast case below.
_ZERO1 = np.zeros(1, dtype=np.int64)
_ZERO1.setflags(write=False)


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


class ServerSlice:
    """One server's share of a logical request.

    ``physical`` are the runs in the server's local stripe file, in request
    stream order.  ``stream_offsets`` give, for each physical run, the byte
    position of its data within the overall request stream, so
    ``stream[stream_offsets[i] : stream_offsets[i] + physical.lengths[i]]``
    is exactly the data for run ``i``.
    """

    __slots__ = ("server", "physical", "stream_offsets")

    def __init__(self, server: int, physical: RegionList, stream_offsets: np.ndarray) -> None:
        self.server = server
        self.physical = physical
        self.stream_offsets = stream_offsets


def map_regions(regions: RegionList, stripe: StripeParams, n_iods: int) -> Tuple[ServerSlice, ...]:
    """Decompose logical ``regions`` (in request stream order) per server:
    one slice per involved server, in ascending server order.

    Split at stripe-unit boundaries, compute each piece's server and
    physical offset, then group pieces by server preserving stream order
    within each group.  One region over at most ``pcount`` stripe units —
    nearly every request of the cyclic and block patterns — gives each
    piece its own server and is mapped with integer arithmetic; anything
    else goes through the vectorized array pipeline.
    """
    pcount = stripe.resolve_pcount(n_iods)
    ssize = stripe.stripe_size
    base = stripe.base
    if regions.count == 1:
        off = int(regions.offsets[0])
        ln = int(regions.lengths[0])
        first = off // ssize
        last = (off + ln - 1) // ssize
        if ln > 0 and last - first < pcount:
            # Consecutive units land on distinct servers, so every piece is
            # its server's only run; order the slices by server, as the
            # stable group-by below does.
            pieces = []
            end = off + ln
            for unit in range(first, last + 1):
                start = max(off, unit * ssize)
                stop = min(end, (unit + 1) * ssize)
                server = (base + unit % pcount) % n_iods
                phys = (unit // pcount) * ssize + start % ssize
                pieces.append((server, phys, stop - start, start - off))
            pieces.sort()
            return tuple(
                ServerSlice(
                    server,
                    RegionList._trusted(
                        np.array([phys], np.int64), np.array([piece_len], np.int64), nonempty=True
                    ),
                    _ZERO1 if pos == 0 else np.array([pos], np.int64),
                )
                for server, phys, piece_len, pos in pieces
            )
    pieces, _, unit = split_with_parents(regions, ssize)
    if pieces.count == 0:
        return ()
    server = (base + unit % pcount) % n_iods
    phys_off = (unit // pcount) * ssize + pieces.offsets % ssize
    stream_off = np.concatenate(([0], np.cumsum(pieces.lengths)[:-1]))
    # Group by server, preserving stream order inside each group: one
    # stable argsort orders the pieces, and each group is a slice of it.
    order = np.argsort(server, kind="stable")
    sorted_server = server[order]
    phys_off = phys_off[order]
    lengths = pieces.lengths[order]
    stream_off = stream_off[order]
    edges = [0, *(np.flatnonzero(np.diff(sorted_server)) + 1).tolist(), order.size]
    return tuple(
        ServerSlice(
            int(sorted_server[a]),
            RegionList._trusted(phys_off[a:b], lengths[a:b], nonempty=True),
            stream_off[a:b],
        )
        for a, b in zip(edges, edges[1:])
    )
