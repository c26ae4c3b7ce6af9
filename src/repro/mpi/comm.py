"""A minimal simulated MPI communicator.

The paper's benchmarks use MPI only for coordination — most importantly
``MPI_Barrier()`` to serialize data-sieving writes, since PVFS has no file
locks (Section 4.3.1).  This module provides just enough of that substrate
on top of the simulation kernel: a communicator with barrier, broadcast,
and gather among the client processes of one workload.

Data movement through the communicator is control-plane-sized, so these
operations charge a latency term (a tree of small messages) but never move
bulk data through the NIC model.  :meth:`Communicator.slot` is the one
rendezvous of collective calls: broadcast, gather and the two-phase
collective I/O engine (:mod:`repro.mpiio.twophase`) all find the state
they share through it.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Tuple

from ..errors import ConfigError
from ..simulate import Barrier, Event, Simulator

__all__ = ["Communicator"]


class Communicator:
    """An MPI_COMM_WORLD over ``size`` simulated ranks.

    All methods are simulation events/processes: ``yield comm.barrier()``,
    ``value = yield from comm.bcast(rank, value, root=0)``.
    """

    def __init__(self, sim: Simulator, size: int, latency: float = 60e-6) -> None:
        if size < 1:
            raise ConfigError("communicator size must be >= 1")
        self.sim = sim
        self.size = size
        #: Per-hop small-message latency used for collective cost.
        self.latency = latency
        self._barrier = Barrier(sim, size)
        #: ``(kind, k)`` -> the state every rank's k-th call of ``kind`` shares.
        self._slots: Dict[Tuple[str, int], Any] = {}
        #: ``(kind, rank)`` -> how many calls of ``kind`` the rank has made.
        self._calls: Dict[Tuple[str, int], int] = {}

    def _collective_time(self) -> float:
        """Dissemination-tree time for one collective."""
        return self.latency * max(math.ceil(math.log2(max(self.size, 2))), 1)

    # ------------------------------------------------------------------
    def slot(self, kind: str, rank: int, make: Callable[[], Any]) -> Any:
        """The state this rank's k-th call of ``kind`` shares with every
        other rank's k-th call, built by ``make()`` on the first arrival.

        Ranks must invoke collectives in the same order (as MPI requires).
        """
        k = self._calls.get((kind, rank), 0)
        self._calls[(kind, rank)] = k + 1
        state = self._slots.get((kind, k))
        if state is None:
            state = self._slots[(kind, k)] = make()
        return state

    def barrier(self) -> Event:
        """Event that fires when all ranks have arrived (use ``yield``)."""
        return self._barrier.wait()

    def bcast(self, rank: int, value: Any = None, root: int = 0):
        """Broadcast ``value`` from ``root``; every rank gets it.

        Process form: ``got = yield from comm.bcast(rank, mine, root=0)``.
        """
        ev = self.slot("bcast", rank, lambda: Event(self.sim))
        if rank == root:
            ev.succeed(value)
        got = yield ev
        yield self.sim.timeout(self._collective_time())
        return got

    def gather(self, rank: int, value: Any, root: int = 0):
        """Gather each rank's value at ``root`` (others receive ``None``)."""
        values, ev = self.slot("gather", rank, lambda: ({}, Event(self.sim)))
        values[rank] = value
        if len(values) == self.size:
            ev.succeed(values)
        got = yield ev
        yield self.sim.timeout(self._collective_time())
        if rank != root:
            return None
        return [got[r] for r in sorted(got)]

    def __repr__(self) -> str:
        return f"<Communicator size={self.size}>"
