"""A minimal simulated MPI communicator.

The paper's benchmarks use MPI only for coordination — most importantly
``MPI_Barrier()`` to serialize data-sieving writes, since PVFS has no file
locks (Section 4.3.1).  This module provides just that substrate on top of
the simulation kernel: a communicator with a barrier among the client
processes of one workload, and :meth:`Communicator.slot`, the one
rendezvous of collective calls, through which the two-phase collective
I/O engine (:mod:`repro.mpiio.twophase`) finds the state a call's ranks
share.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

from ..errors import ConfigError
from ..simulate import Barrier, Event, Simulator

__all__ = ["Communicator"]


class Communicator:
    """An MPI_COMM_WORLD over ``size`` simulated ranks.

    ``yield comm.barrier()`` inside a simulation process waits for every
    rank.
    """

    def __init__(self, sim: Simulator, size: int) -> None:
        if size < 1:
            raise ConfigError("communicator size must be >= 1")
        self.sim = sim
        self.size = size
        self._barrier = Barrier(sim, size)
        #: ``(kind, k)`` -> the state every rank's k-th call of ``kind`` shares.
        self._slots: Dict[Tuple[str, int], Any] = {}
        #: ``(kind, rank)`` -> how many calls of ``kind`` the rank has made.
        self._calls: Dict[Tuple[str, int], int] = {}

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

    def __repr__(self) -> str:
        return f"<Communicator size={self.size}>"
