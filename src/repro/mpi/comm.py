"""A minimal simulated MPI communicator.

The paper's benchmarks use MPI only for coordination — most importantly
``MPI_Barrier()`` to serialize data-sieving writes, since PVFS has no file
locks (Section 4.3.1).  This module provides just enough of that substrate
on top of the simulation kernel: a communicator with barrier, broadcast,
and gather among the client processes of one workload.

Data movement through the communicator is control-plane-sized, so these
operations charge a latency term (a tree of small messages) but never move
bulk data through the NIC model.
"""

from __future__ import annotations

import math
from typing import Any, Dict

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
        self._bcast_state: Dict[int, Event] = {}
        self._gather_state: Dict[int, dict] = {}
        self._gather_events: Dict[int, Event] = {}
        self._generation = 0

    def _collective_time(self) -> float:
        """Dissemination-tree time for one collective."""
        return self.latency * max(math.ceil(math.log2(max(self.size, 2))), 1)

    # ------------------------------------------------------------------
    def barrier(self) -> Event:
        """Event that fires when all ranks have arrived (use ``yield``)."""
        return self._barrier.wait()

    # ------------------------------------------------------------------
    def bcast(self, rank: int, value: Any = None, root: int = 0):
        """Broadcast ``value`` from ``root``; every rank gets it.

        Process form: ``got = yield from comm.bcast(rank, mine, root=0)``.
        """
        gen = self._generation_slot(rank)
        ev = self._bcast_state.setdefault(gen, Event(self.sim))
        if rank == root:
            ev.succeed(value)
        got = yield ev
        yield self.sim.timeout(self._collective_time())
        return got

    def gather(self, rank: int, value: Any, root: int = 0):
        """Gather each rank's value at ``root`` (others receive ``None``)."""
        gen = self._generation_slot(rank, kind="gather")
        state = self._gather_state.setdefault(gen, {})
        ev = self._gather_events.setdefault(gen, Event(self.sim))
        state[rank] = value
        if len(state) == self.size:
            ev.succeed(dict(state))
        got = yield ev
        yield self.sim.timeout(self._collective_time())
        if rank != root:
            return None
        return [got[r] for r in sorted(got)]

    # ------------------------------------------------------------------
    _slot_counters: Dict[str, Dict[int, int]]

    def _generation_slot(self, rank: int, kind: str = "bcast") -> int:
        """Match the k-th collective call of every rank to one generation.

        Ranks must invoke collectives in the same order (as MPI requires);
        each rank's k-th call of a given kind joins generation k.
        """
        if not hasattr(self, "_slot_counters"):
            self._slot_counters = {}
        per_kind = self._slot_counters.setdefault(kind, {})
        gen = per_kind.get(rank, 0)
        per_kind[rank] = gen + 1
        return gen

    def __repr__(self) -> str:
        return f"<Communicator size={self.size}>"
