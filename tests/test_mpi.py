"""Tests for the simulated MPI communicator."""

import pytest

from repro.errors import ConfigError
from repro.mpi import Communicator
from repro.simulate import Simulator


class TestBarrier:
    def test_all_ranks_released_together(self):
        sim = Simulator()
        comm = Communicator(sim, 3)
        times = []

        def rank(sim, delay):
            yield sim.timeout(delay)
            yield comm.barrier()
            times.append(sim.now)

        for d in (1, 7, 4):
            sim.process(rank(sim, d))
        sim.run()
        assert times == [7, 7, 7]


class TestSlot:
    def test_successive_calls_are_independent(self):
        # each rank's k-th call of a kind meets every other rank's k-th call
        comm = Communicator(Simulator(), 2)
        first = comm.slot("io", 0, list)
        second = comm.slot("io", 0, list)
        assert first is not second
        assert comm.slot("io", 1, list) is first
        assert comm.slot("io", 1, list) is second
        assert comm.slot("other", 1, list) is not first  # kinds count apart


class TestValidation:
    def test_size_must_be_positive(self):
        with pytest.raises(ConfigError):
            Communicator(Simulator(), 0)

    def test_repr(self):
        assert "Communicator" in repr(Communicator(Simulator(), 2))

    def test_single_rank_collectives(self):
        sim = Simulator()
        comm = Communicator(sim, 1)

        def rank(sim):
            yield sim.timeout(3)
            yield comm.barrier()
            return sim.now

        p = sim.process(rank(sim))
        sim.run()
        assert p.value == 3  # a lone rank passes the barrier at once
