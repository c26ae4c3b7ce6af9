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


class TestBcast:
    def test_root_value_reaches_all(self):
        sim = Simulator()
        comm = Communicator(sim, 3)
        got = []

        def rank(sim, r):
            value = yield from comm.bcast(r, f"from-{r}" if r == 0 else None, root=0)
            got.append((r, value))

        for r in range(3):
            sim.process(rank(sim, r))
        sim.run()
        assert got == [(0, "from-0"), (1, "from-0"), (2, "from-0")]

    def test_successive_bcasts_are_independent(self):
        sim = Simulator()
        comm = Communicator(sim, 2)
        got = {}

        def rank(sim, r):
            a = yield from comm.bcast(r, "first" if r == 0 else None, root=0)
            b = yield from comm.bcast(r, "second" if r == 0 else None, root=0)
            got[r] = (a, b)

        for r in range(2):
            sim.process(rank(sim, r))
        sim.run()
        assert got == {0: ("first", "second"), 1: ("first", "second")}


class TestGather:
    def test_root_collects_in_rank_order(self):
        sim = Simulator()
        comm = Communicator(sim, 3)
        out = {}

        def rank(sim, r):
            yield sim.timeout(3 - r)  # arrive in reverse order
            res = yield from comm.gather(r, r * 10, root=1)
            out[r] = res

        for r in range(3):
            sim.process(rank(sim, r))
        sim.run()
        assert out[1] == [0, 10, 20]
        assert out[0] is None
        assert out[2] is None


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
            yield comm.barrier()
            v = yield from comm.bcast(0, 42, root=0)
            g = yield from comm.gather(0, 7, root=0)
            return (v, g)

        p = sim.process(rank(sim))
        sim.run()
        assert p.value == (42, [7])
