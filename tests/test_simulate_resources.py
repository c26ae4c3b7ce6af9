"""Tests for Resource / Store / Barrier / Mutex (repro.simulate.resources)."""

import pytest

from repro.errors import SimulationError
from repro.simulate import Barrier, Mutex, Resource, Simulator, Store, hold


class TestResource:
    def test_serializes_unit_capacity(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        finish = []

        def job(sim, tag):
            with res.request() as req:
                yield req
                yield sim.timeout(2)
            finish.append((tag, sim.now))

        for t in ("a", "b", "c"):
            sim.process(job(sim, t))
        sim.run()
        assert finish == [("a", 2), ("b", 4), ("c", 6)]

    def test_capacity_two_overlaps(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        finish = []

        def job(sim, tag):
            with res.request() as req:
                yield req
                yield sim.timeout(2)
            finish.append((tag, sim.now))

        for t in range(4):
            sim.process(job(sim, t))
        sim.run()
        assert [f[1] for f in finish] == [2, 2, 4, 4]

    def test_fcfs_order(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        order = []

        def job(sim, tag, arrive):
            yield sim.timeout(arrive)
            with res.request() as req:
                yield req
                order.append(tag)
                yield sim.timeout(10)

        sim.process(job(sim, "late", 2))
        sim.process(job(sim, "early", 1))
        sim.run()
        assert order == ["early", "late"]

    def test_release_without_grant_cancels(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)

        def holder(sim):
            with res.request() as req:
                yield req
                yield sim.timeout(5)

        def quitter(sim):
            yield sim.timeout(1)
            req = res.request()
            assert not req.triggered
            res.release(req)  # cancel while queued

        def third(sim):
            yield sim.timeout(2)
            with res.request() as req:
                yield req
            return sim.now

        sim.process(holder(sim))
        sim.process(quitter(sim))
        p3 = sim.process(third(sim))
        sim.run()
        assert p3.value == 5  # quitter did not consume a grant
        assert res.total_requests == 3  # the cancelled request still counts

    def test_bad_capacity(self):
        with pytest.raises(SimulationError):
            Resource(Simulator(), capacity=0)

    def test_hold_helper(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)

        def p(sim):
            yield from hold(sim, res, 3.0)
            return sim.now

        proc = sim.process(p(sim))
        sim.run()
        assert proc.value == 3.0
        assert res.in_use == 0

    def test_repr(self):
        assert "Resource" in repr(Resource(Simulator(), name="disk"))


class TestMutex:
    def test_is_capacity_one(self):
        assert Mutex(Simulator()).capacity == 1


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)
        store.put("x")

        def consumer(sim):
            item = yield store.get()
            return item

        proc = sim.process(consumer(sim))
        sim.run()
        assert proc.value == "x"

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)

        def consumer(sim):
            item = yield store.get()
            return (item, sim.now)

        def producer(sim):
            yield sim.timeout(4)
            store.put("late")

        proc = sim.process(consumer(sim))
        sim.process(producer(sim))
        sim.run()
        assert proc.value == ("late", 4)

    def test_fifo_both_sides(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def consumer(sim, tag):
            item = yield store.get()
            got.append((tag, item))

        sim.process(consumer(sim, "c1"))
        sim.process(consumer(sim, "c2"))

        def producer(sim):
            yield sim.timeout(1)
            store.put("i1")
            store.put("i2")

        sim.process(producer(sim))
        sim.run()
        assert got == [("c1", "i1"), ("c2", "i2")]

    def test_len_counts_buffered(self):
        sim = Simulator()
        store = Store(sim)
        store.put(1)
        store.put(2)
        assert len(store) == 2
        assert store.total_put == 2

    def test_repr(self):
        assert "Store" in repr(Store(Simulator()))


class TestBarrier:
    def test_releases_all_at_last_arrival(self):
        sim = Simulator()
        bar = Barrier(sim, parties=3)
        times = []

        def p(sim, arrive):
            yield sim.timeout(arrive)
            yield bar.wait()
            times.append(sim.now)

        for a in (1, 5, 3):
            sim.process(p(sim, a))
        sim.run()
        assert times == [5, 5, 5]

    def test_reusable_generations(self):
        sim = Simulator()
        bar = Barrier(sim, parties=2)
        gens = []

        def p(sim):
            g0 = yield bar.wait()
            yield sim.timeout(1)
            g1 = yield bar.wait()
            gens.append((g0, g1))

        sim.process(p(sim))
        sim.process(p(sim))
        sim.run()
        assert gens == [(0, 1), (0, 1)]
        assert bar.generation == 2

    def test_single_party_is_noop(self):
        sim = Simulator()
        bar = Barrier(sim, parties=1)

        def p(sim):
            yield bar.wait()
            return sim.now

        proc = sim.process(p(sim))
        sim.run()
        assert proc.value == 0.0

    def test_bad_parties(self):
        with pytest.raises(SimulationError):
            Barrier(Simulator(), parties=0)

    def test_repr(self):
        assert "Barrier" in repr(Barrier(Simulator(), parties=2))
