"""Tests for the discrete-event kernel (repro.simulate)."""

import pytest

from repro.errors import SimulationError
from repro.simulate import AllOf, Interrupt, Simulator


class TestEvent:
    def test_succeed_carries_value(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(42)
        sim.run()
        assert ev.processed
        assert ev.value == 42

    def test_value_before_trigger_raises(self):
        sim = Simulator()
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_double_trigger_raises(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.event().fail("not an exception")

    def test_delayed_succeed(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("late", delay=5.0)
        sim.run()
        assert sim.now == 5.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.event().succeed(delay=-1.0)


class TestTimeout:
    def test_advances_clock(self):
        sim = Simulator()

        def p(sim):
            yield sim.timeout(3.5)
            return sim.now

        proc = sim.process(p(sim))
        sim.run()
        assert proc.value == 3.5
        assert sim.now == 3.5

    def test_negative_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(-0.1)

    def test_zero_timeout_runs_same_time(self):
        sim = Simulator()
        order = []

        def p(sim, tag):
            yield sim.timeout(0)
            order.append(tag)

        sim.process(p(sim, "a"))
        sim.process(p(sim, "b"))
        sim.run()
        assert order == ["a", "b"]  # deterministic FIFO at equal times


class TestProcess:
    def test_return_value(self):
        sim = Simulator()

        def p(sim):
            yield sim.timeout(1)
            return "done"

        proc = sim.process(p(sim))
        sim.run()
        assert proc.value == "done"

    def test_wait_on_process(self):
        sim = Simulator()

        def child(sim):
            yield sim.timeout(2)
            return 7

        def parent(sim):
            v = yield sim.process(child(sim))
            return v + 1

        proc = sim.process(parent(sim))
        sim.run()
        assert proc.value == 8

    def test_sequential_timeouts_accumulate(self):
        sim = Simulator()

        def p(sim):
            yield sim.timeout(1)
            yield sim.timeout(2)
            yield sim.timeout(3)

        sim.process(p(sim))
        sim.run()
        assert sim.now == 6

    def test_unhandled_exception_escalates(self):
        sim = Simulator()

        def p(sim):
            yield sim.timeout(1)
            raise ValueError("boom")

        sim.process(p(sim))
        with pytest.raises(ValueError, match="boom"):
            sim.run()

    def test_watched_exception_is_thrown_into_waiter(self):
        sim = Simulator()

        def bad(sim):
            yield sim.timeout(1)
            raise ValueError("boom")

        def waiter(sim):
            try:
                yield sim.process(bad(sim))
            except ValueError as e:
                return f"caught {e}"

        proc = sim.process(waiter(sim))
        sim.run()
        assert proc.value == "caught boom"

    def test_yield_non_event_raises_inside_process(self):
        sim = Simulator()

        def p(sim):
            try:
                yield "bogus"
            except SimulationError:
                return "rejected"

        proc = sim.process(p(sim))
        sim.run()
        assert proc.value == "rejected"

    def test_yield_none_is_cooperative(self):
        sim = Simulator()

        def p(sim):
            yield None
            return sim.now

        proc = sim.process(p(sim))
        sim.run()
        assert proc.value == 0.0

    def test_non_generator_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.process(lambda: None)

    def test_yield_already_processed_event(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("early")

        def late(sim):
            yield sim.timeout(5)
            got = yield ev
            return got

        proc = sim.process(late(sim))
        sim.run()
        assert proc.value == "early"

    def test_interrupt(self):
        sim = Simulator()

        def sleeper(sim):
            try:
                yield sim.timeout(100)
            except Interrupt as i:
                return ("interrupted", i.cause, sim.now)

        def killer(sim, victim):
            yield sim.timeout(3)
            victim.interrupt("enough")

        victim = sim.process(sleeper(sim))
        sim.process(killer(sim, victim))
        sim.run()
        assert victim.value == ("interrupted", "enough", 3)

    def test_interrupt_finished_raises(self):
        sim = Simulator()

        def quick(sim):
            yield sim.timeout(0)

        p = sim.process(quick(sim))
        sim.run()
        with pytest.raises(SimulationError):
            p.interrupt()


class TestConditions:
    def test_all_of_collects_values(self):
        sim = Simulator()

        def p(sim, d):
            yield sim.timeout(d)
            return d

        cond = sim.all_of([sim.process(p(sim, d)) for d in (3, 1, 2)])

        def waiter(sim):
            vals = yield cond
            return vals

        proc = sim.process(waiter(sim))
        sim.run()
        assert sorted(proc.value) == [1, 2, 3]
        assert sim.now == 3

    def test_any_of_fires_at_first(self):
        sim = Simulator()

        def p(sim, d):
            yield sim.timeout(d)
            return d

        def waiter(sim):
            yield sim.any_of([sim.process(p(sim, d)) for d in (5, 1, 3)])
            return sim.now

        proc = sim.process(waiter(sim))
        sim.run(until=10)
        assert proc.value == 1

    def test_all_of_empty_fires_immediately(self):
        sim = Simulator()

        def waiter(sim):
            yield sim.all_of([])
            return sim.now

        proc = sim.process(waiter(sim))
        sim.run()
        assert proc.value == 0.0

    def test_all_of_propagates_failure(self):
        sim = Simulator()

        def bad(sim):
            yield sim.timeout(1)
            raise RuntimeError("x")

        def ok(sim):
            yield sim.timeout(5)

        def waiter(sim):
            try:
                yield sim.all_of([sim.process(bad(sim)), sim.process(ok(sim))])
            except RuntimeError:
                return "failed fast"

        proc = sim.process(waiter(sim))
        sim.run()
        assert proc.value == "failed fast"

    def test_cross_simulator_rejected(self):
        s1, s2 = Simulator(), Simulator()
        e1, e2 = s1.event(), s2.event()
        with pytest.raises(SimulationError):
            AllOf(s1, [e1, e2])


class TestRun:
    def test_run_until_stops_clock(self):
        sim = Simulator()

        def p(sim):
            yield sim.timeout(100)

        sim.process(p(sim))
        sim.run(until=10)
        assert sim.now == 10

    def test_run_until_past_raises(self):
        sim = Simulator()
        sim.event().succeed(delay=5)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=1)

    def test_run_empty_returns_now(self):
        sim = Simulator()
        assert sim.run() == 0.0

    def test_step_on_empty_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.step()

    def test_peek(self):
        sim = Simulator()
        assert sim.peek() == float("inf")
        sim.event().succeed(delay=4)
        assert sim.peek() == 4

    def test_determinism_across_runs(self):
        def build():
            sim = Simulator()
            log = []

            def p(sim, tag, d):
                yield sim.timeout(d)
                log.append((tag, sim.now))
                yield sim.timeout(d)
                log.append((tag, sim.now))

            for i, d in enumerate([2, 1, 2, 1]):
                sim.process(p(sim, i, d))
            sim.run()
            return log

        assert build() == build()

    def test_repr(self):
        sim = Simulator()
        assert "Simulator" in repr(sim)
