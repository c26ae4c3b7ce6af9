"""Kernel stress tests for the fast-path/lazy-cancellation heap.

Satellite of the fast-path PR: seeded programs interleaving schedule /
interrupt / ``any_of`` races must produce *identical* observable event
orderings and final simulation time with the kernel fast paths on
(eager process start + lazy cancellation) and off (the exact legacy
event chains, ``PVFS_SIM_NO_FASTPATH=1``) — plus direct unit coverage of
``Event.cancel`` semantics and the cancellation-aware accounting in
``Simulator``.
"""

import os
import random
from contextlib import contextmanager

import pytest

from repro.errors import SimulationError
from repro.simulate import NO_FASTPATH_ENV, Interrupt, Simulator


@contextmanager
def _fastpath(enabled):
    old = os.environ.get(NO_FASTPATH_ENV)
    if enabled:
        os.environ.pop(NO_FASTPATH_ENV, None)
    else:
        os.environ[NO_FASTPATH_ENV] = "1"
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(NO_FASTPATH_ENV, None)
        else:
            os.environ[NO_FASTPATH_ENV] = old


def _make_sim(fastpath):
    with _fastpath(fastpath):
        sim = Simulator()
    assert sim.fastpath is fastpath
    return sim


# ---------------------------------------------------------------------------
# Randomized stress: schedule / interrupt / cancel interleavings.
# ---------------------------------------------------------------------------

#: Delays are multiples of 1/8 so float arithmetic is exact and trace
#: comparison can use ``==``.
_Q = 8.0
#: A sentinel sleep longer than any generated op/interrupt time, so the
#: heap always drains past every lazily-cancelled orphan and the final
#: clock is comparable between modes.
_HORIZON = 100.0


def _stress_program(seed):
    """Precompute a deterministic op schedule (never draw during the run:
    both modes must replay the exact same program)."""
    rng = random.Random(seed)
    workers = []
    for _ in range(6):
        ops = []
        for _ in range(rng.randint(3, 8)):
            kind = rng.choice(["timeout", "race", "join", "spawn"])
            d1 = rng.randint(1, 24) / _Q
            d2 = rng.randint(1, 48) / _Q
            ops.append((kind, d1, d2))
        workers.append(ops)
    interrupts = sorted(
        ((rng.randint(1, 40) / _Q, rng.randrange(len(workers))) for _ in range(5))
    )
    return workers, interrupts


def _run_stress(seed, fastpath):
    workers, interrupts = _stress_program(seed)
    sim = _make_sim(fastpath)
    trace = []
    procs = []

    def worker(sim, wid, ops):
        for i, (kind, d1, d2) in enumerate(ops):
            try:
                if kind == "timeout":
                    yield sim.timeout(d1)
                elif kind == "race":
                    got = yield sim.any_of([sim.timeout(d1, "fast"), sim.timeout(d2, "slow")])
                    trace.append((sim.now, wid, i, f"race:{got[0]}"))
                elif kind == "join":
                    yield sim.all_of([sim.timeout(d1), sim.timeout(d2)])
                else:  # spawn: nested process started mid-run
                    child = sim.process(_child(sim, wid, i, d1), name=f"w{wid}.c{i}")
                    yield child
            except Interrupt as exc:
                trace.append((sim.now, wid, i, f"interrupted:{exc.cause}"))
            else:
                trace.append((sim.now, wid, i, kind))
        trace.append((sim.now, wid, -1, "done"))

    def _child(sim, wid, i, d):
        trace.append((sim.now, wid, i, "child-start"))
        yield sim.timeout(d)
        return d

    def saboteur(sim):
        for k, (when, target) in enumerate(interrupts):
            if when > sim.now:
                yield sim.timeout(when - sim.now)
            p = procs[target]
            if p.is_alive:
                p.interrupt(k)
                trace.append((sim.now, -1, k, f"hit:w{target}"))

    def closer(sim):
        yield sim.timeout(_HORIZON)
        trace.append((sim.now, -2, -2, "horizon"))

    for wid, ops in enumerate(workers):
        procs.append(sim.process(worker(sim, wid, ops), name=f"w{wid}"))
    sim.process(saboteur(sim), name="saboteur")
    sim.process(closer(sim), name="closer")
    final = sim.run()
    return {
        "trace": trace,
        "final": final,
        "scheduled": sim.events_scheduled,
        "cancelled": sim.events_cancelled,
    }


@pytest.mark.parametrize("seed", range(10))
def test_stress_interleavings_identical_on_vs_off(seed):
    on = _run_stress(seed, fastpath=True)
    off = _run_stress(seed, fastpath=False)
    assert on["trace"] == off["trace"]
    assert on["final"] == off["final"] == _HORIZON
    # The legacy mode never cancels; the fast mode never dispatches more.
    assert off["cancelled"] == 0
    assert on["scheduled"] <= off["scheduled"]


def test_stress_exercises_cancellation():
    """At least one seed must actually hit the lazy-cancel path, or the
    stress comparison above proves nothing about it."""
    assert any(_run_stress(seed, fastpath=True)["cancelled"] > 0 for seed in range(10))


# ---------------------------------------------------------------------------
# Event.cancel semantics.
# ---------------------------------------------------------------------------


class TestCancelSemantics:
    def test_cancel_triggered_timeout(self):
        sim = _make_sim(True)
        ev = sim.timeout(5.0)
        assert ev.cancel() is True
        assert sim.events_cancelled == 1
        assert ev.cancel() is False  # idempotent

    def test_cancel_pending_event_refused(self):
        sim = _make_sim(True)
        ev = sim.event()  # never triggered
        assert ev.cancel() is False
        assert sim.events_cancelled == 0

    def test_cancel_processed_event_refused(self):
        sim = _make_sim(True)
        ev = sim.timeout(1.0)
        sim.run()
        assert ev.processed
        assert ev.cancel() is False

    def test_peek_and_step_skip_cancelled(self):
        sim = _make_sim(True)
        dead = sim.timeout(1.0)
        live = sim.timeout(2.0)
        dead.cancel()
        assert sim.peek() == 2.0
        sim.step()
        assert sim.now == 2.0
        assert live.processed and not dead.processed

    def test_step_on_all_cancelled_heap_raises(self):
        sim = _make_sim(True)
        sim.timeout(1.0).cancel()
        assert sim.peek() == float("inf")
        with pytest.raises(SimulationError):
            sim.step()

    def test_run_never_advances_to_cancelled_tail(self):
        """A cancelled orphan at the heap tail is skipped without the
        clock ever reaching its timestamp."""
        sim = _make_sim(True)

        def sleeper(sim):
            try:
                yield sim.timeout(50.0)
            except Interrupt:
                pass

        def boss(sim, p):
            yield sim.timeout(1.0)
            p.interrupt("stop")

        p = sim.process(sleeper(sim))
        sim.process(boss(sim, p))
        sim.run()
        assert sim.now == 1.0
        assert sim.events_cancelled == 1


# ---------------------------------------------------------------------------
# Accounting: events_scheduled stays truthful.
# ---------------------------------------------------------------------------


def _interrupted_workload(sim):
    def sleeper(sim):
        try:
            yield sim.timeout(50.0)
        except Interrupt:
            yield sim.timeout(0.5)

    def boss(sim, ps):
        yield sim.timeout(1.0)
        for p in ps:
            p.interrupt("stop")

    ps = [sim.process(sleeper(sim), name=f"s{i}") for i in range(4)]
    sim.process(boss(sim, ps), name="boss")


def test_events_scheduled_excludes_cancelled():
    sim = _make_sim(True)
    _interrupted_workload(sim)
    sim.run()
    assert sim.events_cancelled == 4  # one orphaned 50 s timeout per sleeper
    assert sim.events_scheduled == sim._seq - 4
    # The raw sequence counter keeps total ordering; the public counter
    # only reflects events the dispatcher actually ran.
    assert sim.events_scheduled < sim._seq


def _dispatch_all(sim):
    """Drain ``sim`` one live event at a time; returns the events dispatched."""
    dispatched = 0
    while sim.peek() != float("inf"):
        sim.step()
        dispatched += 1
    return dispatched


def test_dispatched_events_match_events_scheduled_under_cancellation():
    sim = _make_sim(True)
    _interrupted_workload(sim)
    # The invariant the public counter exists to protect: it counts the
    # events the kernel dispatches, and lazily cancelled ones apart.
    assert _dispatch_all(sim) == sim.events_scheduled == 19
    assert sim.events_cancelled == 4


def test_dispatched_events_match_events_scheduled_without_fastpath():
    sim = _make_sim(False)
    _interrupted_workload(sim)
    assert _dispatch_all(sim) == sim.events_scheduled == 23
    assert sim.events_cancelled == 0
