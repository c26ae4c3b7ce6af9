"""The discrete-event simulator: clock, heap, and generator processes.

A :class:`Simulator` owns a priority queue of triggered events keyed by
``(time, sequence)`` — the sequence number makes execution order fully
deterministic for simultaneous events (FIFO in trigger order), which the
test suite relies on.

Processes are plain Python generators.  A process may ``yield``:

* an :class:`~repro.simulate.events.Event` (including another process) — it
  resumes with the event's value when the event fires, or has the event's
  exception thrown into it if the event failed;
* ``None`` — it resumes immediately within the same timestep (a cooperative
  yield point).

Example::

    sim = Simulator()

    def worker(sim, wait):
        yield sim.timeout(wait)
        return wait * 2

    def main(sim):
        results = yield AllOf(sim, [sim.process(worker(sim, w)) for w in (1, 2)])
        print(sim.now, results)

    sim.process(main(sim))
    sim.run()
"""

from __future__ import annotations

import heapq
from functools import partial
from types import GeneratorType
from typing import Any, Generator, Iterable, List, Optional, Tuple

from ..errors import SimulationError
from .events import _UNSET, AllOf, AnyOf, Event, Timeout, _Condition
from .fastpath import fastpath_enabled

__all__ = ["Simulator", "Process"]


class Process(Event):
    """A running generator, usable as an event that fires on completion.

    The process's return value (via ``return x`` in the generator) becomes
    the event value.  An uncaught exception inside the generator fails the
    event; if nothing is waiting on the process, the exception escalates out
    of :meth:`Simulator.run`.
    """

    __slots__ = ("_gen", "_waiting_on", "name")

    def __init__(self, sim, gen: Generator, name: Optional[str] = None) -> None:
        if type(gen) is not GeneratorType and (
            not hasattr(gen, "send") or not hasattr(gen, "throw")
        ):
            raise SimulationError(f"process body must be a generator, got {type(gen).__name__}")
        # Slots set directly, as in Timeout: one process per message leg.
        self.sim = sim
        self.callbacks = []
        self._value = _UNSET
        self._ok = True
        self._triggered = False
        self._processed = False
        self._defused = False
        self._cancelled = False
        self._gen = gen
        self._waiting_on: Optional[Event] = None
        self.name = name or getattr(gen, "__name__", None) or "process"
        # Kick off at the current simulation time.  Fast path: while the
        # dispatcher is running and the heap holds nothing else at the
        # current timestamp, a delay-0 boot event would pop immediately
        # with nothing able to interleave — so run the body to its first
        # suspension right here and skip the boot event entirely.  (Outside
        # run(), or with same-time events pending, the boot event preserves
        # the exact legacy interleaving.)
        heap = sim._heap
        if sim._running and sim.fastpath and (not heap or heap[0][0] > sim.now):
            self._step(None, False)
        else:
            boot = Event(sim)
            boot.callbacks.append(self._resume)
            boot.succeed()

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self.triggered:
            raise SimulationError("cannot interrupt a finished process")
        self._detach_from_waited_event()
        kick = Event(self.sim)
        kick.callbacks.append(lambda ev: self._deliver_interrupt(cause))
        kick.succeed()

    def close(self) -> None:
        """Abandon the process and every live process it waits on, directly
        or through AllOf/AnyOf: each stops waiting on its event, drops its
        callbacks and has its generator closed (``GeneratorExit`` at the
        suspended ``yield``), so none of them refers to another any more.
        None of them ever fires.  For tearing down a finished simulation;
        unlike an interrupt it schedules and cancels nothing."""
        ev, self._waiting_on = self._waiting_on, None
        if ev is not None:
            try:
                ev.callbacks.remove(self._resume)
            except ValueError:
                pass
            for child in ev.events if isinstance(ev, _Condition) else (ev,):
                if isinstance(child, Process) and not child._triggered:
                    child.close()
        self.callbacks = []
        self._gen.close()

    def _detach_from_waited_event(self) -> None:
        ev = self._waiting_on
        if ev is not None:
            try:
                ev.callbacks.remove(self._resume)
            except ValueError:
                # The event's callback list was already extracted for
                # execution (it fires at this very timestamp): the normal
                # resume may still be delivered before the interrupt —
                # _deliver_interrupt guards against resuming a process that
                # finished in between.
                pass
            else:
                # An interrupted wait on a timeout nothing else observes:
                # cancel it lazily so it stops churning the heap.
                if not ev.callbacks and isinstance(ev, Timeout) and self.sim.fastpath:
                    ev.cancel()
        self._waiting_on = None

    def _deliver_interrupt(self, cause: Any) -> None:
        if self.triggered:
            # The process was resumed by an event scheduled at this same
            # timestamp and already ran to completion — throwing into the
            # exhausted generator would double-resume it.
            return
        self._detach_from_waited_event()
        self._step(Interrupt(cause), throw=True)

    # -- execution ------------------------------------------------------
    def _resume(self, ev: Event) -> None:
        self._waiting_on = None
        if ev._ok:
            self._step(ev._value, throw=False)
        else:
            ev._defused = True
            self._step(ev._value, throw=True)

    def _step(self, value: Any, throw: bool) -> None:
        try:
            while True:
                if throw:
                    target = self._gen.throw(value)
                else:
                    target = self._gen.send(value)
                throw = False
                if target is None:
                    value = None
                    continue  # cooperative yield: resume immediately
                if not isinstance(target, Event):
                    value = SimulationError(
                        f"process {self.name!r} yielded {target!r}, which is not an Event"
                    )
                    throw = True
                    continue
                if target._processed:
                    if target._ok:
                        value = target._value
                    else:
                        target._defused = True
                        value = target._value
                        throw = True
                    continue
                self._waiting_on = target
                target.callbacks.append(self._resume)
                return
        except StopIteration as stop:
            self.succeed(stop.value)
        except BaseException as exc:
            if isinstance(exc, GeneratorExit):
                raise
            # The failure starts at the generator's frame.  This frame
            # would tie the value to the process (a cycle) and, through its
            # callers, to the host stack that ran the simulation.
            self.fail(exc.with_traceback(exc.__traceback__.tb_next))

    def __repr__(self) -> str:
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name} {state}>"


class Interrupt(SimulationError):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(f"interrupted: {cause!r}")
        self.cause = cause


class Simulator:
    """Event heap + virtual clock.

    The public surface:

    * :attr:`now` — current simulation time (seconds).
    * :meth:`event`, :attr:`timeout`, :meth:`process` — create primitives.
    * :meth:`all_of`, :meth:`any_of` — composite waits.
    * :meth:`run` — execute until the heap drains or ``until`` is reached.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._cancelled_events = 0
        self._running = False
        #: Kernel fast paths (eager process start, analytic NIC transfers,
        #: lazy cancellation) — bit-identical by construction; disabled by
        #: ``PVFS_SIM_NO_FASTPATH`` / ``--no-fastpath`` to restore the
        #: exact legacy event chains (see :mod:`repro.simulate.fastpath`).
        self.fastpath = fastpath_enabled()
        #: ``timeout(delay, value=None)``: a :class:`Timeout` firing
        #: ``delay`` sim-seconds from now.  A ``partial`` rather than a
        #: method, so it adds no Python frame of its own (a simulated
        #: message makes several).
        self.timeout = partial(Timeout, self)

    # -- primitives -----------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def process(self, gen: Generator, name: Optional[str] = None) -> Process:
        return Process(self, gen, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def close(self) -> None:
        """Drop the event heap and ``timeout``, which refers back to this
        simulator, so a finished simulation is freed by reference counting.
        Nothing can be scheduled afterwards; the clock and the event counts
        stay readable."""
        self._heap.clear()
        vars(self).pop("timeout", None)

    # -- scheduling -----------------------------------------------------
    @property
    def events_scheduled(self) -> int:
        """Total *live* events ever enqueued — a deterministic churn
        measure.  Lazily-cancelled events (orphaned timeouts skipped by the
        dispatcher without running) are excluded, so the count reflects
        work the kernel actually dispatches."""
        return self._seq - self._cancelled_events

    @property
    def events_cancelled(self) -> int:
        """Events lazily cancelled so far (never dispatched)."""
        return self._cancelled_events

    def _drop_cancelled(self) -> None:
        """Discard dead entries from the top of the heap."""
        heap = self._heap
        while heap and heap[0][2]._cancelled:
            heapq.heappop(heap)

    def peek(self) -> float:
        """Time of the next live event, or ``inf`` if the heap is empty."""
        self._drop_cancelled()
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one live event."""
        self._drop_cancelled()
        if not self._heap:
            raise SimulationError("step() on an empty event heap")
        t, _seq, event = heapq.heappop(self._heap)
        if t < self.now:  # pragma: no cover - defensive
            raise SimulationError("event heap time went backwards")
        self.now = t
        event._run_callbacks()
        if not event._ok and not event._defused:
            exc = event._value
            raise exc if isinstance(exc, BaseException) else SimulationError(repr(exc))

    def run(self, until: Optional[float] = None) -> float:
        """Run until the heap is empty, or the clock reaches ``until``.

        Returns the final simulation time.  Unhandled process failures
        propagate out of this call.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        try:
            if until is not None and until < self.now:
                raise SimulationError(f"until={until} is in the past (now={self.now})")
            # The dispatch loop is the hottest code in the repository, so
            # the heap, pop, and callback walk are inlined here (step()
            # keeps the single-event surface for external callers).
            heap = self._heap
            pop = heapq.heappop
            while heap:
                entry = heap[0]
                event = entry[2]
                if event._cancelled:
                    pop(heap)
                    continue
                t = entry[0]
                if until is not None and t > until:
                    self.now = until
                    return until
                pop(heap)
                self.now = t
                event._processed = True
                callbacks = event.callbacks
                event.callbacks = []
                for cb in callbacks:
                    cb(event)
                if not event._ok and not event._defused:
                    exc = event._value
                    raise exc if isinstance(exc, BaseException) else SimulationError(repr(exc))
            if until is not None:
                self.now = until
            return self.now
        finally:
            self._running = False

    def __repr__(self) -> str:
        return f"<Simulator t={self.now:.6f} pending={len(self._heap)}>"
