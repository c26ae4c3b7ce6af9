"""Event primitives for the discrete-event kernel.

The kernel follows the classic generator-process model (as popularized by
SimPy, reimplemented here from scratch because this reproduction builds all
of its substrates): an :class:`Event` is a one-shot occurrence that carries a
value or an exception; processes are generators that ``yield`` events and are
resumed when those events fire.
"""

from __future__ import annotations

from heapq import heappush as _heappush
from typing import Any, Callable, Iterable, List

from ..errors import SimulationError

__all__ = ["Event", "Timeout", "AllOf", "AnyOf"]

_UNSET = object()


class Event:
    """A one-shot occurrence on a simulator's timeline.

    Lifecycle: *pending* -> *triggered* (``succeed``/``fail`` called, queued
    on the heap) -> *processed* (callbacks ran).  Each transition is
    one-way; retriggering raises :class:`SimulationError`.

    A triggered-but-unprocessed event that provably nothing waits on any
    more may be *lazily cancelled* (:meth:`cancel`): it stays in the heap
    but the dispatcher skips it on pop without running callbacks or
    advancing the clock, and it is excluded from
    :attr:`~repro.simulate.kernel.Simulator.events_scheduled`.
    """

    __slots__ = (
        "sim",
        "callbacks",
        "_value",
        "_ok",
        "_triggered",
        "_processed",
        "_defused",
        "_cancelled",
    )

    def __init__(self, sim) -> None:
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = _UNSET
        self._ok = True
        self._triggered = False
        self._processed = False
        self._defused = False
        self._cancelled = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        """Whether the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _UNSET:
            raise SimulationError("event value read before the event triggered")
        return self._value

    # -- transitions ----------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger successfully with ``value`` after ``delay`` sim-seconds."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if delay < 0:
            raise SimulationError("cannot trigger an event in the past")
        self._triggered = True
        self._value = value
        # Onto the simulator's heap (every triggered event passes here).
        sim = self.sim
        _heappush(sim._heap, (sim.now + delay, sim._seq, self))
        sim._seq += 1
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "Event":
        """Trigger as failed; waiting processes get ``exc`` thrown into them."""
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exc!r}")
        # Trigger as succeed() does, then record the failure; nothing runs
        # in between.
        self.succeed(exc, delay)
        self._ok = False
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel does not escalate the
        exception when nothing is waiting on it."""
        self._defused = True

    def cancel(self) -> bool:
        """Lazily cancel a triggered-but-unprocessed event.

        The heap entry stays where it is; the dispatcher discards it on pop
        without running callbacks (and without advancing the clock to its
        timestamp when nothing live shares it).  Only call this when nothing
        can observe the event any more — the kernel does so for timeouts
        orphaned by interrupts and lost ``any_of`` races.  Returns whether
        the event was actually cancelled (pending or already-processed
        events are left alone).
        """
        if self._cancelled or self._processed or not self._triggered:
            return False
        self._cancelled = True
        self.sim._cancelled_events += 1
        return True

    def _run_callbacks(self) -> None:
        self._processed = True
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)

    def __repr__(self) -> str:
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that fires ``delay`` sim-seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim, delay: float, value: Any = None) -> None:
        # Timeouts are the single most-created event kind, so this sets the
        # slots directly and enqueues inline rather than chaining through
        # Event.__init__ + Event.succeed.
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self._defused = False
        self._cancelled = False
        self.delay = delay
        _heappush(sim._heap, (sim.now + delay, sim._seq, self))
        sim._seq += 1


class _Condition(Event):
    """Base for AllOf / AnyOf composite events."""

    __slots__ = ("events", "_n_fired")

    def __init__(self, sim, events: Iterable[Event]) -> None:
        # Slots set directly, as in Timeout: one of these per fan-out.
        self.sim = sim
        self.callbacks = []
        self._value = _UNSET
        self._ok = True
        self._triggered = False
        self._processed = False
        self._defused = False
        self._cancelled = False
        self.events = events = tuple(events)
        self._n_fired = 0
        for ev in events:
            if ev.sim is not sim:
                raise SimulationError("cannot combine events from different simulators")
        if not events:
            self.succeed(self._collect())
            return
        on_fire = self._on_fire
        for ev in events:
            if ev._processed:
                on_fire(ev)
            else:
                ev.callbacks.append(on_fire)

    def _collect(self) -> list:
        return [ev._value for ev in self.events if ev._processed and ev._ok]

    def _on_fire(self, ev: Event) -> None:
        if self._triggered:
            return
        if not ev._ok:
            ev._defused = True
            self.fail(ev._value)
            self._release_pending()
            return
        self._n_fired += 1
        if self._satisfied():
            self.succeed(self._collect())
            self._release_pending()

    def _release_pending(self) -> None:
        """Detach from children still pending after this condition resolved.

        An AnyOf whose winner already fired keeps no interest in the losers;
        leaving the ``_on_fire`` callback attached would only make the
        dispatcher run it (as a no-op) when each loser eventually pops.
        Detaching is pure optimization — ``_on_fire`` early-returns once
        triggered — and a detached loser timeout with no other waiters can
        be lazily cancelled outright.  Gated on the kernel fast-path switch
        so ``--no-fastpath`` reproduces the legacy event chains exactly.
        """
        if not self.sim.fastpath:
            return
        for ev in self.events:
            if ev._processed or ev._cancelled:
                continue
            try:
                ev.callbacks.remove(self._on_fire)
            except ValueError:
                continue
            if not ev.callbacks and isinstance(ev, Timeout):
                ev.cancel()

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every child event has fired (fails fast on any failure)."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._n_fired == len(self.events)


class AnyOf(_Condition):
    """Fires when the first child event fires."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._n_fired >= 1
