"""Shared-resource primitives built on the event kernel.

* :class:`Resource` — a counted FCFS resource (NIC, disk arm, server CPU).
* :class:`Store` — an unbounded FIFO of items (daemon request queues).
* :class:`Barrier` — a reusable n-party barrier (the simulated
  ``MPI_Barrier`` the paper uses to serialize data-sieving writes).
* :class:`Mutex` — a convenience capacity-1 resource.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, List, Optional

from ..errors import SimulationError
from .events import Event
from .kernel import Simulator

__all__ = ["Resource", "Request", "Store", "Barrier", "Mutex", "hold"]


class Request(Event):
    """A pending/granted claim on a :class:`Resource`.

    Usable as a context manager so holders release even on error::

        with res.request() as req:
            yield req
            yield sim.timeout(service_time)
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.sim)
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.resource.release(self)


class _FastClaim:
    """Opaque token for a synchronous :meth:`Resource.try_acquire` claim.

    Occupies a ``_users`` slot exactly like a granted :class:`Request`
    (release matches on identity), without carrying an Event.
    """

    __slots__ = ()


class Resource:
    """A counted resource with strict FCFS granting.

    ``capacity`` units exist; each :meth:`request` claims one unit when
    granted.  Grant order equals request order (no barging), which keeps the
    network and disk models deterministic.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError("resource capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._queue: Deque[Request] = deque()
        self._users: List[Request] = []
        self.total_requests = 0

    @property
    def in_use(self) -> int:
        return len(self._users)

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def request(self) -> Request:
        req = Request(self)
        self.total_requests += 1
        self._queue.append(req)
        self._grant()
        return req

    def try_acquire(self) -> Optional["_FastClaim"]:
        """Claim one unit synchronously iff it would be granted immediately.

        Returns an opaque token to pass to :meth:`release`, or ``None`` when
        the resource is busy or anyone is queued (strict FCFS: a fast claim
        must never overtake a waiter).  ``total_requests`` counts it like an
        immediately-granted :meth:`request`.  This is the NIC fast path's
        primitive: it skips the Request event and its delay-0 grant dispatch.
        """
        if self._queue or len(self._users) >= self.capacity:
            return None
        self.total_requests += 1
        tok = _FastClaim()
        self._users.append(tok)
        return tok

    def release(self, req: Request) -> None:
        if req in self._users:
            self._users.remove(req)
            self._grant()
        else:
            # Cancelling an ungranted request is allowed (context-manager
            # exit after a failure while still queued).
            try:
                self._queue.remove(req)
            except ValueError:
                pass

    def _grant(self) -> None:
        while self._queue and len(self._users) < self.capacity:
            req = self._queue.popleft()
            if req.triggered:  # cancelled/failed while queued
                continue
            self._users.append(req)
            req.succeed(req)

    def __repr__(self) -> str:
        return (
            f"<Resource {self.name or hex(id(self))} {self.in_use}/{self.capacity}"
            f" q={self.queue_length}>"
        )


class Mutex(Resource):
    """A capacity-1 resource (PVFS has no file locks; this exists for the
    harness-level serialization the paper implements with barriers, and for
    the hybrid extension)."""

    def __init__(self, sim: Simulator, name: str = "") -> None:
        super().__init__(sim, capacity=1, name=name)


def hold(sim: Simulator, resource: Resource, duration: float) -> Generator:
    """Process helper: acquire ``resource``, hold it ``duration``, release.

    Usage: ``yield sim.process(hold(sim, cpu, cost))`` or inline
    ``yield from hold(sim, cpu, cost)`` inside another process.
    """
    with resource.request() as req:
        yield req
        yield sim.timeout(duration)


class Store:
    """Unbounded FIFO of Python objects with blocking :meth:`get`.

    Items are handed to getters in arrival order; getters are served in
    request order.
    """

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self.total_put = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit an item (never blocks)."""
        self.total_put += 1
        # Hand off directly if a getter is waiting.
        while self._getters:
            getter = self._getters.popleft()
            if getter.triggered:
                continue
            getter.succeed(item)
            return
        self._items.append(item)

    def get(self) -> Event:
        """Event that fires with the next item."""
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def drain(self) -> List[Any]:
        """Remove and return every queued item (a crashing daemon dropping
        its inbox).  Waiting getters are left pending — the owner decides
        whether to terminate or keep them."""
        items = list(self._items)
        self._items.clear()
        return items

    def __repr__(self) -> str:
        return f"<Store {self.name or hex(id(self))} items={len(self._items)} waiters={len(self._getters)}>"


class Barrier:
    """Reusable n-party barrier.

    The k-th generation completes when ``parties`` processes have called
    :meth:`wait` since the previous completion; all of them resume at the
    same simulation time.  This models the ``MPI_Barrier()`` serialization
    loop the paper uses for data-sieving writes (Section 4.3.1).
    """

    def __init__(self, sim: Simulator, parties: int, name: str = "") -> None:
        if parties < 1:
            raise SimulationError("barrier needs at least one party")
        self.sim = sim
        self.parties = parties
        self.name = name
        self.generation = 0
        self._waiting: List[Event] = []

    @property
    def n_waiting(self) -> int:
        return len(self._waiting)

    def wait(self) -> Event:
        """Event that fires (with the generation number) when all parties
        have arrived."""
        ev = Event(self.sim)
        self._waiting.append(ev)
        if len(self._waiting) == self.parties:
            waiting, self._waiting = self._waiting, []
            gen = self.generation
            self.generation += 1
            for w in waiting:
                w.succeed(gen)
        return ev

    def __repr__(self) -> str:
        return f"<Barrier {self.name or hex(id(self))} {self.n_waiting}/{self.parties} gen={self.generation}>"
