"""Discrete-event simulation kernel (built from scratch for pvfs-sim).

Public surface::

    from repro.simulate import Simulator, Resource, Store, Barrier

    sim = Simulator()
    cpu = Resource(sim, capacity=1, name="cpu")

    def job(sim):
        with cpu.request() as req:
            yield req
            yield sim.timeout(1.5)
        return sim.now

    done = sim.process(job(sim))
    sim.run()
"""

from .events import AllOf, AnyOf, Event, Timeout
from .fastpath import NO_FASTPATH_ENV, fastpath_enabled
from .kernel import Interrupt, Process, Simulator
from .resources import Barrier, Request, Resource, Store
from .stats import Counters, ScopedCounters, Timeline
from .trace import Span, Tracer

__all__ = [
    "Simulator",
    "Process",
    "Interrupt",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Resource",
    "Request",
    "Store",
    "Barrier",
    "Counters",
    "ScopedCounters",
    "Timeline",
    "Span",
    "Tracer",
    "NO_FASTPATH_ENV",
    "fastpath_enabled",
]
