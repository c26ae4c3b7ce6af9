"""Machine speed, read between points, and host times scaled to it.

The benchmark runs on shared hosts whose speed drifts: on a 2-vCPU VM
the same pass took 1.1 s and 1.9 s a few seconds apart, and speed
regimes last from seconds to minutes.  Two runs of the same code
minutes apart then differ by more than any regression worth catching,
and a median over one run's passes cannot remove that: the whole run
may sit in one regime.

So every host time the end-to-end metrics report is scaled to a fixed
reference speed.  A *reading* times a short, fixed piece of work that
shares no code with the simulator — a heap/dict/generator loop like the
event kernel's, plus a numpy set union like the region algebra's.
Readings are taken before the first point of the timed passes and after
every point, off the measured clock.  A point's host seconds are
multiplied by ``REFERENCE_S / reading``, with ``reading`` the mean of
the readings on both sides of it: on a host running at the reference
speed the scaled value equals the raw one, on a host running half as
fast the raw seconds double and the scale halves them again.  A change to the simulator moves
the scaled value exactly as it moves the raw one, because the reading
does not run simulator code.

Set-up is different work: starting an interpreter and importing
modules is bound by process creation, page faults and file reads as much
as by the interpreter's speed, and the kernel above tracks it poorly:
in one measurement the kernel took a third less time while the set-up
probe took only a fifth less.  So each set-up probe is scaled by a
reference start taken right after it: a fresh interpreter that imports
numpy and no simulator code (:data:`START_CMD`), with
``REFERENCE_START_S / start`` as the factor.

``run.py`` prints the raw seconds next to the scaled ones.
"""

from __future__ import annotations

import gc
import heapq
import sys
from time import perf_counter
from typing import List

import numpy as np

__all__ = ["REFERENCE_S", "REFERENCE_START_S", "START_CMD", "SpeedTrack", "kernel", "reading"]

#: Seconds one :func:`reading` takes at the reference speed.  Any fixed
#: value works (the bounds are relative); this one is about what a
#: reading takes on a 2-vCPU x86-64 VM with Python 3.11, so scaled times
#: read close to raw ones there.
REFERENCE_S = 0.0025

#: The reference start for set-up: a fresh interpreter importing numpy,
#: which the simulator imports too, and nothing of the simulator.
START_CMD = (sys.executable, "-c", "import numpy; print('ready', flush=True)")

#: Seconds :data:`START_CMD` takes to print ``ready`` at the reference
#: speed; like :data:`REFERENCE_S`, about what it takes on the 2-vCPU VM.
REFERENCE_START_S = 0.2

#: Readings a :class:`SpeedTrack` takes and drops before the first one
#: that counts.
WARMUP_READINGS = 3

_A = np.arange(0, 10_000, 3, dtype=np.int64)
_B = np.arange(0, 10_000, 5, dtype=np.int64)


def _ticks(k: int):
    for j in range(k):
        yield j


def kernel(n: int = 1500) -> int:
    """The fixed work: ``n`` heap pushes with dict counting, a pop and a
    short generator run now and then, then one numpy union and prefix
    sum.  Returns a checksum so no step can be skipped."""
    heap: list = []
    counts: dict = {}
    acc = 0
    for i in range(n):
        key = (i * 2654435761) & 0xFFFF
        heapq.heappush(heap, (key, i))
        counts[key] = counts.get(key, 0) + 1
        if len(heap) > 64:
            k, j = heapq.heappop(heap)
            acc += k ^ j
        if i % 50 == 0:
            acc += sum(_ticks(20))
    acc += int(np.union1d(_A, _B)[-1]) + int(np.cumsum(_B)[-1] & 0xFF)
    return acc + len(counts)


def reading() -> float:
    """Host seconds of one :func:`kernel` call, with the cyclic garbage
    collector paused: a collection would scan the simulator's live
    objects and tie the reading to the program it is meant to be
    independent of."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class SpeedTrack:
    """Readings taken between measured intervals.

    Create it right before the first interval and call :meth:`read` right
    after each interval ends; :meth:`scales` then turns the last ``k``
    intervals' raw host seconds into seconds at the reference speed.
    """

    def __init__(self) -> None:
        for _ in range(WARMUP_READINGS):  # the first calls of a process run slower
            reading()
        self.readings: List[float] = [reading()]

    def read(self) -> None:
        self.readings.append(reading())

    def scales(self, k: int) -> List[float]:
        """Factors for the last ``k`` intervals, oldest first: the
        reference over the mean of the readings on each side."""
        if not 0 < k < len(self.readings):
            raise ValueError(f"{k} intervals need {k + 1} readings, have {len(self.readings)}")
        r = self.readings[-(k + 1):]
        return [2 * REFERENCE_S / (a + b) for a, b in zip(r, r[1:])]
