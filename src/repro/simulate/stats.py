"""Lightweight instrumentation for simulation runs.

:class:`Counters` is a nested string->number accumulator every daemon and
client writes into; :class:`Timeline` records (time, value) samples for
post-run inspection.  Both are pure bookkeeping — they never affect
simulated time.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterator, List, Tuple

__all__ = ["Counters", "Timeline"]


class Counters:
    """A defaultdict-of-floats with namespacing.

    Keys are dotted strings, e.g. ``"iod.3.requests"`` or
    ``"net.bytes_tx"``.
    """

    def __init__(self) -> None:
        self._data: Dict[str, float] = defaultdict(float)

    def add(self, key: str, amount: float = 1.0) -> None:
        self._data[key] += amount

    def get(self, key: str, default: float = 0.0) -> float:
        return self._data.get(key, default)

    def __getitem__(self, key: str) -> float:
        return self._data.get(key, 0.0)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._data))

    def items(self) -> List[Tuple[str, float]]:
        return sorted(self._data.items())

    def scoped(self, prefix: str) -> "ScopedCounters":
        """A view that prefixes every key with ``prefix + '.'``."""
        return ScopedCounters(self, prefix)

    def total(self, prefix: str, suffix: str = "") -> float:
        """Sum of every counter whose key starts with ``prefix`` and ends
        with ``suffix``: ``total("client", ".retries")`` adds up every
        client's retries."""
        p = prefix if prefix.endswith(".") else prefix + "."
        return sum(
            v
            for k, v in self._data.items()
            if (k.startswith(p) or k == prefix) and k.endswith(suffix)
        )

    def __repr__(self) -> str:
        return f"Counters({dict(sorted(self._data.items()))!r})"


class ScopedCounters:
    """Prefix view over a :class:`Counters` (shares storage).

    Scoped adds run on every served request, so the view binds the backing
    dict and the dotted prefix once instead of re-joining and re-dispatching
    through :class:`Counters` per call.
    """

    __slots__ = ("_data", "_dot")

    def __init__(self, base: Counters, prefix: str) -> None:
        self._data = base._data
        self._dot = prefix.rstrip(".") + "."

    def add(self, key: str, amount: float = 1.0) -> None:
        self._data[self._dot + key] += amount


class Timeline:
    """Ordered (time, value) samples, e.g. queue depth over time."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def record(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError("timeline samples must be recorded in time order")
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def max_value(self) -> float:
        return max(self.values) if self.values else 0.0

    def segments(self, t0: float, t1: float, initial: float = 0.0) -> Iterator[Tuple[float, float]]:
        """The piecewise-constant signal clipped to ``[t0, t1]``, as
        (duration, value) pieces in time order.

        Sample i's value holds from ``times[i]`` until the next sample; the
        last value persists beyond ``times[-1]``.  Before the first sample
        (the whole window, for an empty timeline) the signal is ``initial``:
        queue depths start at zero, not at the first recorded depth.
        """
        times, values = self.times, self.values
        first = times[0] if times else t1
        if t0 < first:
            yield min(t1, first) - t0, initial
        last = len(times) - 1
        for i, start in enumerate(times):
            end = times[i + 1] if i < last else t1
            lo, hi = max(start, t0), min(end, t1)
            if hi > lo:
                yield hi - lo, values[i]

    def integrate(self, t0: float, t1: float, initial: float = 0.0) -> float:
        """Integral of the signal over ``[t0, t1]`` (see :meth:`segments`).
        Used to compute utilization over arbitrary sub-windows of a run.
        """
        if t1 < t0:
            raise ValueError(f"integration window reversed: {t0} .. {t1}")
        total = 0.0
        for duration, value in self.segments(t0, t1, initial):
            total += value * duration
        return total

    def mean_over(self, t0: float, t1: float, initial: float = 0.0) -> float:
        """Mean of the signal over ``[t0, t1]`` (0.0 for an empty window)."""
        if t1 <= t0:
            return 0.0
        return self.integrate(t0, t1, initial=initial) / (t1 - t0)
