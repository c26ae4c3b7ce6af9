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
    """A defaultdict-of-floats with namespacing and merge support.

    Keys are dotted strings, e.g. ``"iod.3.requests"`` or
    ``"net.bytes_tx"``.
    """

    def __init__(self) -> None:
        self._data: Dict[str, float] = defaultdict(float)

    def add(self, key: str, amount: float = 1.0) -> None:
        self._data[key] += amount

    def set(self, key: str, value: float) -> None:
        self._data[key] = value

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

    def merge(self, other: "Counters") -> "Counters":
        for k, v in other._data.items():
            self._data[k] += v
        return self

    def scoped(self, prefix: str) -> "ScopedCounters":
        """A view that prefixes every key with ``prefix + '.'``."""
        return ScopedCounters(self, prefix)

    def total(self, prefix: str) -> float:
        """Sum of every counter whose key starts with ``prefix``."""
        p = prefix if prefix.endswith(".") else prefix + "."
        return sum(v for k, v in self._data.items() if k.startswith(p) or k == prefix)

    def __repr__(self) -> str:
        return f"Counters({dict(sorted(self._data.items()))!r})"


class ScopedCounters:
    """Prefix view over a :class:`Counters` (shares storage).

    Scoped adds run on every served request, so the view binds the backing
    dict and the dotted prefix once instead of re-joining and re-dispatching
    through :class:`Counters` per call.
    """

    __slots__ = ("_base", "_prefix", "_data", "_dot")

    def __init__(self, base: Counters, prefix: str) -> None:
        self._base = base
        self._prefix = prefix.rstrip(".")
        self._data = base._data
        self._dot = self._prefix + "."

    def add(self, key: str, amount: float = 1.0) -> None:
        self._data[self._dot + key] += amount

    def set(self, key: str, value: float) -> None:
        self._data[self._dot + key] = value

    def get(self, key: str, default: float = 0.0) -> float:
        return self._data.get(self._dot + key, default)

    def __getitem__(self, key: str) -> float:
        return self._data.get(self._dot + key, 0.0)


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

    def last(self) -> Tuple[float, float]:
        if not self.times:
            raise IndexError("empty timeline")
        return self.times[-1], self.values[-1]

    def max_value(self) -> float:
        return max(self.values) if self.values else 0.0

    def time_weighted_mean(self) -> float:
        """Mean of the piecewise-constant signal defined by the samples.

        Guarded edge cases: an empty timeline is 0.0, a single sample is
        that sample's value, and coincident samples (zero total span) yield
        the last value recorded.
        """
        if not self.values:
            return 0.0
        if len(self.times) < 2:
            return self.values[0]
        span = self.times[-1] - self.times[0]
        if span <= 0.0:
            return self.values[-1]
        total = 0.0
        for i in range(len(self.times) - 1):
            total += self.values[i] * (self.times[i + 1] - self.times[i])
        return total / span

    def integrate(self, t0: float, t1: float, initial: float = 0.0) -> float:
        """Integral of the piecewise-constant signal over ``[t0, t1]``.

        Sample i's value holds from ``times[i]`` until the next sample; the
        last value persists beyond ``times[-1]``.  Before the first sample
        the signal is ``initial`` (queue depths start at zero, not at the
        first recorded depth).  Used to compute utilization over arbitrary
        sub-windows of a run.
        """
        if t1 < t0:
            raise ValueError(f"integration window reversed: {t0} .. {t1}")
        if not self.times:
            return initial * (t1 - t0)
        total = 0.0
        # Segment before the first sample.
        if t0 < self.times[0]:
            total += initial * (min(t1, self.times[0]) - t0)
        # Interior segments [times[i], times[i+1]) at values[i].
        for i in range(len(self.times)):
            seg_start = self.times[i]
            seg_end = self.times[i + 1] if i + 1 < len(self.times) else t1
            lo = max(seg_start, t0)
            hi = min(seg_end, t1)
            if hi > lo:
                total += self.values[i] * (hi - lo)
        return total

    def mean_over(self, t0: float, t1: float, initial: float = 0.0) -> float:
        """Mean of the signal over ``[t0, t1]`` (0.0 for an empty window)."""
        if t1 <= t0:
            return 0.0
        return self.integrate(t0, t1, initial=initial) / (t1 - t0)
