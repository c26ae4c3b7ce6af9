"""Request-level tracing for simulation runs.

A :class:`Tracer` collects timing *spans* (category, label, start, end,
metadata) from the daemons — request queue waits, service times, response
transmissions — and summarizes them with latency percentiles.  Tracing is
off by default (it costs real memory on million-request runs); enable it
with ``Cluster.build(config, trace=True)`` and read
``cluster.tracer.format_summary()`` after a workload.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Span", "Tracer"]


@dataclass(frozen=True)
class Span:
    """One timed interval."""

    category: str
    label: str
    start: float
    end: float
    meta: Tuple[Tuple[str, Any], ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __repr__(self) -> str:
        return f"<Span {self.category}/{self.label} {self.duration * 1e3:.3f} ms>"


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(int(math.ceil(q * len(sorted_values))) - 1, len(sorted_values) - 1)
    return sorted_values[max(idx, 0)]


class Tracer:
    """Span collector with per-category statistics."""

    def __init__(self, enabled: bool = True, capacity: Optional[int] = 1_000_000) -> None:
        self.enabled = enabled
        #: Hard cap on retained spans (oldest kept); None = unbounded.
        self.capacity = capacity
        self.spans: List[Span] = []
        self.dropped = 0
        #: Per-category drop counts, so a truncated trace says *which*
        #: category was cut off (a run that drops only ``net.xfer`` spans
        #: still has trustworthy ``iod.service`` statistics).
        self.dropped_by_category: Dict[str, int] = defaultdict(int)

    def record(
        self,
        category: str,
        label: str,
        start: float,
        end: float,
        **meta: Any,
    ) -> None:
        """Record one span (no-op when disabled)."""
        if not self.enabled:
            return
        if end < start:
            raise ValueError(f"span ends before it starts: {start} .. {end}")
        if self.capacity is not None and len(self.spans) >= self.capacity:
            self.dropped += 1
            self.dropped_by_category[category] += 1
            return
        self.spans.append(
            Span(category, label, start, end, tuple(sorted(meta.items())))
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.spans)

    def categories(self) -> List[str]:
        return sorted({s.category for s in self.spans})

    def spans_for(self, category: str, label: Optional[str] = None) -> List[Span]:
        return [
            s
            for s in self.spans
            if s.category == category and (label is None or s.label == label)
        ]

    def durations(self, category: str) -> List[float]:
        return [s.duration for s in self.spans_for(category)]

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-category stats: count, total, mean, p50, p95, p99, max seconds."""
        grouped: Dict[str, List[float]] = defaultdict(list)
        for s in self.spans:
            grouped[s.category].append(s.duration)
        out: Dict[str, Dict[str, float]] = {}
        for cat, durs in grouped.items():
            durs.sort()
            total = 0.0
            for d in durs:  # left to right: sum() compensates from Python 3.12 on
                total += d
            out[cat] = {
                "count": float(len(durs)),
                "total": total,
                "mean": total / len(durs),
                "p50": _percentile(durs, 0.50),
                "p95": _percentile(durs, 0.95),
                "p99": _percentile(durs, 0.99),
                "max": durs[-1],
            }
        return out

    def format_summary(self) -> str:
        """Markdown table of the summary (times in milliseconds)."""
        stats = self.summary()
        if not stats:
            return "(no spans recorded)\n"
        lines = [
            "| category | count | total (s) | mean (ms) | p50 (ms) | p95 (ms) | p99 (ms) | max (ms) |",
            "|---|---|---|---|---|---|---|---|",
        ]
        for cat in sorted(stats):
            s = stats[cat]
            lines.append(
                f"| {cat} | {int(s['count'])} | {s['total']:.3f} "
                f"| {s['mean'] * 1e3:.3f} | {s['p50'] * 1e3:.3f} "
                f"| {s['p95'] * 1e3:.3f} | {s['p99'] * 1e3:.3f} "
                f"| {s['max'] * 1e3:.3f} |"
            )
        if self.dropped:
            per_cat = ", ".join(
                f"{cat}={n}" for cat, n in sorted(self.dropped_by_category.items())
            )
            lines.append(
                f"\n({self.dropped} spans dropped at capacity: {per_cat})"
            )
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return f"<Tracer {state} spans={len(self.spans)}>"
