"""Bottleneck attribution: rank resources by busy fraction and
critical-path contribution, emit a one-screen verdict.

Two complementary metrics per resource:

* **utilization** — busy seconds / window seconds.  High utilization says
  a resource worked hard, but several resources can all be 90% busy when
  they overlap perfectly (pipelining).
* **critical-path share** — a shared-attribution sweep over the merged
  busy intervals of every *hardware* resource (CPU, disk, NIC): each
  instant of the run window is attributed equally among the resources busy
  at that instant; an instant where nothing is busy is attributed to
  *idle* (think: client compute, latency gaps).  A resource's share is its
  attributed time divided by the window.  Shares plus idle sum to 1, so
  they answer "where did the wall-clock actually go" — the question the
  paper's list-vs-multiple-vs-sieving analysis keeps asking.

The verdict names the resource with the largest critical-path share and
classifies the run (``disk-bound`` / ``nic-bound`` / ``cpu-bound`` /
``idle-bound``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Tuple

from .monitor import ResourceMonitor

__all__ = ["ResourceStat", "QueueStat", "BottleneckReport", "attribute"]

#: Resource kinds that participate in the critical-path sweep ("client"
#: windows span their own waiting time, so they would double-count).
_HARDWARE_KINDS = ("cpu", "disk", "nic")


@dataclass
class ResourceStat:
    """Attribution result for one resource."""

    name: str
    kind: str
    busy_s: float
    utilization: float
    critical_path_share: float


@dataclass
class QueueStat:
    """Depth statistics for one request queue."""

    name: str
    mean_depth: float
    p95_depth: float
    max_depth: float


@dataclass
class BottleneckReport:
    """One run's ranked attribution + verdict."""

    label: str
    t0: float
    t1: float
    resources: List[ResourceStat]
    queues: List[QueueStat]
    idle_share: float
    verdict: str
    #: Fault-window and retry span stats (category -> {count, total, ...}),
    #: filled by :meth:`RunCapture.report` when the run had fault activity
    #: (see :mod:`repro.faults`); empty on healthy runs.
    faults: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def window(self) -> float:
        return self.t1 - self.t0

    def top(self, n: int = 5) -> List[ResourceStat]:
        return self.resources[:n]

    def to_json(self) -> Dict:
        return {
            "label": self.label,
            "window_s": self.window,
            "verdict": self.verdict,
            "idle_share": self.idle_share,
            "resources": [asdict(r) for r in self.resources],
            "queues": [asdict(q) for q in self.queues],
            "faults": self.faults,
        }

    def to_markdown(self, top: int = 8) -> str:
        lines = [
            f"### bottleneck report — {self.label}",
            "",
            f"window: {self.window:.6f} simulated seconds",
            "",
            "| resource | kind | busy (s) | util | critical-path share |",
            "|---|---|---|---|---|",
        ]
        for r in self.top(top):
            lines.append(
                f"| {r.name} | {r.kind} | {r.busy_s:.6f} "
                f"| {r.utilization:.1%} | {r.critical_path_share:.1%} |"
            )
        lines.append(f"| (idle) | - | - | - | {self.idle_share:.1%} |")
        if self.queues:
            lines.append("")
            lines.append("| queue | mean depth | p95 depth | max depth |")
            lines.append("|---|---|---|---|")
            for q in self.queues:
                lines.append(
                    f"| {q.name} | {q.mean_depth:.2f} | {q.p95_depth:.0f} "
                    f"| {q.max_depth:.0f} |"
                )
        if self.faults:
            lines.append("")
            lines.append("| fault / retry activity | count | total (s) |")
            lines.append("|---|---|---|")
            for cat in sorted(self.faults):
                s = self.faults[cat]
                lines.append(
                    f"| {cat} | {int(s.get('count', 0))} | {s.get('total', 0.0):.6f} |"
                )
        lines.append("")
        lines.append(f"**verdict: {self.verdict}**")
        return "\n".join(lines) + "\n"


def _critical_path_shares(
    lanes: List[ResourceMonitor], t0: float, t1: float
) -> Tuple[Dict[str, float], float]:
    """Shared-attribution sweep: (per-resource attributed seconds, idle s)."""
    window = t1 - t0
    if window <= 0:
        return {m.name: 0.0 for m in lanes}, 0.0
    # Sweep events: +1/-1 per resource at interval edges, clipped to window.
    events: List[Tuple[float, int, int]] = []  # (time, delta, lane idx)
    for idx, lane in enumerate(lanes):
        for s, e in lane.merged():
            lo, hi = max(s, t0), min(e, t1)
            if hi > lo:
                events.append((lo, +1, idx))
                events.append((hi, -1, idx))
    attributed = {m.name: 0.0 for m in lanes}
    if not events:
        return attributed, window
    events.sort(key=lambda ev: (ev[0], -ev[1]))
    active: Dict[int, int] = {}
    idle = 0.0
    cursor = t0
    i = 0
    while i < len(events):
        t = events[i][0]
        if t > cursor:
            dt = t - cursor
            if active:
                share = dt / len(active)
                for idx in active:
                    attributed[lanes[idx].name] += share
            else:
                idle += dt
            cursor = t
        while i < len(events) and events[i][0] == t:
            _, delta, idx = events[i]
            depth = active.get(idx, 0) + delta
            if depth <= 0:
                active.pop(idx, None)
            else:
                active[idx] = depth
            i += 1
    if cursor < t1:
        idle += t1 - cursor  # nothing busy after the last event
    return attributed, idle


def attribute(
    lanes: Dict[str, ResourceMonitor],
    t0: float,
    t1: float,
    label: str = "",
) -> BottleneckReport:
    """Build a :class:`BottleneckReport` from a run's resource lanes."""
    window = max(t1 - t0, 0.0)
    hardware = [m for m in lanes.values() if m.kind in _HARDWARE_KINDS]
    shares, idle_s = _critical_path_shares(hardware, t0, t1)
    stats: List[ResourceStat] = []
    for lane in lanes.values():
        if lane.kind == "queue":
            continue
        busy = lane.busy_within(t0, t1)
        stats.append(
            ResourceStat(
                name=lane.name,
                kind=lane.kind,
                busy_s=busy,
                utilization=busy / window if window > 0 else 0.0,
                critical_path_share=(
                    shares.get(lane.name, 0.0) / window if window > 0 else 0.0
                ),
            )
        )
    stats.sort(key=lambda r: (r.critical_path_share, r.utilization), reverse=True)
    queues = [
        QueueStat(
            name=lane.name,
            mean_depth=lane.queue_mean(t0, t1),
            p95_depth=lane.queue_percentile(t0, t1, 0.95),
            max_depth=lane.queue_depth.max_value(),
        )
        for lane in lanes.values()
        if lane.kind == "queue"
    ]
    queues.sort(key=lambda q: q.p95_depth, reverse=True)
    idle_share = idle_s / window if window > 0 else 1.0
    hardware_stats = [s for s in stats if s.kind in _HARDWARE_KINDS]
    if not hardware_stats or (
        hardware_stats[0].critical_path_share < idle_share
        and idle_share > 0.5
    ):
        verdict = (
            f"idle-bound: no resource dominates ({idle_share:.0%} of the "
            "window has no hardware busy — latency or client compute)"
        )
    else:
        top = hardware_stats[0]
        parts = [f"{top.name} {top.utilization:.0%} busy"]
        # One representative per other kind, for the paper-style one-liner.
        seen = {top.kind}
        for s in hardware_stats[1:]:
            if s.kind not in seen:
                parts.append(f"{s.name} {s.utilization:.0%}")
                seen.add(s.kind)
        if queues and queues[0].p95_depth > 0:
            parts.append(f"{queues[0].name} p95 depth {queues[0].p95_depth:.0f}")
        verdict = "; ".join(parts) + f" -> {top.kind}-bound"
    return BottleneckReport(
        label=label,
        t0=t0,
        t1=t1,
        resources=stats,
        queues=queues,
        idle_share=idle_share,
        verdict=verdict,
    )
