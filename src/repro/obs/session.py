"""Observability sessions: attach to clusters, capture runs, export.

:class:`ObsSession` is the one object the experiment harness and CLI deal
with::

    obs = ObsSession()
    cluster = Cluster.build(cfg, trace=True)
    obs.attach(cluster)                 # wires monitors onto every resource
    result = cluster.run_workload(wl)
    obs.capture(cluster, label="fig09/list x=64")

    obs.export_trace("run.json")        # Perfetto-loadable trace JSON
    print(obs.report_markdown())        # bottleneck verdict

A session accumulates one :class:`RunCapture` per observed workload; when
a figure sweep produces many, :meth:`best_run` picks the longest one (the
point that dominates the figure's wall-clock) for export and reporting,
and :meth:`runs_overview_markdown` one-lines the verdict of every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..simulate import Span
from .bottleneck import BottleneckReport, attribute
from .monitor import ClusterMonitor, ResourceMonitor
from .perfetto import FAULT_CATEGORIES, build_trace, write_trace

__all__ = ["RunCapture", "ObsSession"]


@dataclass
class RunCapture:
    """Frozen observability record of one workload run."""

    label: str
    t0: float
    t1: float
    spans: List[Span]
    monitors: Dict[str, ResourceMonitor]
    summary: Dict[str, Dict[str, float]]
    dropped_by_category: Dict[str, int] = field(default_factory=dict)

    @property
    def elapsed(self) -> float:
        return self.t1 - self.t0

    def report(self) -> BottleneckReport:
        report = attribute(self.monitors, self.t0, self.t1, label=self.label)
        report.faults = {
            cat: stats
            for cat, stats in self.summary.items()
            if cat in FAULT_CATEGORIES
        }
        return report

    def __repr__(self) -> str:
        return (
            f"<RunCapture {self.label!r} {self.elapsed:.6f}s "
            f"spans={len(self.spans)} resources={len(self.monitors)}>"
        )


class ObsSession:
    """Collects :class:`RunCapture` records across one or more runs."""

    def __init__(self) -> None:
        self.runs: List[RunCapture] = []
        self._active: Dict[int, ClusterMonitor] = {}
        #: SweepStats records appended by the sweep engine
        #: (:func:`repro.sweep.run_sweep`): per-worker point counts and
        #: cache hit/miss accounting, one per sweep observed.
        self.sweeps: List = []

    # -- lifecycle -----------------------------------------------------
    def attach(self, cluster) -> ClusterMonitor:
        """Enable tracing on ``cluster`` and wire monitors onto all of its
        resources.  Call before running the workload."""
        cluster.tracer.enabled = True
        monitor = ClusterMonitor(cluster)
        self._active[id(cluster)] = monitor
        return monitor

    def capture(self, cluster, label: str = "") -> RunCapture:
        """Snapshot the attached cluster's observability state as a run."""
        monitor = self._active.pop(id(cluster), None)
        if monitor is None:
            monitor = ClusterMonitor(cluster)  # late attach: window only
        t1 = cluster.sim.now
        monitor.close(t1)
        tracer = cluster.tracer
        run = RunCapture(
            label=label or f"run{len(self.runs)}",
            t0=monitor.t0,
            t1=t1,
            spans=list(tracer.spans),
            monitors=monitor.monitors,
            summary=tracer.summary(),
            dropped_by_category=dict(tracer.dropped_by_category),
        )
        monitor.detach()
        self.runs.append(run)
        return run

    def record_sweep(self, stats) -> None:
        """Attach one sweep's :class:`~repro.sweep.SweepStats` record."""
        self.sweeps.append(stats)

    # -- selection -----------------------------------------------------
    def best_run(self) -> Optional[RunCapture]:
        """The longest captured run — the point that dominates the sweep."""
        if not self.runs:
            return None
        return max(self.runs, key=lambda r: r.elapsed)

    def run_labelled(self, label: str) -> Optional[RunCapture]:
        for run in self.runs:
            if run.label == label:
                return run
        return None

    # -- outputs -------------------------------------------------------
    def export_trace(self, path: str, run: Optional[RunCapture] = None) -> dict:
        """Write a Perfetto trace JSON for ``run`` (default: best run)."""
        run = run or self.best_run()
        if run is None:
            raise ValueError("no runs captured — nothing to export")
        return write_trace(run, path)

    def build_trace(self, run: Optional[RunCapture] = None) -> dict:
        run = run or self.best_run()
        if run is None:
            raise ValueError("no runs captured — nothing to export")
        return build_trace(run)

    def report(self, run: Optional[RunCapture] = None) -> BottleneckReport:
        run = run or self.best_run()
        if run is None:
            raise ValueError("no runs captured — nothing to report")
        return run.report()

    def report_markdown(self, run: Optional[RunCapture] = None) -> str:
        return self.report(run).to_markdown()

    def runs_overview_markdown(self) -> str:
        """One line per captured run: label, elapsed, verdict."""
        if not self.runs:
            return "(no runs captured)\n"
        lines = ["| run | elapsed (s) | verdict |", "|---|---|---|"]
        for run in self.runs:
            lines.append(
                f"| {run.label} | {run.elapsed:.6f} | {run.report().verdict} |"
            )
        return "\n".join(lines) + "\n"

    def sweeps_markdown(self) -> str:
        """Sweep-level observability: one table per recorded sweep."""
        if not self.sweeps:
            return "(no sweeps recorded)\n"
        return "\n".join(s.to_markdown() for s in self.sweeps)

    def __repr__(self) -> str:
        return (
            f"<ObsSession runs={len(self.runs)} active={len(self._active)} "
            f"sweeps={len(self.sweeps)}>"
        )
